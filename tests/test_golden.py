"""Golden outputs: `cli.main` stdout compared byte for byte with committed files.

The files under tests/data/golden/ were written by the dict-backed jet code
that preceded the dense jet layout; any change to a printed digit fails here.
Regenerate them (only on purpose) with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from jetframe.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

# soliton u = 3 sech^2((x - t)/2): theta = 0.7 gives branch -1 in both
# frames, theta = -0.6 gives +1 in both
_SOLITON_POINTS = {"neg": ("0.3", "1.7"), "pos": ("0.3", "-0.9")}

CASES = {
    **{
        f"eval-soliton-{frame}-{branch}-o{order}": [
            "eval", "--solution", "soliton", "--t0", t0, "--x0", x0,
            "--frame", frame, "--order", str(order),
        ]
        for frame in ("t", "x")
        for branch, (t0, x0) in _SOLITON_POINTS.items()
        for order in (4, 12)
    },
    "eval-rational-x-pos-o6": ["eval", "--solution", "rational", "--frame", "x", "--order", "6",
                               "--t0", "1.3", "--x0", "0.4"],
    "eval-rational-x-neg-o6": ["eval", "--solution", "rational", "--frame", "x", "--order", "6",
                               "--t0", "-0.8", "--x0", "1.1"],
    "eval-soliton-t-csv-o5": ["eval", "--solution", "soliton", "--c", "1.3", "--phase", "0.2",
                              "--t0", "-0.4", "--x0", "0.1", "--frame", "t", "--order", "5",
                              "--format", "csv"],
    "verify-all-seed0-s20-o6": ["verify", "--suites", "all", "--seed", "0", "--samples", "20",
                                "--order", "6"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_file(capsys, name):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(argv) == EXIT_OK, name
        (GOLDEN / f"{name}.out").write_text(buffer.getvalue())
