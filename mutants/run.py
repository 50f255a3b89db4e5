"""Scoped mutation harness: which suites of the battery kill each of a fixed table of mutants.

    python3 mutants/run.py                  # the program next to this directory
    python3 mutants/run.py --root <checkout>    # another checkout, e.g. the parent commit

A mutant is one exact text substitution in one file of ``src/``.  Its old
text must occur exactly once in that file, so a refactor that moves or
rewrites it fails loudly instead of testing nothing.  Each mutant is applied
to a temporary copy of ``src/``, and the battery runs on that copy in a
subprocess, at each order of :data:`ORDERS`:

    python -W error::RuntimeWarning -m jetframe.cli verify --suites all --seed 0 --samples 100 --order N

A mutant is killed by the suites that fail on it and pass on the unmutated
copy at the same order, or by "crash" when the run ends without a record of
every suite (a traceback, or a typed error's exit code).  The output gives,
per mutant, its killers at each order; a mutant with none is a survivor.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ORDERS = (6, 12)
VERIFY = ("-m", "jetframe.cli", "verify", "--suites", "all", "--seed", "0", "--samples", "100")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/jetframe
    old: str
    new: str
    breaks: str


MUTANTS = (
    Mutant(
        "max-condition",
        "invariants.py",
        "_MAX_CONDITION = 1e8",
        "_MAX_CONDITION = 1e16",
        "reconstruction accepts systems with condition number up to 1e16",
    ),
    Mutant(
        "prefactor-high-weight",
        "invariants.py",
        "rows.append([math.exp(-w * log_p / w_den) for w in weights])",
        "rows.append([math.exp(-w * log_p / w_den) * (1 + 1e-3 * (w > 14)) for w in weights])",
        "the float prefactor |pivot|^(-w/d) is 1e-3 too large above weight 14",
    ),
    Mutant(
        "i0n-doubled",
        "invariants.py",
        "    values[:, 0] = 0.0\n    return values",
        "    values[:, 0] = 0.0\n    if order >= 5:\n        values[:, _pos(0, order)] *= 2\n    return values",
        "I[0,n] is doubled in every table of order n >= 5",
    ),
    Mutant(
        "soliton-amplitude",
        "solutions.py",
        "return _row_products((3.0 * c) * s, s)",
        "return _row_products((3.0 * c * (1 + 1e-10)) * s, s)",
        "the soliton's amplitude is 1e-10 too large, so it solves KdV only to about 1e-10",
    ),
    Mutant(
        "record-weights-swapped",
        "invariants.py",
        "_prefactors(p, branch, (3, 1), kind.weight_denominator)",
        "_prefactors(p, branch, (1, 3), kind.weight_denominator)",
        "the germ's D_t^i and D_x^i prefactors trade weights",
    ),
    Mutant(
        "bracket-sign",
        "invariants.py",
        "out[l] += r[..., b] * d_xi[a] - r[..., a] * d_xi[b]",
        "out[l] -= r[..., b] * d_xi[a] - r[..., a] * d_xi[b]",
        "the commutator coefficients change sign",
    ),
    Mutant(
        "weight-plus-one",
        "group.py",
        "return 3 * a1 + a2 + 2",
        "return 3 * a1 + a2 + 3",
        "every scaling weight of u_alpha is one too large",
    ),
    Mutant(
        "r-columns-swapped",
        "invariants.py",
        "return np.linalg.solve(v_z, -d_z)",
        "return np.linalg.solve(v_z, -d_z)[..., ::-1]",
        "the t and x columns of the correction matrix R trade places",
    ),
    Mutant(
        "bracket-halves-swapped",
        "invariants.py",
        "np.concatenate([first[b], first[a]], axis=1)",
        "np.concatenate([first[a], first[b]], axis=1)",
        "the stacked bracket reads D_a^i D_a^i - D_b^i D_b^i instead of D_a^i D_b^i - D_b^i D_a^i",
    ),
    Mutant(
        "eps-constant-term",
        "group.py",
        "value[..., _pos(*slot)]",
        "value[..., 0]",
        "pr_v_apply reads rows of lifted values at their constant term, not the field's slot",
    ),
    Mutant(
        "stack-rows-first-jet",
        "jets.py",
        "np.stack([j.data for j in jets])",
        "np.stack([jets[0].data for j in jets])",
        "a stack's validator stacks its first jet's entries at every point",
    ),
    Mutant(
        "rational-rows-column-major",
        "solutions.py",
        "return _row_products(x, _compose(\"pow\", t, (-1,)).reshape(t.shape))",
        "return _row_products(x, _compose(\"pow\", t, (-1,)).reshape(t.shape[::-1]).T)",
        "a stack's 1/t rows are read column-major, so each rational row mixes the coefficients of several points",
    ),
    Mutant(
        "rational-rows-first-point",
        "solutions.py",
        "return _row_products(x, _compose(\"pow\", t, (-1,)).reshape(t.shape))",
        "return _row_products(x, _compose(\"pow\", t[:1], (-1,)))",
        "every rational row of a stack reads the first point's 1/t",
    ),
    Mutant(
        "rho-scaling",
        "frame.py",
        "math.log(abs(p)) / kind.weight_denominator",
        "math.log(abs(p)) / (kind.weight_denominator + 1)",
        "the frame's scaling eps4 = ln|pivot| / weight divides by one more than the pivot's weight",
    ),
    Mutant(
        "cancel-scale-dropped",
        "frame.py",
        "scale = abs(u_t) + abs(u * u_x) if kind is _TIME else 0.0",
        "scale = 0.0",
        "the singular test loses its cancellation scale, so a time pivot of a few ulps of its terms is regular",
    ),
)


def mutated(text, mutant):
    """`text` with the mutant's old text replaced; an old text found other than once is a ValueError."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"mutant {mutant.name}: old text occurs {count} times in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def failures(src, order):
    """(suites that fail, suites with a record) of the battery at `order` on the package under `src`.

    A run that exits with neither pass (0) nor fail (1) counts as having no record.
    """
    run = subprocess.run(
        (sys.executable, "-W", "error::RuntimeWarning", *VERIFY, "--order", str(order)),
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    lines = run.stdout.splitlines() if run.returncode in (0, 1) else []
    checks = [r for r in map(json.loads, lines) if r.get("record") == "check"]
    return {r["name"] for r in checks if not r["passed"]}, {r["name"] for r in checks}


def killers(src, baseline):
    """The killers of the package under `src` at each order: failing suites that `baseline` passes.

    A run that ends without a record of every suite (a traceback, a typed
    error's exit code) is killed by "crash".
    """
    out = {}
    for order in ORDERS:
        failed, recorded = failures(src, order)
        passed, suites = baseline[order]
        out[order] = sorted(failed & passed) + (["crash"] if recorded != suites else [])
    return out


def run_all(root=ROOT):
    """(baseline failures per order, {mutant name: killers per order}) for the checkout at `root`."""
    src = Path(root) / "src"
    baseline = {}
    for order in ORDERS:
        failed, suites = failures(src, order)
        if not suites:
            raise RuntimeError(f"the unmutated battery at order {order} gives no check record")
        baseline[order] = suites - failed, suites
    results = {}
    with tempfile.TemporaryDirectory(prefix="jetframe-mutant-") as tmp:
        for mutant in MUTANTS:
            copy = Path(tmp) / mutant.name
            shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            target = copy / "jetframe" / mutant.file
            target.write_text(mutated(target.read_text(), mutant))
            results[mutant.name] = killers(copy, baseline)
    return {order: sorted(suites - passed) for order, (passed, suites) in baseline.items()}, results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ is mutated")
    args = parser.parse_args(argv)
    baseline, results = run_all(args.root)
    print(f"# unmutated failures: {baseline}")
    for mutant in MUTANTS:
        by_order = results[mutant.name]
        verdict = "killed" if any(by_order.values()) else "SURVIVED"
        detail = "  ".join(f"o{order}: {','.join(k) or '-'}" for order, k in by_order.items())
        print(f"{verdict:8} {mutant.name:24} {detail}   ({mutant.breaks})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
