"""The README's library quicktour runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quicktour_runs():
    section = README.read_text().split("## Library quicktour", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {}
    exec(compile(block, "README.md quicktour", "exec"), namespace)
    # the names the tour binds hold what its comments say
    assert type(namespace["dt"]) is float and type(namespace["dx"]) is float
    table = namespace["table"]
    assert abs(table.value((1, 0)) + table.value((0, 3))) < 1e-12
