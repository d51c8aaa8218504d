"""Every script in demos/ and the README's Python code run to completion."""

import ast
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: a README line ``expression  # literal — note``: the literal is its value
COMMENTED_RESULT = re.compile(r"^(?P<expr>[^#\s][^#]*?)\s+# (?P<value>\{[^}]*\}|\[[^\]]*\])")


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_python_runs_and_gives_its_commented_results():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert blocks
    checked = {}
    for block in blocks:
        namespace: dict = {}
        exec(compile(block, "README.md", "exec"), namespace)
        for line in block.splitlines():
            m = COMMENTED_RESULT.match(line)
            if m:
                expected = ast.literal_eval(m["value"])
                assert eval(m["expr"], namespace) == expected, line
                checked[m["expr"]] = expected
    assert checked['distance_map(g, 0, 0, "foremost")'] == {0: 0, 1: 0, 2: 6}
