"""The README's library example runs as written."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_python_example_runs(capsys, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)            # the example names configs by relative path
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})
    out = capsys.readouterr().out
    assert "\n51072 []\n" in out         # 6 slices of 8192 and switches of 320, no failures
    assert "violations: 0" in out and "channel OPEN" in out
