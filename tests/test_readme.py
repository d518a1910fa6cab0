"""The README's library example runs as written, and its API facts hold."""

import dataclasses
import json
import pathlib
import re

from tpsim.kernel import RunOptions

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_python_example_runs(capsys, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)            # the example names configs by relative path
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})
    out = capsys.readouterr().out
    assert "\n51072 []\n" in out         # 6 slices of 8192 and switches of 320, no failures
    assert "violations: 0" in out and "channel OPEN" in out


def test_readme_names_exactly_the_fields_of_run_options():
    text = " ".join((ROOT / "README.md").read_text().split())
    count, names = re.search(r"`RunOptions` has (\w+) fields: (.*?)\.", text).groups()
    named = re.findall(r"`(\w+)`", names)
    fields = [f.name for f in dataclasses.fields(RunOptions)]
    assert named == fields
    assert count == ["zero", "one", "two", "three", "four", "five", "six"][len(fields)]


def test_readme_lists_every_config_key_with_its_default():
    """The Configuration section names each key of config._SCHEMA, written
    as `key: value` where the key has a default."""
    from tpsim.config import _SCHEMA, _Missing
    text = (ROOT / "README.md").read_text()
    section = " ".join(text[text.index("## Configuration"):text.index("## Tests")].split())
    for kind, keys in _SCHEMA.items():
        for key, (_, default) in keys.items():
            if isinstance(default, _Missing):
                assert f"`{key}`" in section or f"{key}: " in section, (kind, key)
            else:
                value = default if isinstance(default, str) else json.dumps(default)
                assert f"`{key}: {value}`" in section, (kind, key)
