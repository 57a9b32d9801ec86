"""The README's library example runs as written on the bundled fixture.

Every name it imports must still exist, so dropping or renaming one of them
fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(fixture_paths, capsys):
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    for name, key in (("citations.jsonl", "citations"), ("factoids.tsv", "factoids")):
        assert f'"{name}"' in code
        code = code.replace(f'"{name}"', repr(str(fixture_paths[key])))
    exec(compile(code, str(README), "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
