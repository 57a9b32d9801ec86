"""The README's library example and CLI commands run as written on the bundled fixture.

Every name the library example imports and every flag a command passes must
still exist, so dropping or renaming one of them fails here.
"""

import glob
import re
import shlex
from pathlib import Path

from citesum.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(fixture_paths, capsys):
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    for name, key in (("citations.jsonl", "citations"), ("factoids.tsv", "factoids")):
        assert f'"{name}"' in code
        code = code.replace(f'"{name}"', repr(str(fixture_paths[key])))
    exec(compile(code, str(README), "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0


def test_cli_examples_run(fixture_paths, tmp_path, monkeypatch, capsys):
    """Each command of the CLI block exits 0, in order, from a directory that
    holds the inputs the fixture lacks; ``out/`` is created by the commands."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines() if line and not line.startswith("#")]
    inputs = {
        "citations.jsonl": str(fixture_paths["citations"]),
        "idf.tsv": str(fixture_paths["idf"]),
        "factoids.tsv": str(fixture_paths["factoids"]),
    }
    monkeypatch.chdir(tmp_path)
    Path("cand.txt").write_text("the chunker tags base phrases with a memory based learner\n", encoding="utf-8")
    for i, text in enumerate(["base phrases are tagged", "a memory based learner", "phrase chunking", "the tagger"]):
        Path(f"ref{i + 1}.txt").write_text(text + "\n", encoding="utf-8")
    for i in (1, 2):
        Path(f"annotator{i}.tsv").write_text(f"a{i}\ts1\t0\t{5 + 6 * i}\n", encoding="utf-8")
    used = set()
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "citesum"
        args = []
        for word in argv[1:]:
            if "*" in word:
                args.extend(sorted(glob.glob(word)) or [word])
            else:
                used.update({word} & inputs.keys())
                args.append(inputs.get(word, word))
        assert main(args) == 0, (command, capsys.readouterr().err)
    assert used == inputs.keys()
