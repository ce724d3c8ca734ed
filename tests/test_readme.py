"""The README's "Quick example" and "Command line" blocks run as written.

They are the user-facing tour of the public API and of the CLI, so a
change to either that the README misses fails here.
"""

import re
import shlex
from pathlib import Path

import gibbslab.cli as cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _code_block(section: str, language: str) -> str:
    text = README.read_text(encoding="utf-8").split(f"## {section}", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", text, re.DOTALL).group(1)


def test_quick_example_runs(capsys):
    code = _code_block("Quick example", "python")
    exec(compile(code, f"{README}:Quick example", "exec"), {"__name__": "readme_example"})
    out = capsys.readouterr().out
    assert "bound" in out and "masses" in out


def test_command_lines_exit_0(tmp_path, monkeypatch):
    # run from an empty directory, with the repository's config paths made
    # absolute, so every output lands under tmp_path
    monkeypatch.chdir(tmp_path)
    lines = [
        shlex.split(line)
        for line in _code_block("Command line", "bash").splitlines()
        if line.startswith("gibbslab ")
    ]
    assert lines
    for argv in lines:
        args = [str(ROOT / a) if (ROOT / a).is_file() else a for a in argv[1:]]
        assert cli.main(args) == 0, argv
