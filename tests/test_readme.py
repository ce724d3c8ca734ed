"""The README's "Quick example" runs as written.

It is the user-facing tour of the public API, so a change to that API
that the README misses fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Quick example", "exec"), {"__name__": "readme_example"})
    out = capsys.readouterr().out
    assert "bound" in out and "masses" in out
