"""The library stays independent of the test suite.

Oracles and bounds must not share code with the independent references in
``tests/helpers.py``, so no module of the package may import ``helpers``
or anything under ``tests``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gibbslab"
FORBIDDEN = {"helpers", "tests"}


def _imported_modules(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # "from . import helpers" names the module in the aliases
            names.append(node.module or "")
            if node.level and node.module is None:
                names += [alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_nothing_from_the_tests(path):
    offending = [
        name for name in _imported_modules(path) if name.split(".")[0] in FORBIDDEN
    ]
    assert not offending, f"{path.name} imports {offending}"
