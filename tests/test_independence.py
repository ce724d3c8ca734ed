"""The library stays independent of the test suite and light to import.

Oracles and bounds must not share code with the independent references in
``tests/helpers.py``, so no module of the package may import ``helpers``
or anything under ``tests``.
"""

import ast
import os
import subprocess
import sys
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


# scipy subpackages that ``import gibbslab`` must not load: each adds start-up
# time and resident memory to every process (scipy.linalg alone 6.5 MB)
UNLOADED = ("scipy.integrate", "scipy.stats", "scipy.optimize", "scipy.linalg")


def test_import_loads_no_heavy_scipy_subpackage():
    code = (
        "import sys, gibbslab; "
        f"print([m for m in {UNLOADED!r} if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
