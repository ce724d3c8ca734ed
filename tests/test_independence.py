"""The library stays independent of the test suite and light to import.

Oracles and bounds must not share code with the independent references in
``tests/helpers.py``, so no module of the package may import ``helpers``
or anything under ``tests``.

``import gibbslab`` loads none of scipy's heavy subpackages, and no run
loads scipy.special or scipy.linalg: the incomplete gamma P(a, z) and
Kummer's M are summed in ``gibbslab.specfun`` on the standard library, and
the quadrature oracles' 16-point Gauss-Legendre rule is a declared
constant, so neither chains, generalization runs nor quadrature runs load
them. The tests themselves import scipy.special as their reference.
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
# time and resident memory to every process (scipy.special about 23 MB,
# scipy.linalg 6 MB more on top of it). No run loads the last two either:
# the sampling and quadrature tests below check that
UNLOADED = (
    "scipy.integrate", "scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.special"
)


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


SAMPLING_SIDE = """
import sys
import numpy as np
from gibbslab import harness, landscapes, oracles, samplers, specfun

target = samplers.target_from_landscape(landscapes.double_well_landscape(1), 0.0)
samplers.sample_chain("sgld", target, 10.0, 0.05, 2000, 100, master_seed=9)
cfg = harness.validate_config({
    "landscape": {"name": "rls", "params": {"slope": 0.5, "noise_halfwidth": 0.5}},
    "gibbs": {"gamma": [1.0], "ridge": 0.1, "m": [100]},
    "radius": {"relative": [0.3]},
    "sampler": {"steps": 50},
    "oracle": {"mc_trials": 50},
    "theorems": ["generalization"],
    "master_seed": 7,
})
assert harness.run_experiment(cfg, out_dir=sys.argv[1]).rows
assert "scipy.special" not in sys.modules, "loaded by a chain or a generalization run"

p = specfun.regularized_gamma_P(0.5, 1.0)
assert "scipy.special" not in sys.modules, "loaded by the incomplete gamma"
nodes, weights = oracles.tensor_gauss_legendre([(-1.0, 1.0)], 16).axes[0]
from scipy.special import gammainc, roots_legendre
x, w = roots_legendre(16)
assert p == float(gammainc(0.5, 1.0))
# the declared rule is scipy's, bit for bit
assert np.array_equal(nodes, x) and np.array_equal(weights, w)
"""


def test_sampling_side_leaves_scipy_special_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", SAMPLING_SIDE, str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


QUADRATURE_SIDE = """
import sys
import numpy as np
from gibbslab import harness, landscapes, oracles, specfun

# the oracles alone: a tensor grid, its measure and a product measure
well = landscapes.double_well_landscape(1)
region = landscapes.EllipsoidSpec(center=np.array([1.0]), metric=np.array([[8.0]]), radius=0.5)
grid = oracles.tensor_gauss_legendre(well.domain_box, 256)
oracles.quadrature_measure(well.risk, 20.0, grid, regions=[region])
disc = landscapes.EllipsoidSpec(center=np.zeros(2), metric=np.diag([2.0, 2.0]), radius=0.5)
oracles.product_measure([lambda x: x * x] * 2, 10.0, [(-3.0, 3.0)] * 2, 64, regions=[disc])
assert not {"scipy.special", "scipy.linalg"} & set(sys.modules), "loaded by the oracles"

theorems = ["local_excess", "global_excess", "pseudo_excess",
            "minima_distribution", "ellipsoid_mass", "complement_mass"]
for landscape in (
    {"name": "double_well", "params": {"dimension": 1}},
    {"name": "quadratic", "params": {"dimension": 2, "matrix": [[1.0, 0.3], [0.3, 2.0]]}},
):
    cfg = harness.validate_config({
        "landscape": landscape,
        "gibbs": {"gamma": [100.0], "ridge": 0.0, "m": [1000]},
        "radius": {"relative": [0.8]},
        "theorems": theorems,
        "master_seed": 7,
    })
    result = harness.run_experiment(cfg, out_dir=sys.argv[1])
    assert {row["theorem"] for row in result.rows} == set(theorems)
# P(d/2 + 1, r²/2) is below the smallest normal double, so the ratio is
# read off Kummer's M
assert specfun.chi2_cdf(22, 1e-30) < sys.float_info.min
assert 0.0 < specfun.chi2_cdf_ratio(20, 1e-30) < 1e-30
assert not {"scipy.special", "scipy.linalg"} & set(sys.modules), "loaded by a quadrature run"
"""


def test_quadrature_side_leaves_scipy_special_and_linalg_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", QUADRATURE_SIDE, str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
