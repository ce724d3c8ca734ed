"""Operation lists of the three benchmark workloads.

An operation is either one ``harness`` call (``validate_config`` followed by
``run_experiment(workers=1)`` on a single-point config) or one ``chain``
call (``samplers.sample_chain``). The lists are fixed; the workload seed
enters only as the ``master_seed`` the library receives. Standard library
only, so the orchestrator can build op ids without importing numpy.
"""

from __future__ import annotations

DEFAULT_SEED = 20260809

QUAD_THEOREMS = [
    "local_excess",
    "global_excess",
    "pseudo_excess",
    "minima_distribution",
    "ellipsoid_mass",
    "complement_mass",
]

ANISOTROPIC_2D = [[1.0, 0.3], [0.3, 2.0]]

# Chain settings: 20k steps, 2k burn-in, chain ids 0..5 in list order.
CHAIN_STEPS = 20_000
CHAIN_BURN_IN = 2_000


def _harness_op(op_id, name, params, gamma, ridge, m, relative, theorems, seed, **extra):
    config = {
        "landscape": {"name": name, "params": params},
        "gibbs": {"gamma": gamma, "ridge": ridge, "m": m},
        "radius": {"relative": relative},
        "theorems": list(theorems),
        "master_seed": seed,
    }
    config.update(extra)
    return {"id": op_id, "kind": "harness", "config": config}


def sweep_1d(seed: int) -> list[dict]:
    """160 d=1 bound-vs-quadrature points: two landscapes × γ × λ × r/r0."""
    ops = []
    for name in ("double_well", "spline_double_well"):
        params = {"dimension": 1} if name == "double_well" else {}
        for gamma in (20, 50, 100, 200, 500, 1000, 2000, 5000):
            for ridge in (0.0, 0.05):
                for rel in (0.1, 0.2, 0.3, 0.5, 0.8):
                    op_id = f"{name}1:g={gamma}:l={ridge:g}:rr={rel:g}"
                    ops.append(
                        _harness_op(
                            op_id, name, params, float(gamma), ridge, 1000, rel,
                            QUAD_THEOREMS, seed,
                        )
                    )
    return ops


def quad_nd(seed: int) -> list[dict]:
    """8 converging anisotropic d=2 points, then 2 points that raise today."""
    ops = []
    params = {"dimension": 2, "matrix": ANISOTROPIC_2D}
    for gamma in (100, 200):
        for ridge in (0.0, 0.1):
            for rel in (0.8, 1.0):
                op_id = f"quadratic2:g={gamma}:l={ridge:g}:rr={rel:g}"
                ops.append(
                    _harness_op(
                        op_id, "quadratic", params, float(gamma), ridge, 1000, rel,
                        QUAD_THEOREMS, seed,
                    )
                )
    ops.append(
        _harness_op(
            "double_well2:g=100:l=0:rr=0.3", "double_well", {"dimension": 2},
            100.0, 0.0, 1000, 0.3, QUAD_THEOREMS, seed,
        )
    )
    ops.append(
        _harness_op(
            "quadratic3:g=100:l=0:rr=0.8", "quadratic", {"dimension": 3},
            100.0, 0.0, 1000, 0.8, QUAD_THEOREMS, seed,
        )
    )
    return ops


def sampling(seed: int) -> list[dict]:
    """The 4 points of demos/configs/rls_generalization.json, then 6 chains."""
    ops = []
    for gamma in (1.0, 10.0):
        for m in (100, 1000):
            ops.append(
                _harness_op(
                    f"rls:g={gamma:g}:m={m}", "rls",
                    {"slope": 0.5, "noise_halfwidth": 0.5},
                    gamma, 0.1, m, 0.3, ["generalization"], seed,
                    sampler={"steps": 400}, oracle={"mc_trials": 100},
                )
            )
    landscapes = [
        ("double_well1", "double_well", {"dimension": 1}, 20.0),
        ("double_well2", "double_well", {"dimension": 2}, 20.0),
        ("spline_double_well1", "spline_double_well", {}, 50.0),
    ]
    chain_id = 0
    for kind, step_size in (("metropolis", 0.3), ("sgld", None)):
        for label, name, params, gamma in landscapes:
            ops.append(
                {
                    "id": f"{kind}:{label}:g={gamma:g}",
                    "kind": "chain",
                    "landscape": {"name": name, "params": params},
                    "sampler": kind,
                    "gamma": gamma,
                    # None means samplers.default_step_size of the target
                    "step_size": step_size,
                    "steps": CHAIN_STEPS,
                    "burn_in": CHAIN_BURN_IN,
                    "chain_id": chain_id,
                    "master_seed": seed,
                }
            )
            chain_id += 1
    return ops


WORKLOADS = {"sweep_1d": sweep_1d, "quad_nd": quad_nd, "sampling": sampling}


def operations(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](int(seed))
