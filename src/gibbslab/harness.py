"""Declarative experiment runner: bound-vs-oracle sweeps with reports.

A JSON configuration names a landscape, the Gibbs knobs (scalars or sweep
lists), a radius rule, sampler and oracle settings, and the theorems to
evaluate. ``run_experiment`` executes every configuration point, compares
each bound against its oracle, and writes ``report.csv``, ``report.json``
and ``run_meta.json`` into a fresh run directory. The reports are
deterministic given the master seed; re-running never mutates an earlier
run's files.

The gap oracle of the ``generalization`` rows runs no chain; it refuses a
data model not declared quadratic, or a dataset whose regularized
empirical Hessian is singular, and the CLI then exits 3. The
``sampler.steps`` key is validated and read by nothing.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from . import bounds as bnd
from .errors import ArgumentError, ConfigError, GibbslabError, ResolutionError
from .landscapes import (
    BUILTIN_DATA_MODELS,
    BUILTIN_LANDSCAPES,
    Landscape,
    MinimumDescriptor,
    disjoint_radius,
    enumerate_minima,
    make_data_model,
    make_landscape,
)
from .oracles import (
    empirical_generalization_gap,
    product_measure,
    quadrature_measure,
    tensor_gauss_legendre,
)

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "load_config",
    "validate_config",
    "run_experiment",
    "THEOREMS",
    "CSV_COLUMNS",
]

CSV_COLUMNS = [
    "theorem",
    "key",
    "variant",
    "minimum_index",
    "gamma",
    "ridge",
    "m",
    "radius",
    "tuning_p",
    "bound_total",
    "bound_secondary",
    "term_effective_dimension",
    "term_taylor",
    "term_sqrt",
    "term_generalization",
    "term_complement",
    "oracle_value",
    "margin",
    "stat_allowance",
    "passed",
    "master_seed",
]

_SCHEMA = {
    "landscape": {"name", "params"},
    "gibbs": {"gamma", "ridge", "m"},
    "radius": {"relative", "tuning_p"},
    "sampler": {"steps"},
    "oracle": {"nodes_per_dim", "mc_trials"},
}
_TOP_KEYS = {"landscape", "gibbs", "radius", "sampler", "oracle", "theorems", "master_seed", "output_dir"}

_DEFAULTS = {
    "gibbs": {"ridge": 0.0},
    "sampler": {"steps": 100_000},
    "oracle": {"nodes_per_dim": 0, "mc_trials": 200},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; ``raw`` is its canonical dict form.
    ``landscape`` is the one landscape that validation builds from the name
    and params; the run reads it and its ``minima``, so both see one object.
    """

    landscape_name: str
    landscape_params: dict
    gammas: tuple[float, ...]
    ridges: tuple[float, ...]
    ms: tuple[int, ...]
    radius_mode: str  # "relative" | "tuning_p"
    radius_values: tuple[float, ...]
    sampler: dict
    oracle: dict
    theorems: tuple[str, ...]
    master_seed: int
    output_dir: str
    raw: dict = field(repr=False)
    # ridge -> the minima enumerated for the r0 check, reused by the run
    minima: dict = field(default_factory=dict, repr=False, compare=False)
    landscape: Landscape | None = field(default=None, repr=False, compare=False)


@dataclass
class RunResult:
    rows: list[dict]
    run_dir: Path
    all_passed: bool


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _number(value, path: str, problems: list[str], kind=float):
    """``value`` as a finite ``kind`` (float or int); None, with a
    ``path: message`` problem, when it is not a JSON number (a boolean or a
    numeric string is not) or, for int, has a fractional part."""
    try:
        if (
            isinstance(value, numbers.Real)
            and not isinstance(value, bool)
            and math.isfinite(value)
            and (kind is float or float(value).is_integer())
        ):
            return kind(value)
    except OverflowError:  # an int beyond the float range
        pass
    what = "a finite number" if kind is float else "an integer"
    problems.append(f"{path}: expected {what}, got {value!r}")
    return None


def _numbers(value, path: str, problems: list[str], kind=float) -> list:
    """The entries of a scalar-or-list field that parse as ``kind``."""
    parsed = [_number(v, path, problems, kind) for v in _as_list(value)]
    return [v for v in parsed if v is not None]


def load_config(path_or_dict) -> ExperimentConfig:
    """Parse and validate a configuration file (or an equivalent dict).

    A file that cannot be read or is not JSON raises ConfigError.
    """
    if isinstance(path_or_dict, (str, Path)):
        try:
            with open(path_or_dict, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError([f"{path_or_dict}: {exc}"]) from exc
    else:
        raw = dict(path_or_dict)
    return validate_config(raw)


def validate_config(raw: dict) -> ExperimentConfig:
    """Check every field and collect all violations into one ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError([f"config: expected a JSON object, got {type(raw).__name__}"])
    problems: list[str] = []

    for key in raw:
        if key not in _TOP_KEYS:
            problems.append(f"{key}: unknown key")
    sections = {}
    for section, allowed in _SCHEMA.items():
        sub = raw.get(section) or {}
        if not isinstance(sub, dict):
            problems.append(f"{section}: expected an object, got {sub!r}")
            sub = {}
        for key in sub:
            if key not in allowed:
                problems.append(f"{section}.{key}: unknown key")
        sections[section] = sub

    name = sections["landscape"].get("name")
    params = sections["landscape"].get("params") or {}
    if not isinstance(name, str) or name not in BUILTIN_LANDSCAPES:
        problems.append(
            f"landscape.name: unknown landscape {name!r}; "
            f"available {sorted(BUILTIN_LANDSCAPES)}"
        )

    gibbs = {**_DEFAULTS["gibbs"], **sections["gibbs"]}
    gammas = _numbers(gibbs.get("gamma", []), "gibbs.gamma", problems)
    ridges = _numbers(gibbs["ridge"], "gibbs.ridge", problems)
    ms = _numbers(gibbs.get("m", []), "gibbs.m", problems, int)
    for key in ("gamma", "ridge", "m"):
        if not _as_list(gibbs.get(key, [])):
            problems.append(f"gibbs.{key}: sweep grid must be nonempty")
    if any(g <= 0 for g in gammas):
        problems.append("gibbs.gamma: entries must be positive")
    if any(v < 0 for v in ridges):
        problems.append("gibbs.ridge: entries must be nonnegative")
    if any(v < 1 for v in ms):
        problems.append("gibbs.m: entries must be >= 1")

    radius = sections["radius"]
    modes = [k for k in ("relative", "tuning_p") if radius.get(k) is not None]
    radius_mode, radius_values = "relative", ()
    if len(modes) != 1:
        problems.append("radius: exactly one of relative/tuning_p must be set")
    else:
        radius_mode = modes[0]
        path = f"radius.{radius_mode}"
        radius_values = tuple(_numbers(radius[radius_mode], path, problems))
        if not _as_list(radius[radius_mode]):
            problems.append(f"{path}: sweep grid must be nonempty")
        if radius_mode == "relative" and any(not 0 < v <= 1 for v in radius_values):
            problems.append("radius.relative: entries must lie in (0, 1]")
        if radius_mode == "tuning_p" and any(not 0 < v <= 1 / 3 for v in radius_values):
            problems.append("radius.tuning_p: entries must lie in (0, 1/3]")

    theorems = raw.get("theorems") or ()
    if not isinstance(theorems, (list, tuple)):
        problems.append(f"theorems: expected a list of theorem names, got {theorems!r}")
        theorems = ()
    elif not theorems:
        problems.append("theorems: at least one theorem must be listed")
    theorems = tuple(theorems)
    for i, t in enumerate(theorems):
        if t not in THEOREMS:
            problems.append(f"theorems: unknown theorem {t!r}; available {THEOREMS}")
        elif t in theorems[:i]:
            problems.append(f"theorems: {t!r} is listed more than once")
    generalization = "generalization" in theorems
    if generalization and not (isinstance(name, str) and name in BUILTIN_DATA_MODELS):
        problems.append(
            "theorems: 'generalization' needs a landscape with a data model "
            f"({sorted(BUILTIN_DATA_MODELS)})"
        )

    master_seed = None
    if "master_seed" not in raw:
        problems.append("master_seed: required")
    else:
        master_seed = _number(raw["master_seed"], "master_seed", problems, int)
    # read by nothing; kept only because bench/workloads.py sets sampler.steps
    sampler = {**_DEFAULTS["sampler"], **sections["sampler"]}
    sampler["steps"] = _number(sampler["steps"], "sampler.steps", problems, int)
    if sampler["steps"] is not None and sampler["steps"] < 1:
        problems.append("sampler.steps: must be >= 1")
    given = {**_DEFAULTS["oracle"], **sections["oracle"]}
    oracle = {
        key: _number(given[key], f"oracle.{key}", problems, int) for key in _DEFAULTS["oracle"]
    }
    nodes, trials = oracle["nodes_per_dim"], oracle["mc_trials"]
    if nodes is not None and nodes < 0:
        problems.append("oracle.nodes_per_dim: must be >= 0 (0 picks the count)")
    if generalization and trials is not None and trials < 50:
        problems.append("oracle.mc_trials: the generalization oracle needs >= 50 trials")

    # radii are fractions of r0 or must respect it (needs the enumerated minima)
    landscape, minima = None, {}
    if not problems:
        try:
            landscape = make_landscape(name, **params)
        # ArgumentError and numpy's LinAlgError are both ValueErrors
        except (TypeError, ValueError) as exc:
            problems.append(f"landscape.params: {exc}")
    if landscape is not None and landscape.dimension > 3:
        quadrature_needed = set(theorems) - {"generalization"}
        if quadrature_needed:
            problems.append(
                "landscape: quadrature-backed theorems need dimension <= 3, "
                f"got d={landscape.dimension}"
            )
    if landscape is not None and radius_values:
        try:
            minima = {ridge: enumerate_minima(landscape, ridge) for ridge in ridges}
            r0 = min(disjoint_radius(found) for found in minima.values())
            if not r0 > 0.0:
                problems.append(f"landscape: a minimum on the domain box's edge leaves r0={r0}")
            elif radius_mode == "tuning_p":
                for p in radius_values:
                    for g in gammas:
                        if bnd.tune_radius(g, p) > r0 * (1 + 1e-12):
                            problems.append(
                                f"radius.tuning_p: r(gamma={g}, p={p}) exceeds r0={r0}"
                            )
        except GibbslabError as exc:
            problems.append(f"landscape: {exc}")

    if problems:
        raise ConfigError(problems)

    return ExperimentConfig(
        landscape_name=name,
        landscape_params=dict(params),
        gammas=tuple(gammas),
        ridges=tuple(ridges),
        ms=tuple(ms),
        radius_mode=radius_mode,
        radius_values=radius_values,
        sampler=sampler,
        oracle=oracle,
        theorems=theorems,
        master_seed=master_seed,
        output_dir=str(raw.get("output_dir") or "runs"),
        raw=raw,
        minima=minima,
        landscape=landscape,
    )


# cap on the coarse pass's nodes per axis: the doubled pass then builds
# per-axis arrays of at most 2^23 doubles (64 MiB) each
_MAX_NODES_PER_AXIS = 2**22


def _auto_nodes(landscape, minima, gamma: float, requested: int, tensor: bool) -> int:
    """Nodes per axis: 20 per narrowest well width 1/√(γ·λ_max) across the
    box, which a tensor grid caps at 400 in d = 2 and 80 in d = 3.
    ResolutionError when the count exceeds ``_MAX_NODES_PER_AXIS``."""
    lam_max = max(float(np.linalg.eigvalsh(m.reg_hessian)[-1]) for m in minima)
    width = float(np.max(landscape.domain_box[:, 1] - landscape.domain_box[:, 0]))
    sigma = 1.0 / math.sqrt(gamma * lam_max)
    needed = int(math.ceil(20.0 * width / sigma))
    if tensor and landscape.dimension >= 2:
        needed = min(needed, 400)
    if tensor and landscape.dimension == 3:
        needed = min(needed, 80)
    nodes = max(requested, needed, 64)
    if nodes > _MAX_NODES_PER_AXIS:
        raise ResolutionError(
            f"the quadrature at gamma={gamma:g} needs {nodes} nodes per axis, "
            f"above the cap of {_MAX_NODES_PER_AXIS}"
        )
    return nodes


def _base_row(cfg: ExperimentConfig, theorem: str, gamma, ridge, m, r, p, idx=None):
    key_parts = [f"gamma={gamma:.12g}", f"ridge={ridge:.12g}", f"m={m}"]
    if r is not None:
        key_parts.append(f"r={r:.12g}")
    if p is not None:
        key_parts.append(f"p={p:.12g}")
    if idx is not None:
        key_parts.append(f"i={idx}")
    return {
        **dict.fromkeys(CSV_COLUMNS),
        "theorem": theorem, "key": ";".join(key_parts), "variant": "", "minimum_index": idx,
        "gamma": gamma, "ridge": ridge, "m": m, "radius": r, "tuning_p": p,
        "master_seed": cfg.master_seed,
    }


class _Point(NamedTuple):
    """One (γ, λ, m, r): the bound inputs, this radius's share of the
    (γ, λ) Gibbs measure, per minimum i where indexed, and the minima
    distribution bound (None unless a theorem reads it)."""

    minima: list[MinimumDescriptor]
    r: float
    log_z: float
    masses: np.ndarray  # of ellipsoid i
    weights: np.ndarray  # masses normalized over the ellipsoids
    complement: float  # outside every ellipsoid
    global_excess: float | None  # E[R] − Σ weightᵢ·R(w*ᵢ)
    excess: np.ndarray | None  # E[R | ellipsoid i] − R(w*ᵢ)
    gconf: bnd.GibbsConfig
    distribution: bnd.MinimaDistribution | None


def _from_report(report: bnd.BoundReport) -> tuple:
    return report.total, None, report.terms


def _within_allowance(row: dict) -> bool:
    return row["margin"] >= -row["stat_allowance"]


def _gap_passes(row: dict) -> bool:
    # the true gap, I_SKL(W; S)/γ, is never negative: an estimate more than
    # the allowance (3 standard errors) below 0 is an oracle fault
    return _within_allowance(row) and row["oracle_value"] >= -row["stat_allowance"]


def _pseudo_excess(pt: _Point, _) -> float:
    return sum(w * pt.excess[i] for i, w in enumerate(pt.distribution.pi_infinity) if w != 0.0)


def _minima_bound(pt: _Point, mn: MinimumDescriptor) -> tuple:
    dist = pt.distribution
    return float(dist.upper_bounds[mn.index]), float(dist.pi_infinity[mn.index]), {}


def _sandwich(pt: _Point, mn: MinimumDescriptor) -> tuple:
    sandwich = bnd.ellipsoid_mass_bounds(mn, pt.gconf, pt.r, log_z=pt.log_z)
    return sandwich.upper, sandwich.lower_with_z, {}


def _inside_sandwich(row: dict) -> bool:
    mass = row["oracle_value"]
    tol = 1e-9 * max(1.0, abs(mass))
    return row["bound_secondary"] <= mass + tol and mass <= row["bound_total"] + tol


def _complement_bound(pt: _Point, _) -> tuple:
    comp = bnd.complement_mass_bound(pt.minima, pt.gconf, pt.r)
    return comp.clamped, comp.raw, {}


def _global_bound(pt: _Point, _) -> tuple:
    return _from_report(bnd.global_excess_bound(pt.minima, pt.gconf, pt.r, pt.weights))


# theorem -> (per_minimum, bound, oracle, passes), all read at one (γ, λ, m, r):
# bound(point, minimum) gives (total, secondary, terms) and oracle(point,
# minimum) the value the bound must dominate, with minimum None unless
# per_minimum; passes(row) is the verdict
_TABLE = {
    "local_excess": (
        True,
        lambda pt, mn: _from_report(bnd.local_excess_bound(mn, pt.gconf, pt.r)),
        lambda pt, mn: pt.excess[mn.index],
        _within_allowance,
    ),
    "global_excess": (
        False, _global_bound, lambda pt, _: pt.global_excess, _within_allowance
    ),
    "pseudo_excess": (
        False,
        lambda pt, _: _from_report(
            bnd.pseudo_excess_bound(pt.minima, pt.gconf, pt.r, pt.distribution.pi_infinity)
        ),
        _pseudo_excess,
        _within_allowance,
    ),
    "minima_distribution": (
        True,
        _minima_bound,
        lambda pt, mn: pt.weights[mn.index],
        lambda row: row["margin"] >= -1e-9,
    ),
    "ellipsoid_mass": (
        True, _sandwich, lambda pt, mn: pt.masses[mn.index], _inside_sandwich
    ),
    # a raw bound outside [0, 1] is not a probability and is not asserted
    "complement_mass": (
        False,
        _complement_bound,
        lambda pt, _: pt.complement,
        lambda row: not 0.0 <= row["bound_secondary"] <= 1.0 or row["margin"] >= -1e-12,
    ),
}

THEOREMS = ("generalization", *_TABLE)


def _finish(row: dict, total, secondary, terms, oracle, allowance, passes) -> dict:
    row["bound_total"] = total
    row["bound_secondary"] = secondary
    for name, value in terms.items():
        row[f"term_{name}"] = value
    row["oracle_value"] = float(oracle)
    row["margin"] = total - row["oracle_value"]
    row["stat_allowance"] = allowance
    row["passed"] = passes(row)
    return row


def _coordinate_potential(risk_k, ridge: float):
    return lambda x: risk_k(x) + ridge * (x * x)


def _gibbs_measure(cfg: ExperimentConfig, gamma, ridge, regions, needs_risk) -> tuple:
    """The (γ, λ) Gibbs measure read off for ``regions``, and how it was
    computed: its method (the ``product`` oracle for a landscape that
    declares coordinate risks in d ≥ 2, the ``tensor`` grid otherwise), the
    nodes per axis of both passes and its wall seconds."""
    landscape, minima = cfg.landscape, cfg.minima[ridge]
    product = landscape.coordinate_risks is not None and landscape.dimension >= 2
    nodes = _auto_nodes(landscape, minima, gamma, cfg.oracle["nodes_per_dim"], not product)
    start = time.perf_counter()
    if product:
        measure = product_measure(
            [_coordinate_potential(f, ridge) for f in landscape.coordinate_risks],
            gamma,
            landscape.domain_box,
            nodes,
            regions=regions,
            integrands={"risk": landscape.coordinate_risks} if needs_risk else None,
        )
    else:
        measure = quadrature_measure(
            lambda w: landscape.reg_risk(w, ridge),
            gamma,
            tensor_gauss_legendre(landscape.domain_box, nodes),
            regions=regions,
            integrands={"risk": landscape.risk} if needs_risk else None,
        )
    return measure, {
        "gamma": gamma,
        "ridge": ridge,
        "method": "product" if product else "tensor",
        "nodes_per_axis": [list(n) for n in measure.nodes_per_axis],
        "seconds": time.perf_counter() - start,
    }


def _evaluate_point(
    cfg: ExperimentConfig, data_model, gamma, ridge
) -> tuple[list[dict], dict | None, float]:
    """Rows of every m and radius at one (γ, λ), how its quadrature
    measure was computed (None without one) and the wall seconds spent in
    the generalization-gap oracle; m enters only the bounds.
    ``data_model`` is the run's one, or None without generalization rows.
    Every radius reads its share of one Gibbs measure, whose regions are
    every minimum's ellipsoid at every radius."""
    landscape, minima = cfg.landscape, cfg.minima[ridge]
    theorems = [t for t in cfg.theorems if t in _TABLE]
    gconfs = [
        bnd.GibbsConfig(gamma=gamma, ridge=ridge, m=m, loss_bound=landscape.loss_bound)
        for m in cfg.ms
    ]
    rows: list[dict] = []
    quadrature = None
    if theorems:
        r0 = disjoint_radius(minima)
        if cfg.radius_mode == "relative":
            radii = [(rel * r0, None) for rel in cfg.radius_values]
        else:
            radii = [(bnd.tune_radius(gamma, p), p) for p in cfg.radius_values]
        needs_risk = {"local_excess", "global_excess", "pseudo_excess"} & set(theorems)
        needs_distribution = {"minima_distribution", "pseudo_excess"} & set(theorems)
        regions = [mn.ellipsoid(r) for r, _ in radii for mn in minima]
        measure, quadrature = _gibbs_measure(cfg, gamma, ridge, regions, needs_risk)
        risk_at_minima = np.array([float(landscape.risk(mn.location)) for mn in minima])
        for k, (r, p) in enumerate(radii):
            share = slice(k * len(minima), (k + 1) * len(minima))
            masses = measure.masses[share]
            weights = masses / masses.sum()
            excess = global_excess = None
            if needs_risk:
                excess = measure.region_conditional["risk"][share] - risk_at_minima
                anchor = float(np.sum(weights * risk_at_minima))
                global_excess = measure.conditional["risk"] - anchor
            # the distribution reads γ, λ and r only: one per radius, for every m
            distribution = (
                bnd.minima_distribution(minima, gconfs[0], r) if needs_distribution else None
            )
            for m, gconf in zip(cfg.ms, gconfs):
                pt = _Point(
                    minima, r, measure.log_z, masses, weights,
                    measure.complement_mass[float(r)], global_excess, excess,
                    gconf, distribution,
                )
                for theorem in theorems:
                    per_minimum, bound, oracle, passes = _TABLE[theorem]
                    for mn in minima if per_minimum else [None]:
                        idx = None if mn is None else mn.index
                        row = _base_row(cfg, theorem, gamma, ridge, m, r, p, idx)
                        rows.append(_finish(row, *bound(pt, mn), oracle(pt, mn), 0.0, passes))
    generalization_s = 0.0
    if data_model is not None:
        for gconf in gconfs:
            gen_rows, seconds = _generalization_rows(cfg, data_model, gconf)
            rows += gen_rows
            generalization_s += seconds
    return rows, quadrature, generalization_s


def _generalization_rows(
    cfg: ExperimentConfig, data_model, gconf: bnd.GibbsConfig
) -> tuple[list[dict], float]:
    """The generalization rows at one (γ, λ, m) and the wall seconds of
    their gap estimate."""
    start = time.perf_counter()
    estimate = empirical_generalization_gap(
        data_model,
        gconf.gamma,
        gconf.ridge,
        gconf.m,
        trials=cfg.oracle["mc_trials"],
        master_seed=cfg.master_seed,
    )
    seconds = time.perf_counter() - start
    allowance = 3.0 * estimate.std_error
    rows = []
    for variant in bnd.GEN_BOUND_VARIANTS:
        row = _base_row(cfg, "generalization", gconf.gamma, gconf.ridge, gconf.m, None, None)
        row["variant"] = variant
        row["key"] += f";variant={variant}"
        bound = bnd.generalization_bound(replace(gconf, gen_bound_variant=variant))
        rows.append(_finish(row, bound, None, {}, estimate.value, allowance, _gap_passes))
    return rows, seconds


def _monotone_series_rows(cfg: ExperimentConfig, rows: list[dict]) -> list[dict]:
    # With the tuned radius schedule the complement mass must decrease in gamma.
    if cfg.radius_mode != "tuning_p" or "complement_mass" not in cfg.theorems:
        return []
    extra = []
    comp = [r for r in rows if r["theorem"] == "complement_mass"]
    for ridge in cfg.ridges:
        for m in cfg.ms:
            for p in cfg.radius_values:
                series = sorted(
                    (
                        r
                        for r in comp
                        if r["ridge"] == ridge and r["m"] == m and r["tuning_p"] == p
                    ),
                    key=lambda r: r["gamma"],
                )
                if len(series) < 2:
                    continue
                values = [r["oracle_value"] for r in series]
                row = _base_row(cfg, "complement_mass", 0.0, ridge, m, None, p)
                row["gamma"] = None  # series-level row, not tied to one point
                row["key"] = f"series-monotone;ridge={ridge:.12g};m={m};p={p:.12g}"
                row["variant"] = "monotone_decreasing"
                row["oracle_value"] = values[-1]
                row["passed"] = all(b < a for a, b in zip(values, values[1:]))
                extra.append(row)
    return extra


def _fmt_csv(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        if math.isnan(value):
            return ""
        return f"{float(value):.12g}"
    return str(value)


def _next_run_dir(base: Path) -> Path:
    base.mkdir(parents=True, exist_ok=True)
    with os.scandir(base) as entries:
        existing = [
            int(e.name.split("-")[1])
            for e in entries
            if e.name.startswith("run-") and e.name.split("-")[1].isdigit() and e.is_dir()
        ]
    return base / f"run-{(max(existing) + 1 if existing else 1):04d}"


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | Path | None = None, workers: int = 1
) -> RunResult:
    """Execute every configuration point, one after another, and write
    ``report.csv``, ``report.json`` and ``run_meta.json`` into a fresh
    ``run-NNNN`` directory under ``out_dir`` (default: the config's
    ``output_dir``). Output rows are ordered by their configuration key.
    ``workers`` must be 1.
    """
    # kept only because bench/worker.py passes workers=1
    if workers != 1:
        raise ArgumentError(f"workers must be 1, got {workers!r}")
    start = time.time()
    data_model = (
        make_data_model(cfg.landscape_name, **cfg.landscape_params)
        if "generalization" in cfg.theorems
        else None
    )
    results = [
        _evaluate_point(cfg, data_model, gamma, ridge)
        for gamma in cfg.gammas
        for ridge in cfg.ridges
    ]
    rows = [row for point_rows, _, _ in results for row in point_rows]
    rows.extend(_monotone_series_rows(cfg, rows))
    rows.sort(key=lambda r: (r["theorem"], r["key"]))

    base = Path(out_dir) if out_dir else Path(cfg.output_dir)
    run_dir = _next_run_dir(base)
    run_dir.mkdir(parents=True)

    with open(run_dir / "report.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_csv(row[c]) for c in CSV_COLUMNS) + "\n")

    payload = {"config": cfg.raw, "rows": rows}
    with open(run_dir / "report.json", "w", encoding="utf-8") as fh:
        # json.dumps uses the C encoder; json.dump never does
        fh.write(json.dumps(payload, default=_json_default, allow_nan=True))
        fh.write("\n")

    quadrature = [q for _, q, _ in results if q is not None]
    meta = {
        "wall_time_seconds": time.time() - start,
        "quadrature_s": sum((q["seconds"] for q in quadrature), 0.0),
        "generalization_s": sum((g for _, _, g in results), 0.0),
        "quadrature": quadrature,
        "peak_rss_mb": _peak_rss_mb(),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(run_dir / "run_meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")

    all_passed = all(r["passed"] is not False for r in rows)
    return RunResult(rows=rows, run_dir=run_dir, all_passed=all_passed)


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (``ru_maxrss``
    counts KiB on Linux and bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")
