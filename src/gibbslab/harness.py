"""Declarative experiment runner: bound-vs-oracle sweeps with reports.

A JSON configuration names a landscape, the Gibbs knobs (scalars or sweep
lists), a radius rule, sampler and oracle settings, and the theorems to
evaluate. ``run_experiment`` executes every configuration point, compares
each bound against its oracle, and writes ``report.csv`` / ``report.json``
plus plot-ready series into a fresh run directory. Outputs are
deterministic given the master seed; re-running never mutates an earlier
run's files.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import bounds as bnd
from .errors import ArgumentError, ConfigError, GibbslabError
from .landscapes import (
    BUILTIN_DATA_MODELS,
    BUILTIN_LANDSCAPES,
    disjoint_radius,
    enumerate_minima,
    make_data_model,
    make_landscape,
)
from .oracles import (
    empirical_generalization_gap,
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
    "OUTPUT_DIR_ENV",
]

OUTPUT_DIR_ENV = "GIBBSLAB_OUT"

THEOREMS = (
    "generalization",
    "local_excess",
    "global_excess",
    "pseudo_excess",
    "minima_distribution",
    "ellipsoid_mass",
    "complement_mass",
)

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
    "gibbs": {"gamma", "ridge", "m", "loss_bound", "sigma", "gen_bound_variant"},
    "radius": {"relative", "absolute", "tuning_p"},
    "sampler": {"steps"},
    "oracle": {"nodes_per_dim", "mc_trials", "use_quadrature_weights"},
}
_TOP_KEYS = {"landscape", "gibbs", "radius", "sampler", "oracle", "theorems", "master_seed", "output_dir"}

_DEFAULTS = {
    "gibbs": {"ridge": 0.0, "loss_bound": None, "sigma": None, "gen_bound_variant": "hoeffding_stated"},
    "sampler": {"steps": 100_000},
    "oracle": {"nodes_per_dim": 0, "mc_trials": 200, "use_quadrature_weights": True},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; ``raw`` is its canonical dict form."""

    landscape_name: str
    landscape_params: dict
    gammas: tuple[float, ...]
    ridges: tuple[float, ...]
    ms: tuple[int, ...]
    loss_bound: float | None
    sigma: float | None
    gen_bound_variant: str
    radius_mode: str  # "relative" | "absolute" | "tuning_p"
    radius_values: tuple[float, ...]
    sampler: dict
    oracle: dict
    theorems: tuple[str, ...]
    master_seed: int
    output_dir: str
    raw: dict = field(repr=False)


@dataclass
class RunResult:
    rows: list[dict]
    run_dir: Path
    all_passed: bool


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def load_config(path_or_dict) -> ExperimentConfig:
    """Parse and validate a configuration file (or an equivalent dict)."""
    if isinstance(path_or_dict, (str, Path)):
        with open(path_or_dict, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    else:
        raw = dict(path_or_dict)
    return validate_config(raw)


def validate_config(raw: dict) -> ExperimentConfig:
    """Check every field and collect all violations into one ConfigError."""
    problems: list[str] = []

    for key in raw:
        if key not in _TOP_KEYS:
            problems.append(f"{key}: unknown key")
    for section, allowed in _SCHEMA.items():
        sub = raw.get(section)
        if isinstance(sub, dict):
            for key in sub:
                if key not in allowed:
                    problems.append(f"{section}.{key}: unknown key")

    land_cfg = raw.get("landscape") or {}
    name = land_cfg.get("name")
    params = land_cfg.get("params") or {}
    if name not in BUILTIN_LANDSCAPES:
        problems.append(
            f"landscape.name: unknown landscape {name!r}; "
            f"available {sorted(BUILTIN_LANDSCAPES)}"
        )

    gibbs = {**_DEFAULTS["gibbs"], **(raw.get("gibbs") or {})}
    gammas = [float(g) for g in _as_list(gibbs.get("gamma", []))]
    ridges = [float(v) for v in _as_list(gibbs.get("ridge", 0.0))]
    ms = [int(v) for v in _as_list(gibbs.get("m", []))]
    if not gammas:
        problems.append("gibbs.gamma: sweep grid must be nonempty")
    if any(g <= 0 for g in gammas):
        problems.append("gibbs.gamma: entries must be positive")
    if any(v < 0 for v in ridges):
        problems.append("gibbs.ridge: entries must be nonnegative")
    if not ms:
        problems.append("gibbs.m: sweep grid must be nonempty")
    if any(v < 1 for v in ms):
        problems.append("gibbs.m: entries must be >= 1")
    if gibbs["gen_bound_variant"] not in bnd.GEN_BOUND_VARIANTS:
        problems.append(
            f"gibbs.gen_bound_variant: must be one of {bnd.GEN_BOUND_VARIANTS}"
        )

    radius = raw.get("radius") or {}
    modes = [k for k in ("relative", "absolute", "tuning_p") if radius.get(k) is not None]
    radius_mode, radius_values = "relative", ()
    if len(modes) != 1:
        problems.append("radius: exactly one of relative/absolute/tuning_p must be set")
    else:
        radius_mode = modes[0]
        radius_values = tuple(float(v) for v in _as_list(radius[radius_mode]))
        if not radius_values:
            problems.append(f"radius.{radius_mode}: sweep grid must be nonempty")
        if radius_mode == "relative" and any(not 0 < v <= 1 for v in radius_values):
            problems.append("radius.relative: entries must lie in (0, 1]")
        if radius_mode == "tuning_p" and any(not 0 < v <= 1 / 3 for v in radius_values):
            problems.append("radius.tuning_p: entries must lie in (0, 1/3]")
        if radius_mode == "absolute" and any(v <= 0 for v in radius_values):
            problems.append("radius.absolute: entries must be positive")

    theorems = tuple(raw.get("theorems") or ())
    if not theorems:
        problems.append("theorems: at least one theorem must be listed")
    for t in theorems:
        if t not in THEOREMS:
            problems.append(f"theorems: unknown theorem {t!r}; available {THEOREMS}")
    if "generalization" in theorems and name not in BUILTIN_DATA_MODELS:
        problems.append(
            "theorems: 'generalization' needs a landscape with a data model "
            f"({sorted(BUILTIN_DATA_MODELS)})"
        )

    if "master_seed" not in raw:
        problems.append("master_seed: required")
    sampler = {**_DEFAULTS["sampler"], **(raw.get("sampler") or {})}
    if not isinstance(sampler["steps"], int) or sampler["steps"] < 1:
        problems.append("sampler.steps: must be an integer >= 1")
    oracle = {**_DEFAULTS["oracle"], **(raw.get("oracle") or {})}

    # radius entries must respect r0 (needs the enumerated minima)
    landscape = None
    if not problems:
        try:
            landscape = make_landscape(name, **params)
        except (ArgumentError, TypeError) as exc:
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
            r0 = min(
                disjoint_radius(enumerate_minima(landscape, ridge)) for ridge in ridges
            )
            if radius_mode == "absolute":
                bad = [v for v in radius_values if v > r0 * (1 + 1e-12)]
                if bad:
                    problems.append(f"radius.absolute: entries {bad} exceed r0={r0}")
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
        loss_bound=gibbs["loss_bound"],
        sigma=gibbs["sigma"],
        gen_bound_variant=gibbs["gen_bound_variant"],
        radius_mode=radius_mode,
        radius_values=radius_values,
        sampler=sampler,
        oracle=oracle,
        theorems=theorems,
        master_seed=int(raw["master_seed"]),
        output_dir=str(raw.get("output_dir") or os.environ.get(OUTPUT_DIR_ENV, "runs")),
        raw=raw,
    )


def _auto_nodes(landscape, minima, gamma: int, requested: int) -> int:
    lam_max = max(float(np.linalg.eigvalsh(m.reg_hessian)[-1]) for m in minima)
    width = float(np.max(landscape.domain_box[:, 1] - landscape.domain_box[:, 0]))
    sigma = 1.0 / math.sqrt(gamma * lam_max)
    needed = int(math.ceil(20.0 * width / sigma))
    if landscape.dimension >= 2:
        needed = min(needed, 400)
    if landscape.dimension == 3:
        needed = min(needed, 80)
    return max(int(requested), needed, 64)


def _base_row(cfg: ExperimentConfig, theorem: str, gamma, ridge, m, r, p, idx=None):
    key_parts = [f"gamma={gamma:.12g}", f"ridge={ridge:.12g}", f"m={m}"]
    if r is not None:
        key_parts.append(f"r={r:.12g}")
    if p is not None:
        key_parts.append(f"p={p:.12g}")
    if idx is not None:
        key_parts.append(f"i={idx}")
    return {
        "theorem": theorem,
        "key": ";".join(key_parts),
        "variant": "",
        "minimum_index": idx,
        "gamma": gamma,
        "ridge": ridge,
        "m": m,
        "radius": r,
        "tuning_p": p,
        "bound_total": None,
        "bound_secondary": None,
        "term_effective_dimension": None,
        "term_taylor": None,
        "term_sqrt": None,
        "term_generalization": None,
        "term_complement": None,
        "oracle_value": None,
        "margin": None,
        "stat_allowance": None,
        "passed": None,
        "master_seed": cfg.master_seed,
    }


def _fill_terms(row: dict, report: bnd.BoundReport) -> None:
    row["bound_total"] = report.total
    for name, value in report.terms.items():
        row[f"term_{name}"] = value


def _radius_points(cfg: ExperimentConfig, gamma: float, r0: float):
    if cfg.radius_mode == "relative":
        return [(rel * r0, None) for rel in cfg.radius_values]
    if cfg.radius_mode == "absolute":
        return [(r, None) for r in cfg.radius_values]
    return [(bnd.tune_radius(gamma, p), p) for p in cfg.radius_values]


def _evaluate_point(cfg: ExperimentConfig, landscape, gamma, ridge, m) -> list[dict]:
    minima = enumerate_minima(landscape, ridge)
    r0 = disjoint_radius(minima)
    loss_bound = cfg.loss_bound if cfg.loss_bound is not None else landscape.loss_bound
    gconf = bnd.GibbsConfig(
        gamma=gamma,
        ridge=ridge,
        m=m,
        loss_bound=loss_bound,
        sigma=cfg.sigma,
        gen_bound_variant=cfg.gen_bound_variant,
    )
    quad_theorems = set(cfg.theorems) - {"generalization"}
    rows: list[dict] = []

    grid = None
    if quad_theorems:
        nodes = _auto_nodes(landscape, minima, gamma, cfg.oracle["nodes_per_dim"])
        grid = tensor_gauss_legendre(landscape.domain_box, nodes)

    def potential(w):
        return landscape.reg_risk(w, ridge)

    z_value = None
    if quad_theorems:
        z_value = quadrature_measure(potential, gamma, grid).z

    for r, p in _radius_points(cfg, gamma, r0):
        ellipsoids = [mn.ellipsoid(r) for mn in minima]
        masses = None
        if quad_theorems:
            masses = np.array(
                [
                    quadrature_measure(potential, gamma, grid, region=e).region_mass
                    for e in ellipsoids
                ]
            )
        weights = None
        if masses is not None and masses.sum() > 0:
            weights = masses / masses.sum()

        if "local_excess" in cfg.theorems:
            for mn, e in zip(minima, ellipsoids):
                row = _base_row(cfg, "local_excess", gamma, ridge, m, r, p, mn.index)
                report = bnd.local_excess_bound(mn, gconf, r)
                _fill_terms(row, report)
                meas = quadrature_measure(
                    potential,
                    gamma,
                    grid,
                    region=e,
                    integrands={
                        "excess": lambda w, mn=mn: landscape.risk(w)
                        - float(landscape.risk(mn.location))
                    },
                )
                report.attach_oracle(meas.conditional["excess"])
                row["oracle_value"] = report.oracle_value
                row["margin"] = report.margin
                row["stat_allowance"] = 0.0
                row["passed"] = report.margin >= 0.0
                rows.append(row)

        if "global_excess" in cfg.theorems:
            row = _base_row(cfg, "global_excess", gamma, ridge, m, r, p)
            use_weights = weights if cfg.oracle["use_quadrature_weights"] else None
            report = bnd.global_excess_bound(minima, gconf, r, weights=use_weights, r0=r0)
            _fill_terms(row, report)
            mean_risk = quadrature_measure(
                potential, gamma, grid, integrands={"risk": landscape.risk}
            ).conditional["risk"]
            anchor = float(
                np.sum(weights * np.array([landscape.risk(mn.location) for mn in minima]))
            )
            report.attach_oracle(mean_risk - anchor)
            row["oracle_value"] = report.oracle_value
            row["margin"] = report.margin
            row["stat_allowance"] = 0.0
            row["passed"] = report.margin >= 0.0
            rows.append(row)

        if "pseudo_excess" in cfg.theorems:
            row = _base_row(cfg, "pseudo_excess", gamma, ridge, m, r, p)
            report = bnd.pseudo_excess_bound(minima, gconf, r)
            _fill_terms(row, report)
            pi_inf = bnd.minima_distribution(minima, gconf, r).pi_infinity
            oracle = 0.0
            for weight, mn, e in zip(pi_inf, minima, ellipsoids):
                if weight == 0.0:
                    continue
                meas = quadrature_measure(
                    potential,
                    gamma,
                    grid,
                    region=e,
                    integrands={
                        "excess": lambda w, mn=mn: landscape.risk(w)
                        - float(landscape.risk(mn.location))
                    },
                )
                oracle += weight * meas.conditional["excess"]
            report.attach_oracle(oracle)
            row["oracle_value"] = report.oracle_value
            row["margin"] = report.margin
            row["stat_allowance"] = 0.0
            row["passed"] = report.margin >= 0.0
            rows.append(row)

        if "minima_distribution" in cfg.theorems:
            dist = bnd.minima_distribution(minima, gconf, r)
            pi_quad = masses / masses.sum()
            for mn in minima:
                row = _base_row(
                    cfg, "minima_distribution", gamma, ridge, m, r, p, mn.index
                )
                row["bound_total"] = float(dist.upper_bounds[mn.index])
                row["bound_secondary"] = float(dist.pi_infinity[mn.index])
                row["oracle_value"] = float(pi_quad[mn.index])
                row["margin"] = row["bound_total"] - row["oracle_value"]
                row["stat_allowance"] = 0.0
                row["passed"] = row["margin"] >= -1e-9
                rows.append(row)

        if "ellipsoid_mass" in cfg.theorems:
            for mn, mass in zip(minima, masses):
                row = _base_row(cfg, "ellipsoid_mass", gamma, ridge, m, r, p, mn.index)
                sandwich = bnd.ellipsoid_mass_bounds(mn, gconf, r, z=z_value)
                row["bound_total"] = sandwich.upper
                row["bound_secondary"] = sandwich.lower_with_z
                row["oracle_value"] = float(mass)
                row["margin"] = sandwich.upper - float(mass)
                row["stat_allowance"] = 0.0
                tol = 1e-9 * max(1.0, abs(mass))
                row["passed"] = (
                    sandwich.lower_with_z <= mass + tol and mass <= sandwich.upper + tol
                )
                rows.append(row)

        if "complement_mass" in cfg.theorems:
            row = _base_row(cfg, "complement_mass", gamma, ridge, m, r, p)
            comp = bnd.complement_mass_bound(
                minima, gconf, r, landscape.dimension, r0=r0
            )
            row["bound_total"] = comp.clamped
            row["bound_secondary"] = comp.raw
            comp_mass = quadrature_measure(
                potential, gamma, grid, region=ellipsoids, complement=True
            ).region_mass
            row["oracle_value"] = comp_mass
            row["margin"] = comp.clamped - comp_mass
            row["stat_allowance"] = 0.0
            row["passed"] = (not 0.0 <= comp.raw <= 1.0) or row["margin"] >= -1e-12
            rows.append(row)

    if "generalization" in cfg.theorems:
        data_model = make_data_model(cfg.landscape_name, **cfg.landscape_params)
        estimate = empirical_generalization_gap(
            data_model,
            gamma,
            ridge,
            m,
            trials=int(cfg.oracle["mc_trials"]),
            master_seed=cfg.master_seed,
            steps=cfg.sampler["steps"],
        )
        allowance = 1.5 * estimate.halfwidth_95  # 3 sigma
        for variant in bnd.GEN_BOUND_VARIANTS:
            row = _base_row(cfg, "generalization", gamma, ridge, m, None, None)
            row["variant"] = variant
            row["key"] += f";variant={variant}"
            vconf = bnd.GibbsConfig(
                gamma=gamma,
                ridge=ridge,
                m=m,
                loss_bound=loss_bound,
                sigma=cfg.sigma,
                gen_bound_variant=variant,
            )
            bound = bnd.generalization_bound(vconf)
            row["bound_total"] = bound
            row["oracle_value"] = estimate.value
            row["margin"] = bound - estimate.value
            row["stat_allowance"] = allowance
            row["passed"] = row["margin"] >= -allowance
            rows.append(row)

    return rows


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
    existing = [
        int(p.name.split("-")[1])
        for p in base.iterdir()
        if p.is_dir() and p.name.startswith("run-") and p.name.split("-")[1].isdigit()
    ]
    return base / f"run-{(max(existing) + 1 if existing else 1):04d}"


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    workers: int = 1,
    theorems: tuple[str, ...] | None = None,
) -> RunResult:
    """Execute every configuration point and write the reports.

    Points run concurrently up to ``workers``; output rows are ordered by
    their configuration key, independent of completion order.
    """
    if theorems:
        unknown = set(theorems) - set(THEOREMS)
        if unknown:
            raise ConfigError([f"theorems: unknown {sorted(unknown)}"])
        cfg = replace(cfg, theorems=tuple(theorems))
    start = time.time()
    landscape = make_landscape(cfg.landscape_name, **cfg.landscape_params)
    points = [
        (gamma, ridge, m)
        for gamma in cfg.gammas
        for ridge in cfg.ridges
        for m in cfg.ms
    ]
    rows: list[dict] = []
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_evaluate_point, cfg, landscape, *pt) for pt in points
            ]
            for fut in futures:
                rows.extend(fut.result())
    else:
        for pt in points:
            rows.extend(_evaluate_point(cfg, landscape, *pt))
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
        json.dump(payload, fh, indent=2, default=_json_default, allow_nan=True)
        fh.write("\n")

    series_dir = run_dir / "series"
    series_dir.mkdir()
    for theorem in sorted({r["theorem"] for r in rows}):
        with open(series_dir / f"{theorem}.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("gamma,bound_total,oracle_value\n")
            for row in rows:
                if row["theorem"] != theorem or row["variant"] == "monotone_decreasing":
                    continue
                fh.write(
                    f"{_fmt_csv(row['gamma'])},{_fmt_csv(row['bound_total'])},"
                    f"{_fmt_csv(row['oracle_value'])}\n"
                )

    with open(run_dir / "run_meta.json", "w", encoding="utf-8") as fh:
        json.dump({"wall_time_seconds": time.time() - start}, fh, indent=2)
        fh.write("\n")

    all_passed = all(r["passed"] is not False for r in rows)
    return RunResult(rows=rows, run_dir=run_dir, all_passed=all_passed)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")
