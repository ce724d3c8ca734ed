"""Correctness gate: compare each operation's output with bench/reference.json.

Quadrature-backed rows are deterministic and must agree to
|a − b| ≤ RTOL·|b| + ATOL. Monte-Carlo values (generalization oracles and
chain means of f(w) = R(w)) must lie within Z_MAX standard errors of a
stored reference. Standard library only.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12
Z_MAX = 4.0

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# verdicts
OK = "ok"
KNOWN_FAILURE = "known_failure"  # raised exactly the recorded error
RESOLVED = "resolved"  # a recorded failure no longer raises
MISMATCH = "mismatch"


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def row_key(row: dict) -> str:
    return f"{row['theorem']}|{row['key']}"


def close(value, ref) -> bool:
    if value is None or ref is None:
        return value is None and ref is None
    value, ref = float(value), float(ref)
    if math.isnan(value) or math.isnan(ref):
        return math.isnan(value) and math.isnan(ref)
    if math.isinf(value) or math.isinf(ref):
        return value == ref
    return abs(value - ref) <= RTOL * abs(ref) + ATOL


def z_score(value: float, ref: float, se: float, ref_se: float = 0.0) -> float:
    scale = math.hypot(se, ref_se)
    if scale == 0.0:
        return 0.0 if value == ref else math.inf
    return (value - ref) / scale


def check_rows(rows: list[dict], ref_rows: dict) -> list[str]:
    """Problems found in a harness operation's report rows."""
    problems = []
    got = {row_key(r): r for r in rows}
    for key in sorted(set(ref_rows) - set(got)):
        problems.append(f"missing row {key}")
    for key in sorted(set(got) - set(ref_rows)):
        problems.append(f"unexpected row {key}")
    for key in sorted(set(got) & set(ref_rows)):
        row, ref = got[key], ref_rows[key]
        if row["passed"] != ref["passed"]:
            problems.append(f"{key}: passed={row['passed']}, reference {ref['passed']}")
        if not close(row["bound_total"], ref["bound_total"]):
            problems.append(
                f"{key}: bound_total {row['bound_total']!r} vs {ref['bound_total']!r}"
            )
        if "oracle_se" in ref:
            # Monte-Carlo oracle: stat_allowance is 3 standard errors
            z = z_score(row["oracle_value"], ref["oracle_value"],
                        row["stat_allowance"] / 3.0, ref["oracle_se"])
            if not abs(z) <= Z_MAX:
                problems.append(f"{key}: oracle z = {z:.2f}")
        elif not close(row["oracle_value"], ref["oracle_value"]):
            problems.append(
                f"{key}: oracle_value {row['oracle_value']!r} vs {ref['oracle_value']!r}"
            )
    return problems


def check_error(error: dict | None, ref: dict) -> tuple[str, list[str]]:
    """Verdict for an operation with a recorded expected error."""
    if error is None:
        return RESOLVED, []
    if error["class"] == ref["error"] and error["suggested_nodes"] == ref["suggested_nodes"]:
        return KNOWN_FAILURE, []
    return MISMATCH, [f"raised {error['class']} {error['suggested_nodes']}, "
                      f"reference {ref['error']} {ref['suggested_nodes']}"]


def check_chain(stats: dict, ref: dict) -> list[str]:
    """A chain passes when its mean of f lies within Z_MAX standard errors
    sd/√ESS of the quadrature value of E_π[f], where sd is the larger of the
    stationary sd_π(f) (also by quadrature) and the chain's own sd. A chain
    that explored too little has a sample sd biased low together with its
    mean; SGLD's step-size bias widens the chain's own sd."""
    if not stats["ess"] > 0.0:
        return ["chain never moved (ESS 0)"]
    se = max(ref["sd_f"], stats["sd_f"]) / math.sqrt(stats["ess"])
    z = z_score(stats["mean_f"], ref["mean_f"], se)
    stats["z"] = z
    return [] if abs(z) <= Z_MAX else [f"|z| = {abs(z):.2f} > {Z_MAX}"]


def judge(op_result: dict, ref: dict) -> tuple[str, list[str]]:
    """(verdict, problems) for one executed operation."""
    error = op_result.get("error")
    if "error" in ref:
        return check_error(error, ref)
    if error is not None:
        return MISMATCH, [f"raised {error['class']}: {error['message']}"]
    if "rows" in ref:
        problems = check_rows(op_result["rows"], ref["rows"])
    else:
        problems = check_chain(op_result["chain"], ref)
    return (MISMATCH if problems else OK), problems
