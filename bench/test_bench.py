"""Self-tests of the benchmark's own arithmetic. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import tracing  # noqa: E402
from ess import ar1_ess, effective_sample_size  # noqa: E402


def _ar1(n: int, phi: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n) * np.sqrt(1.0 - phi * phi)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    return x


def test_ess_matches_ar1_closed_form():
    n = 200_000
    for phi, seed in ((0.0, 1), (0.5, 2), (0.9, 3)):
        estimate = effective_sample_size(_ar1(n, phi, seed))
        assert abs(estimate / ar1_ess(n, phi) - 1.0) < 0.1, (phi, estimate)


def test_ess_of_constant_chain_is_zero():
    assert effective_sample_size(np.ones(1000)) == 0.0


def test_self_time_of_nested_spans():
    # root [0, 100] holds b [10, 40] (which holds c [20, 30]) and d [50, 90]
    # (which holds a second "b" [60, 70]).
    spans = [
        ["root", 0, 100, -1, 0],
        ["b", 10, 40, 0, 0],
        ["c", 20, 30, 1, 0],
        ["d", 50, 90, 0, 0],
        ["b", 60, 70, 3, 0],
    ]
    totals = tracing.self_times(spans)
    assert totals == {"root": [1, 30], "b": [2, 30], "c": [1, 10], "d": [1, 30]}
    assert sum(v[1] for v in totals.values()) == 100


def test_wrapped_calls_nest_and_account_for_wall_time():
    tracer = tracing.Tracer()

    def inner(x):
        return sum(i * i for i in range(x))

    traced_inner = tracer.wrap("inner", inner)

    def outer(x):
        return traced_inner(x) + traced_inner(2 * x)

    traced_outer = tracer.wrap("outer", outer)
    tracer.call(tracing.OP_SPAN, traced_outer, 20_000)
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == [tracing.OP_SPAN, "outer", "inner", "inner"]
    assert parents == [-1, 0, 1, 1]
    totals = tracing.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(v[1] for v in totals.values()) == root[2] - root[1]
    assert totals["inner"][0] == 2


def _reference_rows(workload: str) -> tuple[str, dict]:
    refs = gate.load_reference(workload)
    op_id = next(k for k, v in refs.items() if "rows" in v)
    return op_id, refs[op_id]["rows"]


def _rows_from(ref_rows: dict) -> list[dict]:
    rows = []
    for key, ref in ref_rows.items():
        theorem, row_key = key.split("|", 1)
        rows.append({"theorem": theorem, "key": row_key, "stat_allowance": 0.0, **ref})
    return rows


def test_gate_accepts_reference_and_rejects_perturbed_rows():
    _, ref_rows = _reference_rows("sweep_1d")
    rows = _rows_from(ref_rows)
    assert gate.check_rows(rows, ref_rows) == []

    drifted = copy.deepcopy(rows)
    drifted[0]["oracle_value"] *= 1.0 + 1e-6
    assert gate.check_rows(drifted, ref_rows)

    flipped = copy.deepcopy(rows)
    flipped[-1]["passed"] = not flipped[-1]["passed"]
    assert gate.check_rows(flipped, ref_rows)

    assert gate.check_rows(rows[1:], ref_rows)  # a missing row


def test_gate_judges_chains_and_known_failures():
    ref = {"mean_f": 1.0, "sd_f": 1.0}
    near = {"mean_f": 1.01, "sd_f": 0.5, "ess": 10_000.0}  # z = 1
    far = {"mean_f": 1.05, "sd_f": 0.5, "ess": 10_000.0}  # z = 5
    wide = {"mean_f": 1.05, "sd_f": 2.0, "ess": 10_000.0}  # z = 2.5
    assert gate.judge({"error": None, "chain": near}, ref)[0] == gate.OK
    assert gate.judge({"error": None, "chain": far}, ref)[0] == gate.MISMATCH
    assert gate.judge({"error": None, "chain": wide}, ref)[0] == gate.OK

    known = {"error": "ResolutionError", "suggested_nodes": [1600, 1600]}
    same = {"class": "ResolutionError", "suggested_nodes": [1600, 1600], "message": ""}
    other = {"class": "ResolutionError", "suggested_nodes": [3200, 3200], "message": ""}
    assert gate.judge({"error": same}, known)[0] == gate.KNOWN_FAILURE
    assert gate.judge({"error": other}, known)[0] == gate.MISMATCH
    assert gate.judge({"error": None}, known)[0] == gate.RESOLVED
