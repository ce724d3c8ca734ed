"""gibbslab benchmark: closed-loop passes over fixed operation lists.

Run from the repository root (standard library only in this process):

    python3 bench/run.py --workload sweep_1d --seed 20260809 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20   # every metric of every workload

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones (and the traced/untraced overhead); ``--workload all``
runs both for every workload. Each measurement runs in a fresh child
process (bench/worker.py) with BLAS thread pools pinned to one thread. A
table goes to stdout, details (machine, versions, per-op verdicts and
report.csv sha256) to .bench_out/, and the last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"
WORKER = BENCH_DIR / "worker.py"

SETUP_RUNS = 5
DEADLINE_S = 170.0  # per measurement: a run ends, or fails, within 3 minutes
# self times must account for the traced wall time within this share
ACCOUNTED_MIN = 0.95

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A child failed or overran; the run prints no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in THREAD_ENV:
        env[name] = "1"
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("measurement overran its deadline")
    return left


def time_setup(workload: str, seed: int, deadline: float) -> float:
    """Seconds from spawning a fresh interpreter until it is ready to run
    the first operation (imports, landscape, validate_config)."""
    cmd = [sys.executable, str(WORKER), "setup", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    try:
        ready, _, _ = select.select([proc.stdout], [], [], _remaining(deadline))
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"setup child did not get ready: {line!r}")
        proc.wait(timeout=_remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"setup child exited with {proc.returncode}")
    return elapsed


def run_worker(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    try:
        out, _ = proc.communicate(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("worker overran its deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    deadline = time.perf_counter() + DEADLINE_S
    setups = [time_setup(workload, seed, deadline) for _ in range(SETUP_RUNS)]
    run = run_worker(workload, seed, seconds, 0, deadline)
    lat = run["plain"]["latencies_s"]  # pass after pass, in op order
    n_ops = len(run["plain"]["ops"])
    # Each op's median over the passes: sweep_1d's latencies have two
    # clusters and its overall median falls in the gap between them.
    per_op = [statistics.median(lat[i::n_ops]) for i in range(n_ops)]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(run["plain"]["pass_wall_s"]),
        "op_s_p50": statistics.median(per_op),
        "op_s_p90": statistics.quantiles(per_op, n=10, method="inclusive")[8],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    run["setup_samples_s"] = setups
    return metrics, run


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    deadline = time.perf_counter() + DEADLINE_S
    run = run_worker(workload, seed, seconds, 1, deadline)
    layers = dict(run["layers"])
    accounted = layers.pop("trace.self_s_total") / statistics.mean(run["traced"]["pass_wall_s"])
    layers["trace.overhead_ratio"] = statistics.median(run["overhead_ratios"])
    layers["trace.accounted_frac"] = accounted
    tally = run["plain"]["tally"]
    layers["bench.failed_frac"] = (tally["raised"] + tally["mismatch"]) / tally["attempted"]
    layers["harness.rows_violated"] = tally["rows_violated"] / run["plain"]["passes"]
    layers["samplers.ess_per_s"] = tally["ess"] / tally["chain_s"] if tally["chain_s"] else 0.0
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    problems = []
    if not ACCOUNTED_MIN <= accounted <= 1.0 + 1e-6:
        problems.append(f"self times account for {accounted:.4f} of the traced wall time")
    return metrics, run, problems


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s/pass"
    if name.endswith("bytes_computed"):
        return "B/pass"
    if ".us_per_step." in name:
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_frac", ".acceptance")):
        return "ratio"
    return "count/pass"


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        metrics, run, problems = per_layer(workload, seed, seconds)
    else:
        (metrics, run), problems = end_to_end(workload, seed, seconds), []
    parts = [run["plain"], run["traced"]] if trace else [run["plain"]]
    for part in parts:
        problems += part["problems"]
    failed = sum(part["tally"]["mismatch"] for part in parts)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": sum(part["tally"]["attempted"] for part in parts),
        "failed": failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "run": run}, fh, indent=1)
    print_table(workload, seed, trace, result, run, problems)
    return result


def print_table(workload, seed, trace, result, run, problems) -> None:
    passes = f"plain passes={run['plain']['passes']}"
    if trace:
        passes += f", traced passes={run['traced']['passes']}"
    print(f"== {workload}  seed={seed}  {'per-layer' if trace else 'end-to-end'}  {passes}  "
          f"ops={result['attempted']}  failed={result['failed']}  correct={result['correct']}")
    machine, versions = run["machine"], run["versions"]
    print(f"   {machine['cpu']}, nproc={machine['nproc']}; python {versions['python']}, "
          f"numpy {versions['numpy']}, scipy {versions['scipy']}")
    for name, metric in result["metrics"].items():
        print(f"   {name:52s} {metric['value']:>14.6g} {metric['unit']}")
    for op in run["plain"]["ops"]:
        if op["verdict"] != "ok" or op.get("rows_violated"):
            error = op.get("error") or {}
            note = f"{error['class']} {error['suggested_nodes']}" if error else ""
            if op.get("rows_violated"):
                note += "violated: " + " ".join(op["rows_violated"])
            print(f"   [{op['verdict']}] {op['id']}  {note}")
    for problem in problems[:20]:
        print(f"   PROBLEM {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "gibbslab" / "__init__.py").is_file():
        print("bench: no ./src/gibbslab here; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds, args.trace)
        else:
            result = {
                name: {f"trace{t}": measure(name, args.seed, args.seconds, t) for t in (0, 1)}
                for name in workloads.WORKLOADS
            }
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
