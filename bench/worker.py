"""Child process of the benchmark: runs one workload in a fresh interpreter.

run.py starts it from the checkout root, with ``src`` on PYTHONPATH and BLAS
thread pools pinned to one thread:

    python3 bench/worker.py setup --workload W --seed S
    python3 bench/worker.py run --workload W --seed S --seconds T --trace 0|1

``setup`` imports the library, validates the first operation's config and
prints ``ready``; the parent times it from process start. ``run`` executes
whole passes over the operation list, one operation after another, until T
seconds have gone by (exactly one pass when T is 0), checks every output
against the reference, and prints one JSON line. With ``--trace 1`` every
untraced pass is followed by a traced one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import gate
import tracing
import workloads
from ess import effective_sample_size

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"


def import_library():
    """Import gibbslab, refusing any copy other than the checkout's ./src."""
    import gibbslab

    package_dir = Path(gibbslab.__file__).resolve().parent
    if package_dir != (ROOT / "src" / "gibbslab").resolve():
        raise SystemExit(f"gibbslab imported from {package_dir}, not from ./src")
    from gibbslab import harness, landscapes, samplers

    return harness, landscapes, samplers


def setup_main(args) -> None:
    harness, _, _ = import_library()
    ops = workloads.operations(args.workload, args.seed)
    first = next(op for op in ops if op["kind"] == "harness")
    harness.validate_config(first["config"])
    print("ready", flush=True)


def prepare_chains(ops, landscapes, samplers, tracer):
    """Landscape, target and step size of each chain op, built untimed."""
    prepared = {}
    for op in ops:
        if op["kind"] != "chain":
            continue
        land = landscapes.make_landscape(op["landscape"]["name"], **op["landscape"]["params"])
        sampled = tracer.count_risk(land) if tracer else land
        target = samplers.target_from_landscape(sampled, 0.0)
        step = op["step_size"] or samplers.default_step_size(target, op["gamma"])
        prepared[op["id"]] = (land, target, step)
    return prepared


def run_op(op, harness, samplers, prepared, out_dir: Path):
    if op["kind"] == "harness":
        cfg = harness.validate_config(op["config"])
        return harness.run_experiment(cfg, out_dir=out_dir, workers=1)
    _, target, step = prepared[op["id"]]
    return samplers.sample_chain(
        op["sampler"], target, op["gamma"], step, op["steps"], op["burn_in"],
        op["master_seed"], op["chain_id"],
    )


def _plain(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if value is None or isinstance(value, str):
        return value
    return float(value)


def summarise(op, output, error, latency, prepared) -> dict:
    """Everything the gate and the report need from one executed op."""
    result = {"id": op["id"], "latency_s": latency, "error": error}
    if output is None:
        return result
    if op["kind"] == "harness":
        result["rows"] = [
            {k: _plain(row[k]) for k in
             ("theorem", "key", "bound_total", "oracle_value", "stat_allowance", "passed")}
            for row in output.rows
        ]
        csv = Path(output.run_dir) / "report.csv"
        result["sha256"] = hashlib.sha256(csv.read_bytes()).hexdigest()
    else:
        land = prepared[op["id"]][0]
        f = land.risk(output.samples)
        result["chain"] = {
            "mean_f": float(f.mean()),
            "sd_f": float(f.std(ddof=1)),
            "ess": effective_sample_size(f),
            "acceptance": output.acceptance_rate,
        }
    return result


def _op_report(res: dict) -> dict:
    """What the run's report keeps of one op of the first pass."""
    report = {"id": res["id"], "verdict": res["verdict"], "problems": res["problems"]}
    if res["error"] is not None:
        report["error"] = dict(res["error"])
        if res["verdict"] != gate.MISMATCH:
            del report["error"]["traceback"]
    if "rows" in res:
        report["sha256"] = res["sha256"]
        report["rows_violated"] = [
            f"{r['theorem']}|{r['key']}" for r in res["rows"] if r["passed"] is False
        ]
    if "chain" in res:
        report["chain"] = res["chain"]
    return report


def error_record(exc: Exception) -> dict:
    nodes = getattr(exc, "suggested_nodes", None)
    return {
        "class": type(exc).__name__,
        "message": str(exc)[:500],
        "suggested_nodes": list(nodes) if nodes is not None else None,
        "traceback": traceback.format_exc(limit=8),
    }


class Passes:
    """Latencies, verdicts and tallies of the passes of one kind (plain or
    traced) in this process."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.first: list[dict] = []
        self.problems: list[str] = []
        self.shas: dict[str, set] = {}
        self.tally = {"attempted": 0, "mismatch": 0, "raised": 0, "rows_violated": 0,
                      "ess": 0.0, "chain_s": 0.0}

    def record(self, wall: float, results: list[dict]) -> None:
        tally = self.tally
        self.walls.append(wall)
        for res in results:
            ref = self.reference.get(res["id"])
            if ref is None:
                verdict, found = gate.MISMATCH, ["no reference stored"]
            else:
                verdict, found = gate.judge(res, ref)
            res["verdict"], res["problems"] = verdict, found
            self.latencies.append(res["latency_s"])
            tally["attempted"] += 1
            tally["mismatch"] += verdict == gate.MISMATCH
            tally["raised"] += res["error"] is not None
            tally["rows_violated"] += sum(r["passed"] is False for r in res.get("rows", ()))
            if "chain" in res:
                tally["ess"] += res["chain"]["ess"]
                tally["chain_s"] += res["latency_s"]
            if "sha256" in res:
                self.shas.setdefault(res["id"], set()).add(res["sha256"])
            self.problems += [f"{res['id']}: {p}" for p in found]
        if not self.first:
            self.first = results

    def report(self) -> dict:
        for op_id, digests in self.shas.items():
            if len(digests) > 1:
                self.tally["mismatch"] += 1
                self.problems.append(f"{op_id}: report.csv differs between passes")
        return {
            "passes": len(self.walls),
            "pass_wall_s": self.walls,
            "latencies_s": self.latencies,
            "tally": self.tally,
            "problems": self.problems[:50],
            "ops": [_op_report(res) for res in self.first],
        }


def run_pass(ops, harness, samplers, prepared, tracer, pass_id: int):
    """One closed-loop pass: each op starts when the previous one ends.
    Returns (wall seconds, summarised results); outputs go to a scratch
    directory that is deleted before returning."""
    scratch = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        outputs = []
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            start = time.perf_counter()
            try:
                if tracer:
                    tracer.op = pass_id * len(ops) + i
                    output = tracer.call(
                        tracing.OP_SPAN, run_op, op, harness, samplers, prepared,
                        scratch / str(i),
                    )
                else:
                    output = run_op(op, harness, samplers, prepared, scratch / str(i))
                error = None
            except Exception as exc:  # recorded and judged, never fatal
                output, error = None, error_record(exc)
            outputs.append((op, output, error, time.perf_counter() - start))
        wall = time.perf_counter() - pass_start
        results = [summarise(op, out, err, lat, prepared) for op, out, err, lat in outputs]
    finally:
        shutil.rmtree(scratch)
    return wall, results


def run_main(args) -> None:
    harness, landscapes, samplers = import_library()
    ops = workloads.operations(args.workload, args.seed)
    reference = gate.load_reference(args.workload)
    tracer = tracing.Tracer() if args.trace else None
    plain_chains = prepare_chains(ops, landscapes, samplers, None)
    counted_chains = prepare_chains(ops, landscapes, samplers, tracer) if tracer else None
    OUT_DIR.mkdir(exist_ok=True)

    # warm-up: lazy imports and first-call set-up stay out of the timing
    run_pass(ops[:1], harness, samplers, plain_chains, None, -1)

    # With tracing, plain and traced passes alternate so that each overhead
    # ratio compares two passes made moments apart on the same machine.
    plain, traced = Passes(reference), Passes(reference)
    loop_start = time.perf_counter()
    while True:
        plain.record(*run_pass(ops, harness, samplers, plain_chains, None, -1))
        if tracer:
            sites = tracing.install(tracer)
            try:
                traced.record(*run_pass(
                    ops, harness, samplers, counted_chains, tracer, len(traced.walls)
                ))
            finally:
                tracing.uninstall(sites)
        if time.perf_counter() - loop_start >= args.seconds:
            break

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "plain": plain.report(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                    "platform": platform.platform()},
    }
    if tracer:
        out["traced"] = traced.report()
        out["layers"] = tracing.layer_metrics(tracer, len(traced.walls))
        out["overhead_ratios"] = [t / p for t, p in zip(traced.walls, plain.walls)]
        out["patched"] = [f"{module.__name__}.{attr}" for module, attr, _ in sites]
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": tracer.spans}, fh)
        out["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(out, allow_nan=True))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.mode == "setup":
        setup_main(args)
    else:
        run_main(args)


if __name__ == "__main__":
    main()
