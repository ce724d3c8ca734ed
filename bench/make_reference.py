"""Regenerate bench/reference.json, the correctness gate's stored outputs.

Run from the repository root:

    PYTHONPATH=src python3 bench/make_reference.py

Quadrature-backed rows are stored as computed at the default workload seed
(their values do not depend on the seed). Monte-Carlo quantities get
references the runs cannot share: E[f] and sd(f) for each chain by
whole-box quadrature, and each generalization oracle from 20× the trials of the
benchmarked op under an unrelated master seed. Regenerate only in a change
that deliberately alters the lab's outputs, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from pathlib import Path

import gate
import worker
import workloads

REFERENCE_SEED = 1
TRIALS_FACTOR = 20


def _chain_reference(op, landscapes, oracles) -> dict:
    land = landscapes.make_landscape(op["landscape"]["name"], **op["landscape"]["params"])
    nodes = 2000 if land.dimension == 1 else 400
    grid = oracles.tensor_gauss_legendre(land.domain_box, nodes)
    measure = oracles.quadrature_measure(
        lambda w: land.reg_risk(w, 0.0), op["gamma"], grid,
        integrands={"f": land.risk, "f2": lambda w: land.risk(w) ** 2},
    )
    mean, second = measure.conditional["f"], measure.conditional["f2"]
    return {"mean_f": mean, "sd_f": math.sqrt(second - mean * mean),
            "method": f"quadrature {nodes}/dim"}


def _generalization_reference(op, harness, landscapes, oracles) -> dict:
    cfg = harness.validate_config(op["config"])
    model = landscapes.make_data_model(cfg.landscape_name, **cfg.landscape_params)
    (gamma,), (ridge,), (m,) = cfg.gammas, cfg.ridges, cfg.ms
    estimate = oracles.empirical_generalization_gap(
        model, gamma, ridge, m,
        trials=TRIALS_FACTOR * int(cfg.oracle["mc_trials"]),
        master_seed=REFERENCE_SEED,
        steps=int(cfg.sampler["steps"]),
    )
    return {"value": estimate.value, "se": estimate.std_error}


def main() -> None:
    harness, landscapes, samplers = worker.import_library()
    from gibbslab import oracles

    out = {
        "about": __doc__.splitlines()[0],
        "seed": workloads.DEFAULT_SEED,
        "tolerance": {"rtol": gate.RTOL, "atol": gate.ATOL, "z_max": gate.Z_MAX},
        "known_failures": [],
        "known_violations": [],
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        ops = workloads.operations(name, workloads.DEFAULT_SEED)
        prepared = worker.prepare_chains(ops, landscapes, samplers, None)
        refs = {}
        scratch = tempfile.mkdtemp(dir=worker.ROOT)
        try:
            for i, op in enumerate(ops):
                if op["kind"] == "chain":
                    refs[op["id"]] = _chain_reference(op, landscapes, oracles)
                    continue
                try:
                    output = worker.run_op(
                        op, harness, samplers, prepared, Path(scratch) / str(i)
                    )
                except Exception as exc:
                    error = worker.error_record(exc)
                    refs[op["id"]] = {"error": error["class"],
                                      "suggested_nodes": error["suggested_nodes"]}
                    out["known_failures"].append(
                        {"workload": name, "op": op["id"], **refs[op["id"]],
                         "message": error["message"]}
                    )
                    continue
                result = worker.summarise(op, output, None, 0.0, prepared)
                rows = {}
                for row in result["rows"]:
                    key = gate.row_key(row)
                    rows[key] = {k: row[k] for k in ("bound_total", "oracle_value", "passed")}
                    if row["passed"] is False:
                        out["known_violations"].append(
                            {"workload": name, "op": op["id"], "row": key}
                        )
                if "generalization" in op["config"]["theorems"]:
                    ref = _generalization_reference(op, harness, landscapes, oracles)
                    for row in rows.values():
                        row["oracle_value"], row["oracle_se"] = ref["value"], ref["se"]
                refs[op["id"]] = {"rows": rows}
        finally:
            shutil.rmtree(scratch)
        out["workloads"][name] = refs
        print(f"{name}: {len(refs)} ops", flush=True)

    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=False)
        fh.write("\n")


if __name__ == "__main__":
    main()
