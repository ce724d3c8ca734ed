"""Spans and counts recorded from outside the library.

Each traced function is replaced, in every module that looks it up by name,
by a wrapper that appends a span ``[name, start_ns, end_ns, parent, op]``
to an in-memory list. Spans are written out and turned into self times only
after the measured passes end. Counters are bumped by small hooks at the
same boundaries. The library itself is never edited.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import time
from collections import Counter

# span name -> modules (under gibbslab) whose global of that name is a call
# site. The span name's first part is the module that defines the function.
TRACED = {
    "harness.validate_config": ("harness",),
    "harness.run_experiment": ("harness",),
    "landscapes.enumerate_minima": ("harness", "landscapes"),
    "landscapes.lipschitz_estimate": ("landscapes",),
    "specfun.regularized_gamma_P": ("bounds", "specfun"),
    "bounds.taylor_approximation_error": ("bounds",),
    "bounds.generalization_bound": ("bounds",),
    "bounds.local_excess_bound": ("bounds",),
    "bounds.global_excess_bound": ("bounds",),
    "bounds.pseudo_excess_bound": ("bounds",),
    "bounds.minima_distribution": ("bounds",),
    "bounds.ellipsoid_mass_bounds": ("bounds",),
    "bounds.complement_mass_bound": ("bounds",),
    "oracles.quadrature_measure": ("harness", "oracles"),
    "oracles.tensor_gauss_legendre": ("harness", "oracles"),
    "oracles.empirical_generalization_gap": ("harness", "oracles"),
    "samplers.target_from_sample": ("oracles", "samplers"),
    "samplers.sample_chain": ("oracles", "samplers"),
    "samplers.default_step_size": ("oracles", "samplers"),
}

OP_SPAN = "bench.op"
CHAIN_KINDS = ("metropolis", "sgld", "exact_gaussian")


class Tracer:
    """In-memory span list plus counters for one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        record = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(record)

    def wrap(self, name: str, fn, after=None, on_error=None):
        """Traced stand-in for ``fn``; ``after(tracer, result, record)`` and
        ``on_error(tracer, exc)`` run once the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(record)
                if on_error is not None:
                    on_error(self, exc)
                raise
            self._close(record)
            if after is not None:
                after(self, result, record)
            return result

        return traced

    def count_risk(self, landscape):
        """Copy of ``landscape`` whose ``risk`` counts the points it receives."""
        import numpy as np

        risk = landscape.risk

        def counted(w):
            self.counts["landscapes.risk.points"] += math.prod(np.shape(w)[:-1])
            return risk(w)

        return dataclasses.replace(landscape, risk=counted)


def self_times(spans) -> dict[str, list[int]]:
    """name -> [calls, self_ns]; self time is a span's duration minus the
    durations of its direct children (which nest inside it and do not
    overlap, since one thread makes every call)."""
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, list[int]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += end - start - child_ns[i]
    return totals


def _after_grid(tracer: Tracer, grid, record) -> None:
    n, d = grid.nodes.shape
    tracer.counts["oracles.grid.nodes"] += n
    tracer.counts["oracles.grid.bytes_computed"] += n * (d + 1) * 8


def _on_quadrature_error(tracer: Tracer, exc: Exception) -> None:
    if type(exc).__name__ == "ResolutionError":
        tracer.counts["oracles.resolution_errors"] += 1


def _after_chain(tracer: Tracer, batch, record) -> None:
    tracer.counts["samplers.sample_chain.steps"] += batch.steps
    tracer.counts[f"chain_steps.{batch.kind}"] += batch.steps
    tracer.counts[f"chain_ns.{batch.kind}"] += record[2] - record[1]
    if batch.acceptance_rate is not None:
        tracer.counts["metropolis.accepted"] += round(batch.acceptance_rate * batch.steps)
        tracer.counts["metropolis.proposed"] += batch.steps


def _after_run(tracer: Tracer, result, record) -> None:
    tracer.counts["harness.rows"] += len(result.rows)


HOOKS = {
    "oracles.tensor_gauss_legendre": {"after": _after_grid},
    "oracles.quadrature_measure": {"on_error": _on_quadrature_error},
    "samplers.sample_chain": {"after": _after_chain},
    "harness.run_experiment": {"after": _after_run},
}


def install(tracer: Tracer) -> list[tuple]:
    """Patch every call site in TRACED; returns (module, name, original)
    for each site patched, for ``uninstall``.

    A site whose global is missing or is another object is left alone, so
    a library that drops an import loses only that site's spans.
    """
    sites = []
    for name, modules in TRACED.items():
        home, fn_name = name.split(".")
        original = getattr(importlib.import_module(f"gibbslab.{home}"), fn_name, None)
        if original is None:
            continue
        wrapper = tracer.wrap(name, original, **HOOKS.get(name, {}))
        for site in modules:
            module = importlib.import_module(f"gibbslab.{site}")
            if getattr(module, fn_name, None) is original:
                sites.append((module, fn_name, original))
                setattr(module, fn_name, wrapper)

    harness = importlib.import_module("gibbslab.harness")
    make_landscape = harness.make_landscape
    make_data_model = harness.make_data_model

    def counted_landscape(*args, **kwargs):
        return tracer.count_risk(make_landscape(*args, **kwargs))

    def counted_data_model(*args, **kwargs):
        model = make_data_model(*args, **kwargs)
        return dataclasses.replace(model, landscape=tracer.count_risk(model.landscape))

    sites.append((harness, "make_landscape", make_landscape))
    sites.append((harness, "make_data_model", make_data_model))
    harness.make_landscape = counted_landscape
    harness.make_data_model = counted_data_model
    return sites


def uninstall(sites: list[tuple]) -> None:
    for module, name, original in reversed(sites):
        setattr(module, name, original)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass calls and self seconds of every traced function, plus the
    counters, named as in BENCHMARK.json's per_layer list."""
    totals = self_times(tracer.spans)
    out: dict[str, float] = {}
    for name in TRACED:
        calls, self_ns = totals.get(name, (0, 0))
        out[f"{name}.calls"] = calls / passes
        out[f"{name}.self_s"] = self_ns / 1e9 / passes
    counts = tracer.counts
    for key in (
        "landscapes.risk.points",
        "oracles.grid.nodes",
        "oracles.grid.bytes_computed",
        "oracles.resolution_errors",
        "samplers.sample_chain.steps",
        "harness.rows",
    ):
        out[key] = counts[key] / passes
    for kind in CHAIN_KINDS:
        steps = counts[f"chain_steps.{kind}"]
        out[f"samplers.sample_chain.us_per_step.{kind}"] = (
            counts[f"chain_ns.{kind}"] / 1e3 / steps if steps else 0.0
        )
    proposed = counts["metropolis.proposed"]
    out["samplers.metropolis.acceptance"] = (
        counts["metropolis.accepted"] / proposed if proposed else 0.0
    )
    out["trace.self_s_total"] = sum(v[1] for v in totals.values()) / 1e9 / passes
    return out
