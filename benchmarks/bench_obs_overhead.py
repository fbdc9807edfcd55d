"""Observability overhead — metrics enabled vs disabled on the Figure 1 grid.

The instrumentation contract (`docs/observability.md`) is that metrics
*observe* the pipeline without perturbing it: enumeration output is
bit-identical with the registry on or off, and the wall-time cost of the
instrument branches is small.  This benchmark makes both claims
measurable: it runs each cell of the Figure 1 MULE grid through the full
session layer (cache lookups, engine counter fold-in — the instrumented
hot path) in enabled/disabled pairs, with the global registry and tracer
switched on and off (the same switch ``REPRO_DISABLE_METRICS=1`` throws
at process start), asserts per-cell output identity, and writes a
machine-readable summary to ``BENCH_obs.json`` at the repository root:
per-cell wall times, the per-cell geometric-mean overhead ratio,
dataset scale/seed.

Setting ``REPRO_BENCH_ASSERT_OBS_OVERHEAD`` turns the geomean ratio into
a hard assertion (bar: 1.05, or ``REPRO_BENCH_OBS_OVERHEAD_MAX``) — what
the CI observability job runs.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

from repro.api import EnumerationRequest, MiningSession
from repro.obs import registry as obs_registry
from repro.obs import tracer as obs_tracer

#: The Figure 1 grid (same cells as bench_fig1_mule_vs_dfsnoip).
FIGURE1_ALPHAS = [0.9, 0.8, 0.0005, 0.0001]
FIGURE1_GRAPHS = ["wiki-vote", "ba5000", "ca-grqc", "ppi"]


def _interleaved(run, reps: int, instrument):
    """Best wall time and last outcome per side over ``reps`` pairs.

    Each pair runs the enabled and the disabled side back to back,
    alternating which goes first, so a slow stretch of the machine lands
    on both sides alike instead of on whichever side ran during it.
    Returns ``{enabled: (seconds, outcome)}``.
    """
    best = {True: (math.inf, None), False: (math.inf, None)}
    for rep in range(reps):
        for enabled in (True, False) if rep % 2 == 0 else (False, True):
            instrument(enabled)
            start = time.perf_counter()
            outcome = run()
            elapsed = time.perf_counter() - start
            best[enabled] = (min(best[enabled][0], elapsed), outcome)
    return best


def bench_obs_overhead(dataset, run_once, record_rows, bench_scale, bench_seed):
    """Enabled-vs-disabled wall time per Figure 1 cell, output identity asserted.

    Each cell builds a fresh :class:`MiningSession` per run so every run
    pays the same compile + cache work; the enabled/disabled pair differ
    only in the instrument branches.  Each side's wall time is its
    minimum over N interleaved pairs (``REPRO_BENCH_OBS_REPS``, default
    9) — enumeration is deterministic, so the minimum is the least-noisy
    estimator, and interleaving keeps machine drift off the ratio.
    """
    reps = int(os.environ.get("REPRO_BENCH_OBS_REPS", "9"))
    registry = obs_registry()
    tracer = obs_tracer()
    cells = []

    def instrument(enabled):
        registry.set_enabled(enabled)
        tracer.set_enabled(enabled)

    def run_grid():
        for graph_name in FIGURE1_GRAPHS:
            graph = dataset(graph_name)
            for alpha in FIGURE1_ALPHAS:
                request = EnumerationRequest(algorithm="mule", alpha=alpha)

                def run():
                    return MiningSession(graph).enumerate(request)

                try:
                    best = _interleaved(run, reps, instrument)
                finally:
                    instrument(True)
                enabled_s, enabled_outcome = best[True]
                disabled_s, disabled_outcome = best[False]
                disabled_outcome.assert_matches(enabled_outcome)
                cells.append(
                    {
                        "graph": graph_name,
                        "alpha": alpha,
                        "num_cliques": enabled_outcome.num_cliques,
                        "enabled_seconds": enabled_s,
                        "disabled_seconds": disabled_s,
                        "overhead": enabled_s / max(disabled_s, 1e-12),
                    }
                )

    run_once(run_grid)

    enabled_total = sum(c["enabled_seconds"] for c in cells)
    disabled_total = sum(c["disabled_seconds"] for c in cells)
    geomean = math.exp(sum(math.log(c["overhead"]) for c in cells) / len(cells))
    summary = {
        "benchmark": "obs-overhead",
        "datasets": FIGURE1_GRAPHS,
        "alphas": FIGURE1_ALPHAS,
        "scale": bench_scale,
        "seed": bench_seed,
        "reps": reps,
        "cells": [
            {
                **c,
                "enabled_seconds": round(c["enabled_seconds"], 6),
                "disabled_seconds": round(c["disabled_seconds"], 6),
                "overhead": round(c["overhead"], 4),
            }
            for c in cells
        ],
        "enabled_total_seconds": round(enabled_total, 6),
        "disabled_total_seconds": round(disabled_total, 6),
        "overall_overhead": round(enabled_total / max(disabled_total, 1e-12), 4),
        "geomean_overhead": round(geomean, 4),
        "parity": True,
    }
    output = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
    output.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")

    record_rows(
        "Observability overhead",
        "metrics enabled vs disabled wall time (seconds) per Figure 1 cell",
        [
            {
                "graph": c["graph"],
                "alpha": c["alpha"],
                "enabled_s": round(c["enabled_seconds"], 4),
                "disabled_s": round(c["disabled_seconds"], 4),
                "overhead": round(c["overhead"], 3),
            }
            for c in cells
        ],
        columns=["graph", "alpha", "enabled_s", "disabled_s", "overhead"],
    )

    # The bar binds only on explicit opt-in (the CI observability job):
    # busy machines measure scheduler noise, not instrument branches.
    if os.environ.get("REPRO_BENCH_ASSERT_OBS_OVERHEAD"):
        bar = float(os.environ.get("REPRO_BENCH_OBS_OVERHEAD_MAX", "1.05"))
        assert geomean <= bar, (
            f"metrics overhead geomean {geomean:.3f}x exceeds the {bar:.2f}x "
            "bar (cells: "
            + ", ".join(
                f"{c['graph']}/{c['alpha']}={c['overhead']:.3f}x" for c in cells
            )
            + ")"
        )
