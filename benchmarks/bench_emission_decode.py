"""Micro-benchmark for the per-emission decode of ``MiningSession.stream``.

The kernels yield each clique as a tuple of vertex indices.
:meth:`MiningSession.stream` (and so every ``iter_*`` caller and every
shard run of the process pool) turns each one into a frozenset of labels
through :meth:`CompiledGraph.decode`; the session's and the job
pipeline's column blocks map labels in bulk, once per block, and build
records only for readers that ask.  The naive spelling of the decode —
``frozenset(labels[i] for i in indices)`` — allocates a generator frame
per emission; the committed form —
``frozenset(map(labels.__getitem__, indices))`` — does not.  On small-α
streams of hundreds of thousands of cliques the per-emission constant is
the difference, so this benchmark pins it: both spellings are timed over
the real emission workload of a Figure 1 cell (every clique MULE emits on
ca-GrQc at α = 0.0005, as the kernel yields it) and must agree exactly.

The assertion is deliberately loose (``map`` must not be *slower* beyond
noise) — the point is a recorded measurement, not a flaky gate.
"""

from __future__ import annotations

import time

from repro.core.engine import compile_graph
from repro.core.engine.kernel import run_search
from repro.core.engine.strategies import MuleStrategy

#: Passes over the workload per timed spelling; best-of is reported.
_REPS = 5

#: The emission workload replays this many decode calls per pass.
_MIN_CALLS = 50_000


def _emission_workload(dataset):
    """The index tuples the kernel yields on one Figure 1 cell."""
    graph = dataset("ca-grqc")
    alpha = 0.0005
    compiled = compile_graph(graph, alpha=alpha)
    cliques = [indices for indices, _ in run_search(compiled, alpha, MuleStrategy())]
    assert cliques, "workload cell emitted nothing; raise the scale"
    # Replay the emission stream until the call count drowns timer noise.
    workload = list(cliques)
    while len(workload) < _MIN_CALLS:
        workload.extend(cliques)
    return compiled, workload


def _best_of(func, workload, reps: int = _REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        for indices in workload:
            func(indices)
        best = min(best, time.perf_counter() - start)
    return best


def bench_emission_decode(dataset, run_once, record_rows):
    """Time ``decode`` (bound ``map``) against the generator-expression form."""
    compiled, workload = _emission_workload(dataset)
    labels = compiled.labels

    def naive(indices):
        return frozenset(labels[i] for i in indices)

    assert all(
        compiled.decode(indices) == naive(indices) for indices in workload[:100]
    )

    timings = {}

    def run_both():
        timings["map"] = _best_of(compiled.decode, workload)
        timings["genexpr"] = _best_of(naive, workload)

    run_once(run_both)

    calls = len(workload)
    ratio = timings["genexpr"] / max(timings["map"], 1e-12)
    record_rows(
        "Emission decode",
        "per-emission index->label decode, bound map vs generator expression",
        [
            {
                "spelling": "map(labels.__getitem__, ...)",
                "calls": calls,
                "seconds": round(timings["map"], 4),
                "ns_per_call": round(timings["map"] / calls * 1e9, 1),
            },
            {
                "spelling": "frozenset(genexpr)",
                "calls": calls,
                "seconds": round(timings["genexpr"], 4),
                "ns_per_call": round(timings["genexpr"] / calls * 1e9, 1),
            },
        ],
        columns=["spelling", "calls", "seconds", "ns_per_call"],
    )
    # The bound-map spelling must not lose; 0.9 leaves room for timer noise
    # on loaded runners while still catching a real regression.
    assert ratio >= 0.9, f"decode is slower than the naive spelling ({ratio:.2f}x)"
