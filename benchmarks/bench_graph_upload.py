"""The cold path of a fresh graph, stage by stage, in both upload forms.

A distributed run on a graph the fleet has never seen pays, before any
search: the coordinator's compile (to plan shards), the upload's encode,
and on each worker the decode, the fingerprint (the store key) and the
compile.  This benchmark times each of those stages on the graph family
of perfbench's ``fleet-churn`` workload (wiki-vote analogs at one scale,
one seed per graph, compiled at α = 0.8), with the upload carried as a
``graph`` envelope (JSON edge triples) and as a packed ``graph-columns``
envelope (what ``RemoteStore.add`` and ``DistributedSession`` send).

Each repeat times every graph in both forms, alternating which form goes
first, so a slow stretch of the machine lands on both alike.  Each stage
is reported per graph as the median and quartiles over every (repeat,
graph) sample.  Both forms must decode to a graph ``==`` to the upload,
with the same fingerprint and the same compiled artifact; that parity is
asserted, the timings are only recorded (``BENCH_upload.json`` at the
repository root).

The one knob is the suite's ``REPRO_BENCH_SCALE`` (dataset scale,
default 0.05); the graph and repeat counts are the constants below.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path

from repro.core.engine.compiled import CompiledGraph, compile_graph
from repro.datasets import load_dataset
from repro.service import codec

#: fleet-churn's graphs: one wiki-vote analog per seed, searched at this α.
DATASET = "wiki-vote"
ALPHA = 0.8
#: One graph per seed ``1..GRAPHS``, each timed ``REPS`` times per form.
GRAPHS = 8
REPS = 9

FORMS = {"graph": False, "graph-columns": True}
STAGES = (
    "coordinator_compile",
    "encode",
    "worker_decode",
    "fingerprint",
    "worker_compile",
)


def _artifact(compiled: CompiledGraph) -> tuple:
    return (
        compiled.labels,
        compiled.labels_sorted,
        compiled.index_of,
        compiled.adjacency_mask,
        compiled.adjacency_probability,
    )


def _cold_path(graph, columns: bool) -> dict:
    """One graph through every stage; returns each stage's seconds and result."""
    times = {}
    start = time.perf_counter()
    planned = compile_graph(graph, alpha=ALPHA)
    times["coordinator_compile"] = time.perf_counter() - start

    start = time.perf_counter()
    body = codec.encode(codec.upload_to_wire(codec.GraphUpload(graph=graph), columns=columns))
    times["encode"] = time.perf_counter() - start

    start = time.perf_counter()
    decoded = codec.upload_from_wire(codec.decode(body)).graph
    times["worker_decode"] = time.perf_counter() - start

    start = time.perf_counter()
    fingerprint = decoded.fingerprint()
    times["fingerprint"] = time.perf_counter() - start

    start = time.perf_counter()
    compiled = compile_graph(decoded, alpha=ALPHA)
    times["worker_compile"] = time.perf_counter() - start
    return {
        "times": times,
        "bytes": len(body),
        "decoded": decoded,
        "fingerprint": fingerprint,
        "artifacts": (_artifact(planned), _artifact(compiled)),
    }


def _summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median_ms": round(median * 1e3, 3),
        "q1_ms": round(q1 * 1e3, 3),
        "q3_ms": round(q3 * 1e3, 3),
    }


def bench_graph_upload(run_once, record_rows, bench_scale):
    """Per-stage cold-path time per graph, rows vs packed, parity asserted."""
    seeds = list(range(1, GRAPHS + 1))
    graphs = [load_dataset(DATASET, scale=bench_scale, seed=seed) for seed in seeds]
    expected = [graph.fingerprint() for graph in graphs]
    samples = {form: {stage: [] for stage in (*STAGES, "total")} for form in FORMS}
    body_bytes = {form: [] for form in FORMS}

    def run_all():
        for rep in range(REPS):
            order = list(FORMS) if rep % 2 == 0 else list(reversed(FORMS))
            for index, graph in enumerate(graphs):
                runs = {form: _cold_path(graph, FORMS[form]) for form in order}
                for form, run in runs.items():
                    assert run["decoded"] == graph
                    assert run["fingerprint"] == expected[index]
                    planned, compiled = run["artifacts"]
                    assert compiled == planned
                    for stage, seconds in run["times"].items():
                        samples[form][stage].append(seconds)
                    samples[form]["total"].append(sum(run["times"].values()))
                    if rep == 0:
                        body_bytes[form].append(run["bytes"])
                rows, packed = (runs[form] for form in FORMS)
                assert rows["artifacts"] == packed["artifacts"]

    run_once(run_all)

    stages = {
        stage: {form: _summary(samples[form][stage]) for form in FORMS}
        for stage in (*STAGES, "total")
    }
    summary = {
        "benchmark": "graph-upload",
        "workload": f"{DATASET} analogs (fleet-churn's graph family), alpha={ALPHA}",
        "scale": bench_scale,
        "seeds": seeds,
        "reps": REPS,
        "samples_per_stage": REPS * GRAPHS,
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "vertices": [graph.num_vertices for graph in graphs],
        "edges": [graph.num_edges for graph in graphs],
        "body_bytes_median": {
            form: statistics.median(values) for form, values in body_bytes.items()
        },
        "stages_ms_per_graph": stages,
        "total_ratio_columns_to_rows": round(
            stages["total"]["graph-columns"]["median_ms"]
            / max(stages["total"]["graph"]["median_ms"], 1e-9),
            4,
        ),
        "parity": True,
    }
    output = Path(__file__).resolve().parent.parent / "BENCH_upload.json"
    output.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")

    record_rows(
        "Graph upload cold path",
        f"ms per graph (median [q1, q3]), {DATASET} analogs at scale {bench_scale:g}",
        [
            {
                "stage": stage,
                **{
                    form: "{median_ms} [{q1_ms}, {q3_ms}]".format(**stages[stage][form])
                    for form in FORMS
                },
            }
            for stage in (*STAGES, "total")
        ],
        columns=["stage", *FORMS],
    )
