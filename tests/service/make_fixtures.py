"""Regenerate the golden wire-format corpus under ``fixtures/``.

The fixtures pin the wire schema: ``test_fixtures.py`` asserts every file
re-encodes byte-for-byte through the codec, so **any** change to envelope
shape, field names, canonical encoding or float formatting shows up as a
fixture diff in review.  Regenerate deliberately (after a schema-version
bump) with::

    PYTHONPATH=src python tests/service/make_fixtures.py

Everything here is deterministic: the outcomes come from seeded searches
on fixed graphs and their ``elapsed_seconds`` are frozen to exact binary
fractions before encoding.
"""

from __future__ import annotations

import math
from pathlib import Path

from repro.api import EnumerationRequest, GraphInfo, MiningSession
from repro.core.engine import RunControls
from repro.core.result import CliqueRecord
from repro.errors import ParameterError
from repro.obs import MetricsRegistry
from repro.service import codec
from repro.uncertain.graph import UncertainGraph

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_graph() -> UncertainGraph:
    """The conftest triangle: a certain triangle plus a weak pendant edge."""
    return UncertainGraph(
        edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9), (3, 4, 0.4)]
    )


def frozen(outcome, elapsed: float = 0.015625):
    """Stamp a deterministic elapsed time so encodings are byte-stable."""
    outcome.elapsed_seconds = elapsed
    return outcome


def metrics_snapshot() -> dict:
    """A deterministic mini-registry: fixed counts, exact-binary timings.

    Built on a private registry (never the process-global seam) so the
    fixture bytes cannot depend on what else ran in the process; every
    observed value is an exact binary fraction, so the derived p50/p99
    interpolations are byte-stable too.
    """
    registry = MetricsRegistry(enabled=True)
    requests = registry.counter(
        "http_requests_total",
        "HTTP requests served.",
        labelnames=("endpoint", "status"),
    )
    requests.labels(endpoint="/v1/stats", status="200").inc(3)
    requests.labels(endpoint="/v2/jobs", status="404").inc()
    registry.gauge(
        "sched_queue_depth", "Jobs submitted but not started.", read=lambda: {(): 2}
    )
    latency = registry.histogram(
        "http_request_seconds",
        "Per-endpoint request latency.",
        labelnames=("endpoint",),
        buckets=(0.0625, 0.25, 1.0),
    )
    for value in (0.03125, 0.125, 0.5):
        latency.labels(endpoint="/v1/stats").observe(value)
    return registry.snapshot()


def column_records() -> list[CliqueRecord]:
    """Records for the ``clique-columns`` fixtures.

    Mixed ``int``/``float``/``str`` labels, a size-1 record, and
    probabilities whose exact bits matter: 1.0, 0.1 (not a binary
    fraction), the smallest subnormal and the float just below 1/8.
    """
    return [
        CliqueRecord(vertices=frozenset({1, 2.5, "gene"}), probability=0.1),
        CliqueRecord(vertices=frozenset({"solo"}), probability=1.0),
        CliqueRecord(vertices=frozenset({3, 4}), probability=5e-324),
        CliqueRecord(
            vertices=frozenset({-7, "x"}), probability=math.nextafter(0.125, 0.0)
        ),
    ]


def mixed_label_graph() -> UncertainGraph:
    """Mixed labels, an isolated vertex and a non-terminating binary fraction."""
    return UncertainGraph(
        vertices=["isolated"],
        edges=[
            (1, 2, 0.9),
            (2, "gene", 1 / 3),
            (2.5, "gene", 0.0625),
        ],
    )


def build_payloads() -> dict[str, dict]:
    graph = fixture_graph()
    session = MiningSession(graph)

    mule_request = EnumerationRequest(algorithm="mule", alpha=0.5)
    top_k_request = EnumerationRequest(algorithm="top_k", alpha=0.5, k=2, min_size=2)

    mule_outcome = frozen(session.enumerate(mule_request))
    status_running = codec.JobStatus(
        id="job-000001",
        state="running",
        cliques_emitted=12,
        frames_expanded=40,
        elapsed_seconds=0.03125,
        records=12,
    )
    status_done = codec.JobStatus(
        id="job-000002",
        state="done",
        cliques_emitted=2,
        frames_expanded=9,
        elapsed_seconds=0.015625,
        records=2,
    )
    status_failed = codec.JobStatus(
        id="job-000003",
        state="failed",
        cliques_emitted=0,
        frames_expanded=0,
        elapsed_seconds=0.0078125,
        records=0,
        error=ParameterError("algorithm 'top_k' requires k"),
    )

    return {
        "request_mule_default": codec.to_wire(mule_request),
        "request_large_with_controls": codec.to_wire(
            EnumerationRequest(
                algorithm="large",
                alpha=0.25,
                size_threshold=3,
                controls=RunControls(
                    max_cliques=100,
                    time_budget_seconds=1.5,
                    check_every_frames=64,
                ),
            )
        ),
        "request_parallel_sharded": codec.to_wire(
            EnumerationRequest(
                algorithm="fast",
                alpha=0.5,
                workers=4,
                num_shards=8,
                backend="inline",
                execution="parallel",
            )
        ),
        "request_top_k_threshold_search": codec.to_wire(
            EnumerationRequest(
                algorithm="top_k", k=5, min_size=3, prune_edges=False
            )
        ),
        # A non-default kernel is an additive v2 request field: its
        # presence promotes the envelope to schema 2 (kernel="auto"
        # requests keep encoding to the frozen v1 bytes above).
        "request_vector_kernel": codec.to_wire(
            EnumerationRequest(algorithm="mule", alpha=0.5, kernel="vector")
        ),
        # root_shard is the second additive v2 request field — the
        # distributed coordinator's per-shard root restriction, carried as
        # vertex labels (None keeps the frozen v1 bytes).
        "request_root_shard": codec.to_wire(
            EnumerationRequest(algorithm="mule", alpha=0.5, root_shard=(1, 2))
        ),
        "outcome_mule_triangle": codec.to_wire(
            frozen(session.enumerate(mule_request))
        ),
        "outcome_top_k_ranked": codec.to_wire(
            frozen(session.enumerate(top_k_request))
        ),
        "sweep_request_five_alphas": codec.sweep_to_wire(
            mule_request, [0.5, 0.6, 0.7, 0.8, 0.9]
        ),
        # A sweep's response shape: the alpha-ordered outcome list.
        "outcome_list_sweep_pair": codec.outcomes_to_wire(
            [
                frozen(session.enumerate(mule_request)),
                frozen(session.enumerate(top_k_request)),
            ]
        ),
        "records_string_labels": codec.to_wire(
            [
                CliqueRecord(vertices=frozenset({"ana", "bob", "cal"}), probability=0.7866),
                CliqueRecord(vertices=frozenset({"dee"}), probability=1.0),
            ]
        ),
        "error_parameter": codec.to_wire(
            ParameterError("algorithm 'top_k' requires k")
        ),
        # ---- schema v2: graphs as values and as references ---- #
        "graph_mixed_labels": codec.graph_to_wire(mixed_label_graph()),
        "graph_upload": codec.upload_to_wire(
            codec.GraphUpload(dataset="ppi", scale=0.05, seed=2015, name="ppi")
        ),
        "graph_upload_literal": codec.upload_to_wire(
            codec.GraphUpload(graph=fixture_graph(), name="triangle")
        ),
        # The packed upload the in-repo clients send: the same graph as
        # graph_mixed_labels, as one graph-columns envelope.
        "graph_upload_columns": codec.upload_to_wire(
            codec.GraphUpload(graph=mixed_label_graph(), name="mixed"), columns=True
        ),
        "graph_ref_request": codec.ref_request_to_wire(mule_request, graph="ppi"),
        "graph_ref_sweep": codec.ref_sweep_to_wire(
            mule_request, [0.5, 0.6, 0.7, 0.8, 0.9], graph="ppi"
        ),
        "graph_info_ppi": codec.graph_info_to_wire(
            GraphInfo(
                fingerprint="a3f1" * 16,
                name="ppi",
                num_vertices=3751,
                num_edges=3692,
                pinned=True,
                default=True,
            )
        ),
        # The store listing (GET /v2/graphs): default graph first.
        "graph_list_two_graphs": codec.graph_list_to_wire(
            [
                GraphInfo(
                    fingerprint="a3f1" * 16,
                    name="ppi",
                    num_vertices=3751,
                    num_edges=3692,
                    pinned=True,
                    default=True,
                ),
                GraphInfo(
                    fingerprint="0b2c" * 16,
                    name=None,
                    num_vertices=4,
                    num_edges=4,
                    pinned=False,
                    default=False,
                ),
            ]
        ),
        # ---- schema v2: the async job vocabulary ---- #
        "job_request_paged": codec.job_request_to_wire(
            mule_request, graph="ppi", page_size=128
        ),
        "job_status_running": codec.job_status_to_wire(status_running),
        "job_status_failed": codec.job_status_to_wire(status_failed),
        "job_result_chunk_page": codec.job_chunk_to_wire(
            codec.JobChunk(
                job="job-000002",
                seq=0,
                records=tuple(mule_outcome.records),
                final=False,
            )
        ),
        "job_result_chunk_final": codec.job_chunk_to_wire(
            codec.JobChunk(
                job="job-000002",
                seq=1,
                records=(),
                final=True,
                summary=mule_outcome,
            )
        ),
        "job_list_mixed": codec.job_list_to_wire([status_running, status_done]),
        # ---- schema v2: record lists as columns ---- #
        "columns_mixed_labels": codec.columns_to_wire(column_records()),
        # The additive ``columns`` key: the triangle outcome and its
        # result page with their records as one block (schema 2).
        "outcome_mule_triangle_columns": codec.outcome_to_wire(
            mule_outcome, columns=True
        ),
        "job_result_chunk_page_columns": codec.job_chunk_to_wire(
            codec.JobChunk(
                job="job-000002",
                seq=0,
                records=tuple(column_records()),
                final=False,
            ),
            columns=True,
        ),
        # ---- schema v2: observability ---- #
        "metrics_snapshot": codec.metrics_to_wire(metrics_snapshot()),
    }


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    for name, payload in sorted(build_payloads().items()):
        path = FIXTURES / f"{name}.json"
        path.write_bytes(codec.encode(payload))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
