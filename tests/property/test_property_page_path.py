"""The page path against the brute-force oracle and the python kernel.

Every streamable request reaches its cliques one way: the kernel hands
column blocks (``run_kernel_blocks``) to ``MiningSession._pages``, which
cuts them into pages.  Synchronous ``/v1`` and ``/v2`` calls, streamed
jobs and fleet worker shards all take it.  This suite drives it through
``MiningSession.enumerate``, ``MiningSession._pages`` and
``EnumerationScheduler.submit_job`` at page sizes 1, 2, 3, 256 and None,
on both kernels, for MULE, top-k's size floor, LARGE-MULE's threshold, a
root shard and ``max_cliques``.  The native kernel's step buffers are
shrunk, so its steps straddle pages.

A graph has at most 12 vertices, with mixed int/str labels and isolated
vertices.  Its edge probabilities are multiples of 1/4, so every clique
probability is an exact binary fraction and α can sit exactly on one, or
one ulp above.  Every untruncated result must be the paper's definition
(brute force) as a set, with exact probabilities.  Every result must equal
the python kernel's per-clique stream bit for bit: the labels in order,
the sizes, the probabilities, the counters and the stop reason.
"""

from __future__ import annotations

import math
from dataclasses import replace
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import EnumerationRequest, MiningSession
from repro.core.brute_force import brute_force_alpha_maximal_cliques
from repro.core.engine import RunControls, RunReport, StopReason, run_search
from repro.core.engine.backends import native
from repro.core.result import CliqueColumns, SearchStatistics, rank_by_probability
from repro.service.jobs import DEFAULT_PAGE_SIZE
from repro.service.scheduler import EnumerationScheduler
from repro.uncertain.graph import UncertainGraph

BOUNDED = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

KERNELS = ("python", "vector")
DEADLINE = 60.0
PAGE_SIZES = (1, 2, 3, 256, None)
ABOVE_HALF = math.nextafter(0.5, 2.0)

labels = st.one_of(st.integers(min_value=0, max_value=30), st.text("abc", max_size=2))


def _complete(n: int, probability: float) -> UncertainGraph:
    graph = UncertainGraph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v, probability)
    return graph


@st.composite
def cases(draw) -> tuple[UncertainGraph, float]:
    """A graph of at most 12 vertices and an α on or just above a clique."""
    graph = UncertainGraph(vertices=draw(st.lists(labels, max_size=12, unique=True)))
    present = list(graph.vertices())
    for u in present:
        for v in present:
            if repr(u) < repr(v) and draw(st.booleans()):
                graph.add_edge(u, v, draw(st.sampled_from([0.25, 0.5, 0.75, 1.0])))
    # A clique's probability: an edge, or a triangle through it, or 1.0
    # (a singleton).
    alpha = 1.0
    edges = list(graph.edges())
    if edges:
        u, v, alpha = draw(st.sampled_from(edges))
        common = sorted(graph.common_neighbors(u, v), key=repr)
        if common and draw(st.booleans()):
            alpha = graph.clique_probability([u, v, draw(st.sampled_from(common))])
    if alpha < 1.0 and draw(st.booleans()):
        alpha = math.nextafter(alpha, 2.0)
    return graph, alpha


@st.composite
def requests(draw, graph: UncertainGraph, alpha: float) -> EnumerationRequest:
    """One request shape: MULE, top-k, LARGE-MULE, a root shard or a limit."""
    shapes = ["mule", "top_k", "large", "max_cliques"]
    vertices = sorted(graph.vertices(), key=repr)
    if vertices:
        shapes.append("root_shard")
    shape = draw(st.sampled_from(shapes))
    if shape == "top_k":
        return EnumerationRequest(
            algorithm="top_k",
            alpha=alpha,
            k=draw(st.sampled_from([1, 2, 3, 1000])),
            min_size=draw(st.integers(min_value=1, max_value=4)),
        )
    if shape == "large":
        return EnumerationRequest(
            algorithm="large",
            alpha=alpha,
            size_threshold=draw(st.integers(min_value=2, max_value=4)),
        )
    if shape == "max_cliques":
        return EnumerationRequest(
            alpha=alpha,
            controls=RunControls(max_cliques=draw(st.integers(min_value=1, max_value=6))),
        )
    if shape == "root_shard":
        shard = draw(st.lists(st.sampled_from(vertices), min_size=1, unique=True))
        return EnumerationRequest(alpha=alpha, root_shard=tuple(shard))
    return EnumerationRequest(alpha=alpha)


def _reference(graph: UncertainGraph, request: EnumerationRequest):
    """The python kernel's per-clique stream: columns, counters and report."""
    statistics = SearchStatistics()
    report = RunReport()
    vertices: list = []
    sizes: list[int] = []
    probabilities: list[float] = []
    in_order = False
    if graph.num_vertices:
        session = MiningSession(graph)
        compiled, strategy = session._start(request)
        in_order = compiled.labels_sorted
        for indices, probability in run_search(
            compiled,
            request.alpha,
            strategy,
            statistics=statistics,
            controls=request.controls,
            report=report,
        ):
            vertices += [compiled.labels[index] for index in indices]
            sizes.append(len(indices))
            probabilities.append(probability)
    reference = CliqueColumns(vertices, sizes, probabilities, False)
    return reference, statistics, report, in_order


def _oracle(graph: UncertainGraph, request: EnumerationRequest) -> dict:
    """The request's cliques by the paper's definition: {vertices: probability}."""
    found = {
        record.vertices: record.probability
        for record in brute_force_alpha_maximal_cliques(graph, request.alpha).cliques
    }
    if request.algorithm == "top_k":
        return {c: p for c, p in found.items() if len(c) >= request.min_size}
    if request.algorithm == "large":
        return {c: p for c, p in found.items() if len(c) >= request.size_threshold}
    if request.root_shard is not None:
        index_of = MiningSession(graph).compiled(alpha=request.alpha).index_of
        roots = {index_of[label] for label in request.root_shard}
        return {c: p for c, p in found.items() if min(map(index_of.get, c)) in roots}
    return found


def _check_pages(pages: list[CliqueColumns], page_size: int | None, canonical: bool):
    """Full pages of ``page_size`` cliques, the last one fewer, none empty."""
    assert all(len(page) for page in pages)
    if page_size is None:
        assert len(pages) <= 1
    else:
        assert all(len(page) == page_size for page in pages[:-1])
        assert not pages or len(pages[-1]) <= page_size
    for page in pages:
        assert page.canonical is canonical
        assert sum(page.sizes) == len(page.vertices)


def _check_columns(block: CliqueColumns, reference: CliqueColumns) -> None:
    assert block.vertices == reference.vertices
    assert block.sizes == reference.sizes
    assert list(block.probabilities) == list(reference.probabilities)
    # A block claiming canonical order holds each clique in as_tuple order.
    assert block.sorted_vertices() == reference.sorted_vertices()


def _check_counters(statistics, report, reference_statistics, reference_report) -> None:
    assert statistics == reference_statistics
    assert report.stop_reason == reference_report.stop_reason
    assert report.cliques_emitted == reference_report.cliques_emitted
    assert report.frames_expanded == reference_report.frames_expanded


def _check_outcome(outcome, request, reference, statistics, report, oracle) -> None:
    """An outcome against the python kernel's stream and the oracle."""
    if request.algorithm == "top_k":
        assert outcome.records == rank_by_probability(reference.records(), request.k)
        probabilities = sorted(oracle.values(), reverse=True)[: request.k]
        assert sorted(r.probability for r in outcome.records) == sorted(probabilities)
        for record in outcome.records:
            assert oracle[record.vertices] == record.probability
    else:
        _check_columns(outcome.clique_columns, reference)
    _check_counters(outcome.statistics, outcome.report, statistics, report)
    found = outcome.records_by_vertices()
    if report.stop_reason == StopReason.COMPLETED and request.algorithm != "top_k":
        assert found == oracle
    else:
        assert all(oracle[clique] == p for clique, p in found.items())


@BOUNDED
@given(
    cases().flatmap(lambda case: st.tuples(st.just(case), requests(*case))),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=6),
)
@example(((UncertainGraph(), 0.5), EnumerationRequest(alpha=0.5)), 1, 0)
@example(((UncertainGraph(vertices=["a"]), 1.0), EnumerationRequest(alpha=1.0)), 1, 0)
@example(((_complete(8, 1.0), 1.0), EnumerationRequest(alpha=1.0)), 1, 0)
@example(
    (
        (_complete(6, 0.75), 0.75**15),
        EnumerationRequest(algorithm="large", alpha=0.75**15, size_threshold=3),
    ),
    2,
    1,
)
@example(
    (
        (UncertainGraph(vertices=[0, "a", 7], edges=[(0, "a", 0.5)]), 0.5),
        EnumerationRequest(algorithm="top_k", alpha=0.5, k=2, min_size=1),
    ),
    1,
    0,
)
@example(
    (
        (UncertainGraph(vertices=[0, "a"], edges=[(0, "a", 0.5)]), ABOVE_HALF),
        EnumerationRequest(alpha=ABOVE_HALF),
    ),
    1,
    0,
)
def test_pages_agree_with_the_oracle_and_the_python_kernel(
    case, batch_cliques, batch_labels
):
    (graph, alpha), request = case
    reference, statistics, report, labels_sorted = _reference(graph, request)
    oracle = _oracle(graph, request)
    with mock.patch.object(native, "_BATCH_CLIQUES", batch_cliques), mock.patch.object(
        native, "_BATCH_LABELS", batch_labels
    ):
        for kernel in KERNELS:
            run = replace(request, kernel=kernel)
            canonical = kernel == "vector" and labels_sorted
            session = MiningSession(graph)
            outcome = session.enumerate(run)
            _check_outcome(outcome, run, reference, statistics, report, oracle)
            if request.algorithm != "top_k":
                for page_size in PAGE_SIZES:
                    run_statistics, run_report = SearchStatistics(), RunReport()
                    pages = list(
                        session._pages(run, run_statistics, run_report, page_size=page_size)
                    )
                    _check_pages(pages, page_size, canonical)
                    _check_columns(CliqueColumns.concat(pages), reference)
                    _check_counters(run_statistics, run_report, statistics, report)
            with EnumerationScheduler(graph) as scheduler:
                for page_size in PAGE_SIZES:
                    job = scheduler.submit_job(
                        run, page_size=page_size, max_pending_pages=None
                    )
                    job.wait(timeout=DEADLINE)
                    chunks = list(job.stream_chunks())
                    pages = [chunk.records for chunk in chunks[:-1]]
                    if request.algorithm != "top_k":
                        _check_pages(pages, page_size or DEFAULT_PAGE_SIZE, canonical)
                    summary = chunks[-1].summary
                    summary.records = CliqueColumns.concat(pages) if pages else []
                    _check_outcome(summary, run, reference, statistics, report, oracle)
