"""``CompiledGraph.restrict_shared_neighborhood`` against the graph-level filter.

The compiled filter must leave the artifact the old pipeline compiled —
a graph copy pruned at α, filtered with set intersections, then compiled —
with the same labels, order flag, index map, masks and probabilities, and
report the same counts.  It must do so on an artifact compiled at α, on
one derived from an unpruned base and on one derived from a lower-α base,
at a threshold strictly between two edge probabilities and at one equal
to an edge probability.
"""

from __future__ import annotations

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.engine.compiled import CompiledGraph, compile_graph
from repro.core.pruning import PruningReport
from repro.uncertain.graph import UncertainGraph
from tests.oracles.shared_neighborhood import compile_filtered
from tests.oracles.test_compile_edges import RELAXED, artifact, thresholds
from tests.service.test_graph_wire_bytes import graphs

#: A triangle on 1, 2 and 10, and "a" hanging off 1: the labels only sort
#: as ``(type name, repr)`` until the t = 3 filter drops "a".
MIXED = UncertainGraph(edges=[(1, 2, 0.5), (2, 10, 0.5), (1, 10, 0.5), (1, "a", 0.5)])

#: At t = 4, removing {0, 1} first would fail {0, 2}: an edge step that
#: decided edge by edge would remove 5 edges, not 4.
EDGE_STEP = UncertainGraph(
    edges=[(u, v, 0.5) for u, v in [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]]
)

#: At t = 4, a vertex step that removed each failing vertex at once would
#: fail later vertices a round early: 2 rounds instead of 3.
VERTEX_STEP = UncertainGraph(
    edges=[
        (u, v, 0.5)
        for u, v in [
            (0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (1, 5),
            (2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6),
        ]
    ]
)


def bases(graph: UncertainGraph, alpha: float | None) -> list[CompiledGraph]:
    """Artifacts at ``alpha``: compiled there, and derived from lower bases."""
    if alpha is None:
        return [CompiledGraph.from_graph(graph)]
    return [
        CompiledGraph.from_graph(graph, min_probability=alpha),
        CompiledGraph.from_graph(graph).restrict_probability(alpha),
        CompiledGraph.from_graph(graph, min_probability=alpha / 2).restrict_probability(
            alpha
        ),
    ]


@RELAXED
@given(graphs(), st.integers(min_value=0, max_value=50), st.integers(2, 6))
@example(UncertainGraph(), 0, 2)
@example(MIXED, 0, 3)
@example(EDGE_STEP, 0, 4)
@example(VERTEX_STEP, 0, 4)
def test_compiled_filter_matches_the_graph_filter(graph, pick, size_threshold):
    for alpha in thresholds(graph, pick):
        report = PruningReport()
        expected = compile_filtered(
            graph, alpha=alpha, size_threshold=size_threshold, report=report
        )
        for base in bases(graph, alpha):
            filtered = base.restrict_shared_neighborhood(size_threshold)
            assert artifact(filtered) == artifact(expected), alpha
            assert filtered.pruning_report == report, alpha


def test_survivors_take_the_compile_order():
    assert CompiledGraph.from_graph(MIXED).labels == [1, 10, 2, "a"]
    filtered = compile_graph(MIXED, size_threshold=3)
    assert (filtered.labels, filtered.labels_sorted) == ([1, 2, 10], True)
    assert filtered.index_of == {1: 0, 2: 1, 10: 2}
    assert filtered.pruning_report == PruningReport(2, 1, 1)
