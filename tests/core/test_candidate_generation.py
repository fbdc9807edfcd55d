"""Unit tests for ``GenerateI`` / ``GenerateX`` (Algorithms 3 and 4).

The engine carries the candidate set ``I`` and the exclusion set ``X`` in
:class:`MuleStrategy`'s node state, a 5-slot list ``[q, cand_mask,
cand_factors, excl_mask, excl_factors]``; :meth:`MuleStrategy.descend`
is one ``GenerateI`` plus one ``GenerateX`` step and
:meth:`MuleStrategy.retire` moves a finished candidate into ``X``.  The
vector kernel builds the depth-1 result of the same steps straight from
each root's neighbours, so its root frames are checked against them here.
"""

from __future__ import annotations

import pytest

from repro.core.engine import (
    MuleStrategy,
    RunReport,
    compile_graph,
    run_search,
    run_vector_search,
)
from repro.core.engine.strategies import bit_list
from repro.core.result import SearchStatistics
from repro.uncertain.graph import UncertainGraph


@pytest.fixture
def diamond() -> UncertainGraph:
    """A 4-clique on {1,2,3,4} with assorted probabilities plus a pendant 5."""
    return UncertainGraph(
        edges=[
            (1, 2, 0.9),
            (1, 3, 0.8),
            (1, 4, 0.7),
            (2, 3, 0.9),
            (2, 4, 0.6),
            (3, 4, 0.5),
            (4, 5, 0.9),
        ]
    )


class _Search:
    """A MULE strategy bound to the uncompressed diamond at one α.

    The graph is compiled without the Observation 3 edge filter, so every
    α-test below is made by ``GenerateI``/``GenerateX`` themselves.
    Vertices are addressed by label; the state stays index-based.
    """

    def __init__(self, graph: UncertainGraph, alpha: float) -> None:
        self.compiled = compile_graph(graph)
        self.strategy = MuleStrategy()
        self.strategy.bind(self.compiled, alpha, SearchStatistics())

    def index(self, label):
        return self.compiled.index_of[label]

    def root(self, *retired):
        state = self.strategy.root()
        for label in retired:
            self.strategy.retire(state, self.index(label))
        return state

    def descend(self, state, label, clique=()):
        indices = [self.index(v) for v in clique]
        return self.strategy.descend(state, self.index(label), indices)

    def candidates(self, state) -> dict:
        return {self.compiled.labels[w]: f for w, f in state[2].items()}

    def exclusions(self, state) -> dict:
        return {self.compiled.labels[w]: f for w, f in state[4].items()}


class TestRoot:
    def test_every_vertex_with_factor_one(self, diamond):
        search = _Search(diamond, alpha=0.01)
        root = search.root()
        q, cand_mask, _, excl_mask, _ = root
        assert q == 1.0
        assert cand_mask == search.compiled.all_mask
        assert search.candidates(root) == dict.fromkeys(diamond.vertices(), 1.0)
        assert excl_mask == 0
        assert search.exclusions(root) == {}


class TestGenerateI:
    def test_only_larger_adjacent_vertices_kept(self, diamond):
        search = _Search(diamond, alpha=0.01)
        # Extend the empty clique with vertex 2: q' = 1.0.
        child = search.descend(search.root(), 2)
        assert set(search.candidates(child)) == {3, 4}

    def test_factors_are_edge_probabilities(self, diamond):
        search = _Search(diamond, alpha=0.01)
        child = search.descend(search.root(), 2)
        assert search.candidates(child)[3] == pytest.approx(0.9)
        assert search.candidates(child)[4] == pytest.approx(0.6)

    def test_alpha_filtering(self, diamond):
        search = _Search(diamond, alpha=0.7)
        child = search.descend(search.root(), 2)
        assert set(search.candidates(child)) == {3}

    def test_invariant_lemma6(self, diamond):
        """Every surviving candidate u satisfies clq(C' ∪ {u}) = q' · r' ≥ α."""
        alpha = 0.3
        search = _Search(diamond, alpha)
        # C' = {1}: q' = 1.0
        level1 = search.descend(search.root(), 1)
        assert level1[0] == 1.0
        for u, r in search.candidates(level1).items():
            assert diamond.clique_probability({1, u}) == pytest.approx(r)
            assert r >= alpha
        # C' = {1, 2}: q' = 0.9
        level2 = search.descend(level1, 2, clique=[1])
        q2 = level2[0]
        assert q2 == pytest.approx(diamond.clique_probability({1, 2}))
        for u, r in search.candidates(level2).items():
            assert diamond.clique_probability({1, 2, u}) == pytest.approx(q2 * r)
            assert q2 * r >= alpha

    def test_non_adjacent_vertices_dropped(self, diamond):
        search = _Search(diamond, alpha=0.01)
        child = search.descend(search.root(), 1)
        assert 5 not in search.candidates(child)  # 5 is only adjacent to 4

    def test_masks_match_factor_tables(self, diamond):
        # expand() branches on the mask while descend() reads the factors,
        # so the two halves of each set must name the same vertices.
        search = _Search(diamond, alpha=0.3)
        for label in diamond.vertices():
            root = search.root(*[v for v in diamond.vertices() if v < label])
            _, cand_mask, cand_factor, excl_mask, excl_factor = search.descend(
                root, label
            )
            assert bit_list(cand_mask) == sorted(cand_factor)
            assert bit_list(excl_mask) == sorted(excl_factor)


class TestGenerateX:
    def test_keeps_smaller_vertices_that_still_extend(self, diamond):
        search = _Search(diamond, alpha=0.1)
        # C = {2} after vertex 1 has been processed: clq({2, 1}) = 0.9.
        level1 = search.descend(search.root(1), 2)
        assert search.exclusions(level1) == {1: pytest.approx(0.9)}
        level2 = search.descend(level1, 3, clique=[2])
        assert 1 in search.exclusions(level2)
        assert search.exclusions(level2)[1] == pytest.approx(0.9 * 0.8)

    def test_drops_vertices_below_alpha(self, diamond):
        search = _Search(diamond, alpha=0.9)
        level1 = search.descend(search.root(1), 2)
        assert 1 in search.exclusions(level1)
        level2 = search.descend(level1, 3, clique=[2])
        assert 1 not in search.exclusions(level2)

    def test_drops_non_adjacent_vertices(self, diamond):
        search = _Search(diamond, alpha=0.01)
        level1 = search.descend(search.root(1), 4)  # 1 extends {4}
        assert search.exclusions(level1) == {1: pytest.approx(0.7)}
        level2 = search.descend(level1, 5, clique=[4])
        assert search.exclusions(level2) == {}
        assert level2[3] == 0

    def test_empty_exclusions_stay_empty(self, diamond):
        search = _Search(diamond, alpha=0.5)
        child = search.descend(search.root(), 2)
        assert search.exclusions(child) == {}
        assert child[3] == 0

    def test_retire_moves_candidate_factor_into_exclusions(self, diamond):
        search = _Search(diamond, alpha=0.01)
        level1 = search.descend(search.root(), 1)
        search.strategy.retire(level1, search.index(3))
        assert search.exclusions(level1) == {3: search.candidates(level1)[3]}
        assert bit_list(level1[3]) == [search.index(3)]


class TestRootFrames:
    @pytest.mark.parametrize("alpha", [0.01, 0.6, 0.9])
    def test_native_root_frames_match_the_python_kernel(self, diamond, alpha):
        # The root frame retires every vertex below u before branching on
        # u, so the depth-1 frame the native walk builds from u's higher and
        # lower neighbours must be that descend's result.  One root shard
        # per u isolates each frame; the graph is compiled without the
        # Observation 3 filter, so the frames' own p >= alpha test decides.
        compiled = compile_graph(diamond)
        for u in range(compiled.n):
            shard = compiled.restrict_roots(1 << u)
            runs = []
            for runner in (run_search, run_vector_search):
                statistics = SearchStatistics()
                report = RunReport()
                found = list(
                    runner(
                        shard, alpha, MuleStrategy(),
                        statistics=statistics, report=report,
                    )
                )
                runs.append((found, statistics, report.frames_expanded))
            assert runs[1] == runs[0]
