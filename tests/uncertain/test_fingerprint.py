"""Tests for UncertainGraph.fingerprint — the session cache key."""

from __future__ import annotations

import random

import pytest

from repro.uncertain.graph import UncertainGraph


def test_fingerprint_is_stable_hex_digest(triangle):
    fp = triangle.fingerprint()
    assert isinstance(fp, str)
    assert len(fp) == 64
    int(fp, 16)  # hex
    assert triangle.fingerprint() == fp  # deterministic across calls


class TestEqConsistency:
    """Graphs that compare equal must fingerprint equal."""

    def test_insertion_order_invariance(self):
        a = UncertainGraph(edges=[(1, 2, 0.5), (2, 3, 0.25), (1, 3, 0.75)])
        b = UncertainGraph(edges=[(1, 3, 0.75), (2, 3, 0.25), (1, 2, 0.5)])
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_edge_direction_invariance(self):
        a = UncertainGraph(edges=[(1, 2, 0.5)])
        b = UncertainGraph(edges=[(2, 1, 0.5)])
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_vertex_insertion_order_invariance(self):
        a = UncertainGraph(vertices=[3, 1, 2])
        b = UncertainGraph(vertices=[1, 2, 3])
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_copy_preserves_fingerprint(self, two_cliques):
        assert two_cliques.copy().fingerprint() == two_cliques.fingerprint()

    def test_mutate_then_undo_restores_fingerprint(self, triangle):
        fp = triangle.fingerprint()
        triangle.add_edge(1, 4, 0.6)
        assert triangle.fingerprint() != fp
        triangle.remove_edge(1, 4)
        assert triangle.fingerprint() == fp


class TestSensitivity:
    """Different graph content must produce different fingerprints."""

    def test_different_probability(self):
        a = UncertainGraph(edges=[(1, 2, 0.5)])
        b = UncertainGraph(edges=[(1, 2, 0.5000001)])
        assert a != b
        assert a.fingerprint() != b.fingerprint()

    def test_different_edge_set(self):
        a = UncertainGraph(edges=[(1, 2, 0.5), (2, 3, 0.5)])
        b = UncertainGraph(edges=[(1, 2, 0.5), (1, 3, 0.5)])
        assert a.fingerprint() != b.fingerprint()

    def test_isolated_vertices_count(self):
        a = UncertainGraph(edges=[(1, 2, 0.5)])
        b = UncertainGraph(vertices=[3], edges=[(1, 2, 0.5)])
        assert a.fingerprint() != b.fingerprint()

    def test_empty_vs_single_vertex(self):
        assert UncertainGraph().fingerprint() != UncertainGraph(vertices=[0]).fingerprint()

    def test_string_labels(self):
        a = UncertainGraph(edges=[("u", "v", 0.5)])
        b = UncertainGraph(edges=[("u", "w", 0.5)])
        assert a.fingerprint() != b.fingerprint()

    def test_non_orderable_labels_are_supported(self):
        a = UncertainGraph(edges=[(1, "x", 0.5)])
        b = UncertainGraph(edges=[("x", 1, 0.5)])
        assert a.fingerprint() == b.fingerprint()

    def test_cross_type_numeric_labels_hash_by_value(self):
        # Dict keys compare 1 == 1.0 == True, so these graphs are == and
        # must fingerprint identically (the shared-cache key contract).
        a = UncertainGraph(edges=[(1, 2, 0.5)])
        b = UncertainGraph(edges=[(1.0, 2, 0.5)])
        c = UncertainGraph(edges=[(True, 2, 0.5)])
        assert a == b == c
        assert a.fingerprint() == b.fingerprint() == c.fingerprint()

    def test_non_integral_floats_stay_distinct(self):
        assert (
            UncertainGraph(vertices=[1.5]).fingerprint()
            != UncertainGraph(vertices=[1]).fingerprint()
        )


def _seeded_graph() -> UncertainGraph:
    rng = random.Random(2015)
    graph = UncertainGraph(vertices=range(60))
    for u in range(60):
        for v in range(u + 1, 60):
            if rng.random() < 0.2:
                graph.add_edge(u, v, 1.0 - rng.random())
    return graph


def _multi_block_graph() -> UncertainGraph:
    # More labels and edge lines than one digest update takes (4,096).
    rng = random.Random(26)
    n = 4500
    graph = UncertainGraph(vertices=range(n))
    for u in range(n):
        for step in (1, 97):
            graph.add_edge(u, (u + step) % n, 1.0 - rng.random())
    return graph


#: Fingerprints are public keys (store references, cache keys), so their
#: values are pinned, not just their consistency with ``==``.
PINNED = {
    "int": (
        lambda: UncertainGraph(vertices=[7], edges=[(1, 2, 0.9), (2, 3, 1 / 3), (1, 3, 1.0)]),
        "956f07eab58b11bccbbc1d75aee15ad1e0b3ba1b2a3249d7696a3990ad776b81",
    ),
    "float": (
        lambda: UncertainGraph(
            edges=[(0.5, 2.0, 0.25), (2.0, -1.5, 5e-324), (1e20, 0.5, 0.7)]
        ),
        "f8b609828a9302989a39ffffb91169956f3c04e68b8c02969af4a2b9ad142520",
    ),
    "mixed": (
        lambda: UncertainGraph(
            vertices=["isolated"],
            edges=[(1, 2, 0.9), (2, "gene", 1 / 3), (2.5, "gene", 0.0625)],
        ),
        "878e9811dcfc30e5fc7618b6891bf4668e9c5d54f363c78a5926f0ef989f8300",
    ),
    "non-ascii": (
        lambda: UncertainGraph(
            edges=[("ñandú", "björk", 0.5), ("björk", "東京", 0.125), ("東京", "\ud800", 0.75)]
        ),
        "943165830916ff6a4dd98dbc7bd4d8bae7c3ac4a7c638d2ae541a87521b5cc18",
    ),
    "empty": (
        UncertainGraph,
        "2c99d952bd19b482918811dabcac61711f57ee68f2f15c5b297b70be3e416b00",
    ),
    "seeded": (
        _seeded_graph,
        "328ba3105b7c0dbf5ad469d9b6c053843dc12726e6432eb896bd1e0e42684c5a",
    ),
    "multi-block": (
        _multi_block_graph,
        "a93f0e228563ddd037b56da98b93e5b689ce483aeb366072ca515dcff59ed3c1",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_fingerprint_values_are_pinned(name):
    build, expected = PINNED[name]
    assert build().fingerprint() == expected
