"""The graph encoder's bytes, pinned against a reference encoder.

``reference_graph_to_wire`` below is the straightforward encoder the
codec used to ship: walk ``UncertainGraph.edges()``, sort each pair and
then the edge list by the canonical vertex order.  The codec's single-pass
encoder must produce the same bytes for every graph, including graphs
whose adjacency stores an edge endpoint as an ``==``-equal label of
another type (``1.0`` for vertex ``1``), and it must refuse exactly the
graphs the reference refuses.  Decoding the bytes gives back an equal
graph.
"""

from __future__ import annotations

from decimal import Decimal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.service import codec
from repro.uncertain.graph import UncertainGraph

RELAXED = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _reference_label(vertex):
    if isinstance(vertex, bool) or not isinstance(vertex, (int, float, str)):
        raise FormatError(
            f"vertex label {vertex!r} is not wire-encodable (labels must be "
            f"int, float or str)"
        )
    return vertex


def _reference_key(vertex):
    return (0, vertex) if isinstance(vertex, (int, float)) else (1, vertex)


def reference_graph_to_wire(graph: UncertainGraph) -> dict:
    """The pre-rewrite encoder, kept verbatim in behaviour as the reference."""
    vertices = sorted(
        (_reference_label(v) for v in graph.vertices()), key=_reference_key
    )
    edges = []
    for u, v, p in graph.edges():
        u, v = sorted((_reference_label(u), _reference_label(v)), key=_reference_key)
        edges.append([u, v, p])
    edges.sort(key=lambda e: (_reference_key(e[0]), _reference_key(e[1])))
    return {"schema": 2, "kind": "graph", "vertices": vertices, "edges": edges}


labels = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.floats(min_value=-20, max_value=20, allow_nan=False),
    st.integers(min_value=-20, max_value=20).map(float),
    st.text(alphabet="abcxyz", max_size=3),
)
probabilities = st.one_of(
    st.sampled_from([1.0, 0.5, 1 / 3, 0.1 + 0.2]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


def _retyped(label):
    """An ``==``-equal label of the other numeric type, if there is one."""
    if isinstance(label, int):
        return float(label)
    if isinstance(label, float) and label.is_integer():
        return int(label)
    return label


@st.composite
def graphs(draw) -> UncertainGraph:
    """Random graphs: mixed labels, isolated vertices, retyped endpoints."""
    graph = UncertainGraph(vertices=draw(st.lists(labels, max_size=12)))
    present = list(graph.vertices())
    if len(present) < 2:
        return graph
    edges = draw(
        st.lists(
            st.tuples(
                st.sampled_from(present),
                st.sampled_from(present),
                probabilities,
                st.booleans(),
                st.booleans(),
            ),
            max_size=30,
        )
    )
    for u, v, p, retype_u, retype_v in edges:
        if u == v:
            continue
        graph.add_edge(
            _retyped(u) if retype_u else u, _retyped(v) if retype_v else v, p
        )
    return graph


def wire_bytes(graph: UncertainGraph) -> bytes:
    return codec.encode(codec.graph_to_wire(graph))


@RELAXED
@given(graphs())
def test_bytes_match_the_reference_encoder(graph):
    data = wire_bytes(graph)
    assert data == codec.encode(reference_graph_to_wire(graph))
    assert codec.graph_from_wire(codec.decode(data)) == graph


def test_endpoint_stored_as_float_of_an_int_vertex():
    # Vertex 2 is walked first and its adjacency stores the endpoint 1.0.
    graph = UncertainGraph(vertices=[2, 1, "iso"])
    graph.add_edge(1.0, 2, 0.5)
    expected = (
        b'{"edges":[[1.0,2,0.5]],"kind":"graph","schema":2,'
        b'"vertices":[1,2,"iso"]}\n'
    )
    assert wire_bytes(graph) == codec.encode(reference_graph_to_wire(graph))
    assert wire_bytes(graph) == expected


def test_endpoint_stored_as_float_where_int_vertex_is_walked_first():
    # Vertex 1 is walked first: its adjacency stores 2, so the edge's
    # labels are the vertices' own.
    graph = UncertainGraph(vertices=[1, 2])
    graph.add_edge(2, 1.0, 0.5)
    assert wire_bytes(graph) == codec.encode(reference_graph_to_wire(graph))
    assert wire_bytes(graph) == (
        b'{"edges":[[1,2,0.5]],"kind":"graph","schema":2,"vertices":[1,2]}\n'
    )


@pytest.mark.parametrize("endpoint", [Decimal(1), True])
def test_unencodable_endpoint_refused_like_the_reference(endpoint):
    # The stored endpoint is ==-equal to vertex 1 but not a wire label.
    graph = UncertainGraph(vertices=[2, 1])
    graph.add_edge(endpoint, 2, 0.5)
    with pytest.raises(FormatError) as reference:
        reference_graph_to_wire(graph)
    with pytest.raises(FormatError) as actual:
        codec.graph_to_wire(graph)
    assert str(actual.value) == str(reference.value)
