"""The packed graph upload: ``graph-columns`` and ``graph-upload`` carrying it.

A graph packed as columns decodes to an ``==`` graph with the same
fingerprint and the same compiled artifact, for mixed labels, isolated
vertices, endpoints stored as an ``==``-equal label of another type and
the empty graph.  Every malformed payload raises the type the ``graph``
decoder raises for the same defect.
"""

from __future__ import annotations

import base64
import math
import struct

import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.core.engine.compiled import CompiledGraph
from repro.errors import EdgeError, FormatError, ProbabilityError
from repro.service import codec
from repro.uncertain.graph import UncertainGraph
from tests.service.test_graph_wire_bytes import graphs

RELAXED = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def artifact(graph: UncertainGraph) -> tuple:
    compiled = CompiledGraph.from_graph(graph)
    return (
        compiled.labels,
        compiled.labels_sorted,
        compiled.adjacency_mask,
        compiled.adjacency_probability,
    )


def through_the_wire(graph: UncertainGraph) -> UncertainGraph:
    upload = codec.GraphUpload(graph=graph, name="g")
    data = codec.encode(codec.upload_to_wire(upload, columns=True))
    decoded = codec.upload_from_wire(codec.decode(data))
    assert decoded == upload._replace(graph=decoded.graph)
    return decoded.graph


@RELAXED
@given(graphs())
@example(UncertainGraph())
def test_packed_round_trip(graph):
    back = through_the_wire(graph)
    assert back == graph
    assert back.fingerprint() == graph.fingerprint()
    assert artifact(back) == artifact(graph)
    # The same graph the row form decodes to.  Probabilities lie in (0, 1],
    # where == between floats is bit equality.
    rows = codec.graph_from_wire(codec.decode(codec.encode(codec.graph_to_wire(graph))))
    assert back == rows


def test_endpoint_label_type_is_the_vertex_type():
    # Vertex 2 is walked first and its adjacency stores the endpoint 1.0.
    graph = UncertainGraph(vertices=[2, 1, "iso"])
    graph.add_edge(1.0, 2, 0.5)
    back = through_the_wire(graph)
    assert back == graph and back.fingerprint() == graph.fingerprint()
    assert [type(v) for v in back.adjacency(2)] == [int]


def test_layout():
    graph = UncertainGraph(vertices=["iso"], edges=[(3, 1, 0.5), ("a", 1, 1 / 3)])
    wire = codec.graph_columns_to_wire(graph)
    assert wire["vertices"] == [1, 3, "a", "iso"]
    assert struct.unpack("<4i", base64.b64decode(wire["edges"])) == (0, 1, 0, 2)
    assert struct.unpack("<2d", base64.b64decode(wire["probabilities"])) == (0.5, 1 / 3)
    assert wire["schema"] == 2 and wire["kind"] == "graph-columns"


def test_upload_form_is_chosen_per_request():
    graph = UncertainGraph(edges=[(1, 2, 0.5)])
    upload = codec.GraphUpload(graph=graph)
    assert codec.upload_to_wire(upload)["graph"]["kind"] == "graph"
    assert codec.upload_to_wire(upload, columns=True)["graph"]["kind"] == "graph-columns"
    assert codec.to_wire(graph)["kind"] == "graph"
    by_dataset = codec.GraphUpload(dataset="ppi", scale=0.05, seed=1)
    assert codec.upload_to_wire(by_dataset, columns=True) == codec.upload_to_wire(by_dataset)


def test_unencodable_label_refused_at_encode():
    with pytest.raises(FormatError, match="not wire-encodable"):
        codec.graph_columns_to_wire(UncertainGraph(edges=[((1, 2), 3, 0.5)]))


# --------------------------------------------------------------------- #
# Refusals
# --------------------------------------------------------------------- #
def b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def packed(labels=(1, 2, 3), pairs=((0, 1),), values=(0.5,), **fields):
    """A ``graph-columns`` payload packed from ``labels``, ``pairs`` and
    ``values``; ``fields`` then replace envelope keys as they are."""
    flat = [end for pair in pairs for end in pair]
    payload = {
        "schema": 2,
        "kind": "graph-columns",
        "vertices": list(labels),
        "edges": b64(struct.pack(f"<{len(flat)}i", *flat)),
        "probabilities": b64(struct.pack(f"<{len(values)}d", *values)),
    }
    payload.update(fields)
    return payload


def decode(payload):
    return codec.from_wire(codec.decode(codec.encode(payload)))


def test_the_payload_builder_decodes():
    assert decode(packed()) == UncertainGraph(vertices=[3], edges=[(1, 2, 0.5)])


@pytest.mark.parametrize(
    "payload, match",
    [
        (packed(labels=[1, True]), "must be int, float or str"),
        (packed(labels=[1, [2]]), "must be int, float or str"),
        (packed(labels=[1, 1.0, 3]), "duplicate vertices"),
        (packed(edges="AAAA$AAA"), "edges is not base64"),
        (packed(probabilities="AAAAAAAA4D8"), "probabilities is not base64"),
        (packed(edges=b64(b"\0" * 4)), "each edge takes 8 bytes"),
        (packed(probabilities=b64(b"\0" * 12)), "each edge takes 8 bytes"),
        (packed(pairs=((0, 1), (1, 2))), "each edge takes 8 bytes"),
        (packed(pairs=((0, 3),)), r"outside \[0, 3\)"),
        (packed(pairs=((-1, 1),)), r"outside \[0, 3\)"),
        (packed(labels=[], pairs=((0, 1),)), r"outside \[0, 0\)"),
        (packed(pairs=((1, 0),)), "breaks the order"),
        (packed(pairs=((1, 2), (0, 1)), values=(0.5, 0.5)), "breaks the order"),
        (packed(pairs=((0, 1), (0, 1)), values=(0.5, 0.5)), "breaks the order"),
        (packed(values=(math.nan,)), "must be finite"),
        (packed(values=(math.inf,)), "must be finite"),
        (packed(edges=5), "edges must be str"),
        (packed(vertices="123"), "vertices must be list"),
        (packed(schema=1), "unsupported schema version"),
        ({**packed(), "extra": 1}, "unknown keys"),
    ],
)
def test_structural_defects_raise_format_error(payload, match):
    with pytest.raises(FormatError, match=match):
        decode(payload)


def test_self_loop_raises_what_local_construction_raises():
    with pytest.raises(EdgeError) as local:
        UncertainGraph().add_edge(2, 2, 0.5)
    with pytest.raises(EdgeError) as wire:
        decode(packed(pairs=((1, 1),)))
    assert str(wire.value) == str(local.value)


@pytest.mark.parametrize("probability", [0.0, -0.0, -0.5, 1.5, 1.0000000000000002])
def test_probability_outside_unit_interval(probability):
    with pytest.raises(ProbabilityError) as local:
        UncertainGraph().add_edge(1, 2, probability)
    with pytest.raises(ProbabilityError) as wire:
        decode(packed(values=(probability,)))
    assert str(wire.value) == str(local.value)


def test_edges_are_checked_in_order():
    # The first bad edge decides, as in the row decoder.
    with pytest.raises(EdgeError):
        decode(packed(pairs=((1, 1), (0, 1)), values=(2.0, 0.5)))
    with pytest.raises(ProbabilityError):
        decode(packed(pairs=((0, 1), (0, 1)), values=(2.0, 0.5)))


def test_upload_decodes_either_form_and_refuses_other_kinds():
    graph = UncertainGraph(edges=[(1, 2, 0.5)])
    for columns in (False, True):
        wire = codec.upload_to_wire(codec.GraphUpload(graph=graph), columns=columns)
        assert codec.upload_from_wire(wire).graph == graph
    wire = codec.upload_to_wire(codec.GraphUpload(graph=graph), columns=True)
    wire["graph"]["kind"] = "clique-columns"
    with pytest.raises(FormatError, match="expected a 'graph' payload"):
        codec.upload_from_wire(wire)
    malformed = codec.upload_to_wire(codec.GraphUpload(graph=graph), columns=True)
    malformed["graph"]["edges"] = "%%%%"
    with pytest.raises(FormatError, match="graph-columns.edges is not base64"):
        codec.upload_from_wire(malformed)
