"""Unit tests for the wire codec — strictness, envelopes, error mapping.

The seeded random round-trip coverage lives in
``test_property_service.py``; this module pins the *rejection* behaviour:
unknown keys, missing keys, wrong JSON types, schema-version mismatches
and non-encodable inputs must all fail loudly with
:class:`~repro.errors.FormatError` (never silently coerce), and error
envelopes must rebuild the exact library exception types.
"""

from __future__ import annotations

import pytest

from repro.api import EnumerationOutcome, EnumerationRequest
from repro.core.engine import RunControls, RunReport
from repro.core.result import CliqueRecord, SearchStatistics
from repro.errors import (
    EdgeError,
    FormatError,
    ParameterError,
    ProbabilityError,
    ReproError,
    ServiceError,
)
from repro.service import codec
from repro.uncertain.graph import UncertainGraph


def envelope_of(obj) -> dict:
    return codec.to_wire(obj)


class TestCanonicalEncoding:
    def test_encode_is_deterministic(self):
        request = EnumerationRequest(algorithm="mule", alpha=0.5)
        assert codec.encode(codec.to_wire(request)) == codec.encode(
            codec.to_wire(EnumerationRequest(algorithm="mule", alpha=0.5))
        )

    def test_encode_sorts_keys_and_ends_with_newline(self):
        data = codec.encode({"b": 1, "a": 2})
        assert data == b'{"a":2,"b":1}\n'

    def test_encode_rejects_nan(self):
        with pytest.raises(FormatError):
            codec.encode({"x": float("nan")})

    def test_encode_rejects_non_json_values(self):
        with pytest.raises(FormatError):
            codec.encode({"x": {1, 2}})

    def test_decode_rejects_invalid_json(self):
        with pytest.raises(FormatError):
            codec.decode(b"{not json")

    def test_decode_rejects_invalid_utf8(self):
        with pytest.raises(FormatError):
            codec.decode(b"\xff\xfe")

    def test_decode_rejects_non_object_payloads(self):
        with pytest.raises(FormatError):
            codec.decode(b"[1, 2, 3]")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_decode_rejects_what_encode_refuses(self, token):
        # A payload holding one of these could never be encoded back.
        data = f'{{"vertices": [1, {token}]}}'.encode("ascii")
        with pytest.raises(FormatError) as excinfo:
            codec.decode(data)
        assert str(excinfo.value) == (
            f"payload is not valid JSON: {token} is not a JSON number"
        )
        with pytest.raises(FormatError):
            codec.decode(data.decode("ascii"))

    def test_floats_roundtrip_exactly(self):
        # repr-based shortest round-trip: losslessness for awkward floats.
        alpha = 0.30000000000000004
        request = EnumerationRequest(algorithm="mule", alpha=alpha)
        decoded = codec.from_wire(codec.decode(codec.encode(codec.to_wire(request))))
        assert decoded.alpha == alpha


class TestEnvelopeStrictness:
    def test_unknown_key_rejected(self):
        payload = envelope_of(EnumerationRequest(algorithm="mule", alpha=0.5))
        payload["surprise"] = 1
        with pytest.raises(FormatError, match="unknown keys.*surprise"):
            codec.from_wire(payload)

    def test_missing_key_rejected(self):
        payload = envelope_of(EnumerationRequest(algorithm="mule", alpha=0.5))
        del payload["alpha"]
        with pytest.raises(FormatError, match="missing keys.*alpha"):
            codec.from_wire(payload)

    def test_nested_envelope_is_strict_too(self):
        request = EnumerationRequest(
            algorithm="mule", alpha=0.5, controls=RunControls(max_cliques=3)
        )
        payload = envelope_of(request)
        payload["controls"]["surprise"] = 1
        with pytest.raises(FormatError, match="run-controls.*surprise"):
            codec.from_wire(payload)

    def test_wrong_schema_version_rejected(self):
        payload = envelope_of(EnumerationRequest(algorithm="mule", alpha=0.5))
        payload["schema"] = max(codec.SUPPORTED_SCHEMA_VERSIONS) + 1
        with pytest.raises(FormatError, match="unsupported schema version"):
            codec.from_wire(payload)

    def test_v1_kind_decodes_under_v2_stamp(self):
        # v2 is additive: a v1-shaped envelope sent by a v2 speaker (stamped
        # schema 2) decodes to the same object.
        request = EnumerationRequest(algorithm="mule", alpha=0.5)
        payload = envelope_of(request)
        payload["schema"] = codec.SCHEMA_VERSION_V2
        assert codec.from_wire(payload) == request

    def test_v2_only_kind_rejects_v1_stamp(self):
        from repro.uncertain.graph import UncertainGraph

        payload = codec.graph_to_wire(UncertainGraph(edges=[(1, 2, 0.5)]))
        payload["schema"] = codec.SCHEMA_VERSION
        with pytest.raises(FormatError, match="unsupported schema version"):
            codec.from_wire(payload)

    def test_missing_schema_version_rejected(self):
        payload = envelope_of(EnumerationRequest(algorithm="mule", alpha=0.5))
        del payload["schema"]
        with pytest.raises(FormatError, match="unsupported schema version"):
            codec.request_from_wire(payload)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FormatError, match="unknown wire kind"):
            codec.from_wire({"schema": codec.SCHEMA_VERSION, "kind": "mystery"})

    def test_kind_mismatch_rejected(self):
        payload = envelope_of(EnumerationRequest(algorithm="mule", alpha=0.5))
        with pytest.raises(FormatError, match="expected a 'run-report'"):
            codec.report_from_wire(payload)

    def test_non_object_rejected(self):
        with pytest.raises(FormatError):
            codec.from_wire([1, 2])


class TestKernelField:
    """``kernel`` is the one additive v2 key of the request envelope."""

    def test_default_kernel_keeps_v1_envelope(self):
        payload = envelope_of(EnumerationRequest(algorithm="mule", alpha=0.5))
        assert payload["schema"] == codec.SCHEMA_VERSION
        assert "kernel" not in payload

    def test_non_default_kernel_promotes_to_v2(self):
        request = EnumerationRequest(algorithm="mule", alpha=0.5, kernel="vector")
        payload = envelope_of(request)
        assert payload["schema"] == codec.SCHEMA_VERSION_V2
        assert payload["kernel"] == "vector"
        assert codec.from_wire(payload) == request

    def test_python_kernel_roundtrips(self):
        request = EnumerationRequest(algorithm="mule", alpha=0.5, kernel="python")
        assert codec.request_from_wire(codec.request_to_wire(request)) == request

    def test_kernel_under_v1_stamp_rejected(self):
        payload = envelope_of(
            EnumerationRequest(algorithm="mule", alpha=0.5, kernel="vector")
        )
        payload["schema"] = codec.SCHEMA_VERSION
        with pytest.raises(FormatError, match="kernel requires schema"):
            codec.request_from_wire(payload)

    def test_absent_kernel_under_v2_stamp_decodes_to_auto(self):
        payload = envelope_of(EnumerationRequest(algorithm="mule", alpha=0.5))
        payload["schema"] = codec.SCHEMA_VERSION_V2
        assert codec.request_from_wire(payload).kernel == "auto"

    def test_invalid_kernel_value_uses_library_exception(self):
        payload = envelope_of(
            EnumerationRequest(algorithm="mule", alpha=0.5, kernel="vector")
        )
        payload["kernel"] = "simd"
        with pytest.raises(ParameterError, match="unknown kernel"):
            codec.request_from_wire(payload)

    def test_non_string_kernel_rejected(self):
        payload = envelope_of(
            EnumerationRequest(algorithm="mule", alpha=0.5, kernel="vector")
        )
        payload["kernel"] = 2
        with pytest.raises(FormatError, match="kernel must be str"):
            codec.request_from_wire(payload)

    def test_nested_request_carries_kernel(self):
        request = EnumerationRequest(algorithm="mule", alpha=0.5, kernel="vector")
        ref_payload = codec.ref_request_to_wire(request, graph="ppi")
        ref, decoded = codec.ref_request_from_wire(ref_payload)
        assert ref == "ppi"
        assert decoded.kernel == "vector"


class TestTypeStrictness:
    def test_string_alpha_rejected(self):
        payload = envelope_of(EnumerationRequest(algorithm="mule", alpha=0.5))
        payload["alpha"] = "0.5"
        with pytest.raises(FormatError, match="alpha must be int/float"):
            codec.from_wire(payload)

    def test_boolean_where_number_expected_rejected(self):
        payload = envelope_of(EnumerationRequest(algorithm="mule", alpha=0.5))
        payload["workers"] = True
        with pytest.raises(FormatError, match="must not be a boolean"):
            codec.from_wire(payload)

    def test_null_where_required_rejected(self):
        payload = envelope_of(EnumerationRequest(algorithm="mule", alpha=0.5))
        payload["backend"] = None
        with pytest.raises(FormatError, match="must not be null"):
            codec.from_wire(payload)

    def test_negative_counter_rejected(self):
        payload = envelope_of(SearchStatistics(recursive_calls=3))
        payload["recursive_calls"] = -1
        with pytest.raises(FormatError, match=">= 0"):
            codec.from_wire(payload)

    def test_unknown_stop_reason_rejected(self):
        payload = envelope_of(RunReport())
        payload["stop_reason"] = "bored"
        with pytest.raises(FormatError, match="stop_reason"):
            codec.from_wire(payload)

    def test_duplicate_vertices_rejected(self):
        payload = envelope_of(CliqueRecord(vertices=frozenset({1, 2}), probability=0.5))
        payload["vertices"] = [1, 1]
        with pytest.raises(FormatError, match="duplicate"):
            codec.from_wire(payload)

    def test_boolean_vertex_label_rejected(self):
        payload = envelope_of(CliqueRecord(vertices=frozenset({1}), probability=0.5))
        payload["vertices"] = [True]
        with pytest.raises(FormatError, match="vertex label"):
            codec.from_wire(payload)

    def test_unencodable_vertex_label_rejected_at_encode(self):
        record = CliqueRecord(vertices=frozenset({(1, 2)}), probability=0.5)
        with pytest.raises(FormatError, match="not wire-encodable"):
            codec.to_wire(record)

    def test_domain_validation_uses_library_exceptions(self):
        # Structurally valid wire payloads with out-of-domain values raise
        # the same types local construction raises — not FormatError.
        payload = envelope_of(EnumerationRequest(algorithm="mule", alpha=0.5))
        payload["alpha"] = 1.5
        with pytest.raises(ProbabilityError):
            codec.from_wire(payload)
        payload = envelope_of(EnumerationRequest(algorithm="mule", alpha=0.5))
        payload["algorithm"] = "quantum"
        with pytest.raises(ParameterError):
            codec.from_wire(payload)


class TestSweepEnvelope:
    def test_roundtrip(self):
        base = EnumerationRequest(algorithm="fast", alpha=0.3)
        request, alphas = codec.sweep_from_wire(
            codec.sweep_to_wire(base, [0.3, 0.5, 0.7])
        )
        assert request == base
        assert alphas == [0.3, 0.5, 0.7]

    def test_empty_alphas_rejected(self):
        payload = codec.sweep_to_wire(
            EnumerationRequest(algorithm="mule", alpha=0.5), [0.5]
        )
        payload["alphas"] = []
        with pytest.raises(FormatError, match="must not be empty"):
            codec.sweep_from_wire(payload)

    def test_non_numeric_alpha_rejected(self):
        payload = codec.sweep_to_wire(
            EnumerationRequest(algorithm="mule", alpha=0.5), [0.5]
        )
        payload["alphas"] = ["0.5"]
        with pytest.raises(FormatError, match="must be numbers"):
            codec.sweep_from_wire(payload)


class TestErrorEnvelope:
    def test_known_type_reconstructed(self):
        error = codec.from_wire(codec.to_wire(ParameterError("bad k")))
        assert isinstance(error, ParameterError)
        assert str(error) == "bad k"

    def test_unknown_type_degrades_to_repro_error(self):
        error = codec.error_from_wire(
            {
                "schema": codec.SCHEMA_VERSION,
                "kind": "error",
                "type": "KeyboardInterrupt",
                "message": "boom",
            }
        )
        assert type(error) is ReproError
        assert "KeyboardInterrupt" in str(error)

    def test_service_error_is_wire_codable(self):
        error = codec.from_wire(codec.to_wire(ServiceError("down")))
        assert isinstance(error, ServiceError)


class TestGenericDispatch:
    def test_to_wire_rejects_unknown_types(self):
        with pytest.raises(FormatError, match="not wire-codable"):
            codec.to_wire(object())

    def test_record_list_dispatch(self):
        records = [CliqueRecord(vertices=frozenset({1, 2}), probability=0.25)]
        assert codec.from_wire(codec.to_wire(records)) == records

    def test_every_wire_type_dispatches_back(self):
        objects = [
            EnumerationRequest(algorithm="mule", alpha=0.5),
            EnumerationOutcome(algorithm="mule", alpha=0.5),
            RunControls(max_cliques=5),
            RunReport(),
            SearchStatistics(),
            CliqueRecord(vertices=frozenset({1}), probability=1.0),
        ]
        for obj in objects:
            decoded = codec.from_wire(codec.to_wire(obj))
            assert type(decoded) is type(obj)


class TestGraphCodec:
    """The lossless graph envelope (schema v2) and its strictness rules."""

    def roundtrip(self, graph):
        wire = codec.graph_to_wire(graph)
        return codec.graph_from_wire(codec.decode(codec.encode(wire)))

    def test_roundtrip_preserves_everything(self):
        graph = UncertainGraph(
            vertices=["isolated", 99],
            edges=[(1, 2, 0.9), (2, "gene", 1 / 3), (2.5, "gene", 0.0625)],
        )
        back = self.roundtrip(graph)
        assert back == graph
        assert back.probability(2, "gene") == 1 / 3  # exact float survival
        assert set(back.vertices()) == set(graph.vertices())

    def test_empty_and_edgeless_graphs(self):
        assert self.roundtrip(UncertainGraph()) == UncertainGraph()
        lonely = UncertainGraph(vertices=[1, 2, 3])
        assert self.roundtrip(lonely) == lonely

    def test_encoding_is_canonical_regardless_of_insertion_order(self):
        a = UncertainGraph(edges=[(1, 2, 0.5), (2, 3, 0.25)])
        b = UncertainGraph(edges=[(3, 2, 0.25), (2, 1, 0.5)])
        assert codec.encode(codec.graph_to_wire(a)) == codec.encode(
            codec.graph_to_wire(b)
        )

    def test_unencodable_labels_rejected(self):
        graph = UncertainGraph(edges=[((1, 2), 3, 0.5)])
        with pytest.raises(FormatError, match="not wire-encodable"):
            codec.graph_to_wire(graph)

    def test_duplicate_vertices_rejected(self):
        payload = codec.graph_to_wire(UncertainGraph(vertices=[1, 2]))
        payload["vertices"] = [1, 1.0]
        with pytest.raises(FormatError, match="duplicate vertex"):
            codec.graph_from_wire(payload)

    def test_duplicate_edges_rejected(self):
        payload = codec.graph_to_wire(UncertainGraph(edges=[(1, 2, 0.5)]))
        payload["edges"] = [[1, 2, 0.5], [2, 1, 0.5]]
        with pytest.raises(FormatError, match="duplicate edge"):
            codec.graph_from_wire(payload)

    def test_edge_endpoint_missing_from_vertex_list_rejected(self):
        payload = codec.graph_to_wire(UncertainGraph(edges=[(1, 2, 0.5)]))
        payload["edges"] = [[1, 3, 0.5]]
        with pytest.raises(FormatError, match="endpoint missing"):
            codec.graph_from_wire(payload)

    def test_domain_errors_delegate_to_constructors(self):
        from repro.errors import ProbabilityError

        payload = codec.graph_to_wire(UncertainGraph(edges=[(1, 2, 0.5)]))
        payload["edges"] = [[1, 2, 1.5]]
        with pytest.raises(ProbabilityError):
            codec.graph_from_wire(payload)

    def test_boolean_probability_rejected_structurally(self):
        payload = codec.graph_to_wire(UncertainGraph(edges=[(1, 2, 0.5)]))
        payload["edges"] = [[1, 2, True]]
        with pytest.raises(FormatError, match="must be a number"):
            codec.graph_from_wire(payload)

    @staticmethod
    def decode_edges(edges):
        """Decode a graph payload with vertices 1 and 2 and these edges."""
        payload = codec.graph_to_wire(UncertainGraph(vertices=[1, 2]))
        payload["edges"] = edges
        return codec.graph_from_wire(payload)

    def test_self_loop_raises_what_local_construction_raises(self):
        with pytest.raises(EdgeError) as local:
            UncertainGraph(vertices=[1, 2]).add_edge(1, 1, 0.5)
        with pytest.raises(EdgeError) as wire:
            self.decode_edges([[1, 1, 0.5]])
        assert str(wire.value) == str(local.value)
        assert str(wire.value) == (
            "self-loop on vertex 1 is not allowed in a simple graph"
        )

    @pytest.mark.parametrize(
        "probability, message",
        [
            (0, "edge probability must lie in (0, 1], got 0.0"),
            (float("nan"), "edge probability must be finite, got nan"),
        ],
    )
    def test_probability_outside_unit_interval(self, probability, message):
        with pytest.raises(ProbabilityError) as excinfo:
            self.decode_edges([[1, 2, probability]])
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "entry", [{"u": 1, "v": 2, "p": 0.5}, "1 2 0.5", [1, 2], [1, 2, 0.5, 0.5]]
    )
    def test_malformed_edge_entry(self, entry):
        with pytest.raises(FormatError) as excinfo:
            self.decode_edges([entry])
        assert str(excinfo.value) == (
            f"graph: edge entry must be [u, v, p], got {entry!r}"
        )

    def test_boolean_endpoint_is_not_vertex_one(self):
        # True == 1 in Python, but a JSON true is never a vertex label.
        with pytest.raises(FormatError) as excinfo:
            self.decode_edges([[True, 2, 0.5]])
        assert str(excinfo.value) == (
            "graph: vertex label True must be int, float or str"
        )

    def test_edge_checks_run_in_order(self):
        # The duplicate check comes before the self-loop and probability
        # checks, and the first bad entry decides the error.
        with pytest.raises(FormatError, match="duplicate edge"):
            self.decode_edges([[1, 2, 0.5], [2.0, 1, 0.0]])
        with pytest.raises(EdgeError):
            self.decode_edges([[1, 1, 0.0], [1, 2, 2.0]])


class TestUploadAndRefEnvelopes:
    def test_upload_requires_exactly_one_source(self):
        with pytest.raises(FormatError, match="exactly one"):
            codec.upload_to_wire(codec.GraphUpload())
        with pytest.raises(FormatError, match="exactly one"):
            codec.upload_to_wire(
                codec.GraphUpload(
                    graph=UncertainGraph(edges=[(1, 2, 0.5)]), dataset="ppi"
                )
            )

    def test_upload_scale_requires_dataset(self):
        with pytest.raises(FormatError, match="only valid with dataset"):
            codec.upload_to_wire(
                codec.GraphUpload(
                    graph=UncertainGraph(edges=[(1, 2, 0.5)]), scale=0.5
                )
            )

    def test_upload_roundtrip_both_sources(self):
        by_dataset = codec.GraphUpload(dataset="ppi", scale=0.05, seed=1, name="x")
        assert codec.upload_from_wire(codec.upload_to_wire(by_dataset)) == by_dataset
        graph = UncertainGraph(edges=[("a", "b", 0.5)])
        by_graph = codec.upload_from_wire(
            codec.upload_to_wire(codec.GraphUpload(graph=graph))
        )
        assert by_graph.graph == graph and by_graph.dataset is None

    def test_ref_request_roundtrip(self):
        request = EnumerationRequest(algorithm="large", alpha=0.25, size_threshold=3)
        for ref in ("ppi", None):
            wire = codec.ref_request_to_wire(request, graph=ref)
            assert codec.ref_request_from_wire(wire) == (ref, request)

    def test_ref_sweep_roundtrip_and_empty_alphas_rejected(self):
        request = EnumerationRequest(algorithm="mule", alpha=0.5)
        wire = codec.ref_sweep_to_wire(request, [0.5, 0.75], graph="g")
        assert codec.ref_sweep_from_wire(wire) == ("g", request, [0.5, 0.75])
        wire["alphas"] = []
        with pytest.raises(FormatError, match="must not be empty"):
            codec.ref_sweep_from_wire(wire)

    def test_graph_info_and_list_roundtrip(self):
        from repro.api import GraphInfo

        infos = [
            GraphInfo(
                fingerprint="ab" * 32,
                name="a",
                num_vertices=3,
                num_edges=2,
                pinned=True,
                default=True,
            ),
            GraphInfo(
                fingerprint="cd" * 32,
                name=None,
                num_vertices=0,
                num_edges=0,
                pinned=False,
                default=False,
            ),
        ]
        assert codec.graph_list_from_wire(codec.graph_list_to_wire(infos)) == infos
        for info in infos:
            assert codec.from_wire(codec.graph_info_to_wire(info)) == info
