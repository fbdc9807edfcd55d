"""The conformance corpus — golden wire-format fixtures.

Every ``fixtures/*.json`` file is a canonically-encoded payload produced by
``make_fixtures.py``.  The tests assert two independent things:

* **byte-stable encoding** — decoding a fixture and re-encoding it through
  the codec reproduces the exact bytes on disk.  Any change to envelope
  shape, key names, canonical formatting or float rendering fails here and
  must come with a deliberate fixture regeneration (i.e. a reviewable
  diff) and, for semantic changes, a schema-version bump;
* **decode equality** — fixtures decode to exactly the objects they were
  built from, pinning the semantics, not just the spelling.
"""

from __future__ import annotations

import copy
import re
from pathlib import Path

import pytest

from repro.api import EnumerationRequest
from repro.core.engine import RunControls, StopReason
from repro.errors import ParameterError, ReproError
from repro.service import codec

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_PATHS = sorted(FIXTURES.glob("*.json"))


def roundtrip(raw: bytes) -> bytes:
    """Decode fixture bytes to an object and re-encode them canonically.

    An envelope that carried its records as columns, or an upload that
    carried its graph as columns, is re-encoded with columns.
    """
    payload = codec.decode(raw)
    kind = payload.get("kind")
    columns = "columns" in payload
    if kind == "graph-upload":
        graph = payload.get("graph")
        packed = isinstance(graph, dict) and graph.get("kind") == "graph-columns"
        upload = codec.upload_from_wire(payload)
        return codec.encode(codec.upload_to_wire(upload, columns=packed))
    if kind == "enumeration-outcome":
        outcome = codec.outcome_from_wire(payload)
        return codec.encode(codec.outcome_to_wire(outcome, columns=columns))
    if kind == "clique-columns":
        return codec.encode(codec.columns_to_wire(codec.columns_from_wire(payload)))
    if kind == "sweep-request":
        request, alphas = codec.sweep_from_wire(payload)
        return codec.encode(codec.sweep_to_wire(request, alphas))
    if kind == "graph-ref-request":
        ref, request = codec.ref_request_from_wire(payload)
        return codec.encode(codec.ref_request_to_wire(request, graph=ref))
    if kind == "graph-ref-sweep":
        ref, request, alphas = codec.ref_sweep_from_wire(payload)
        return codec.encode(codec.ref_sweep_to_wire(request, alphas, graph=ref))
    if kind == "job-request":
        ref, request, page_size = codec.job_request_from_wire(payload)
        return codec.encode(
            codec.job_request_to_wire(request, graph=ref, page_size=page_size)
        )
    if kind == "job-result-chunk":
        chunk = codec.job_chunk_from_wire(payload)
        return codec.encode(codec.job_chunk_to_wire(chunk, columns=columns))
    if kind == "metrics":
        # A metrics snapshot decodes to a plain dict, which the generic
        # to_wire dispatcher (rightly) refuses to guess a kind for.
        return codec.encode(codec.metrics_to_wire(codec.metrics_from_wire(payload)))
    obj = codec.from_wire(payload)
    if kind == "error":
        return codec.encode(codec.error_to_wire(obj))
    return codec.encode(codec.to_wire(obj))


def test_corpus_is_present():
    """The corpus must never silently vanish (glob returning [] passes
    parametrized tests vacuously)."""
    assert len(FIXTURE_PATHS) >= 20


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_byte_stable_roundtrip(path):
    raw = path.read_bytes()
    assert roundtrip(raw) == raw, (
        f"{path.name} no longer round-trips byte-for-byte; if the schema "
        f"changed deliberately, bump SCHEMA_VERSION and regenerate with "
        f"make_fixtures.py"
    )


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_fixture_envelopes_are_versioned(path):
    payload = codec.decode(path.read_bytes())
    assert payload["schema"] in codec.SUPPORTED_SCHEMA_VERSIONS
    assert isinstance(payload["kind"], str)


def _restamp(payload, version):
    """Recursively rewrite every nested envelope's schema version."""
    if isinstance(payload, dict):
        restamped = {k: _restamp(v, version) for k, v in payload.items()}
        if "schema" in restamped and "kind" in restamped:
            restamped["schema"] = version
        return restamped
    if isinstance(payload, list):
        return [_restamp(item, version) for item in payload]
    return payload


@pytest.mark.parametrize(
    "path",
    [p for p in FIXTURE_PATHS if not p.stem.startswith(("graph", "job"))],
    ids=lambda p: p.stem,
)
def test_v1_corpus_decodes_identically_under_v2(path):
    """The v1→v2 compatibility contract: every v1 envelope decodes to the
    same object whether stamped schema 1 (an old client) or schema 2 (a new
    one) — v2 is strictly additive over the v1 kinds."""
    original = codec.decode(path.read_bytes())
    restamped = _restamp(original, codec.SCHEMA_VERSION_V2)

    def load(payload):
        kind = payload.get("kind")
        if kind == "sweep-request":
            return codec.sweep_from_wire(payload)
        obj = codec.from_wire(payload)
        if kind == "error":
            # Exceptions compare by identity; their decoded meaning is
            # (reconstructed type, message).
            return type(obj), str(obj)
        return obj

    assert load(restamped) == load(original)


class TestDecodeEquality:
    """Fixtures decode to exactly the objects they encode."""

    def load(self, name: str):
        return codec.decode((FIXTURES / f"{name}.json").read_bytes())

    def test_request_mule_default(self):
        request = codec.from_wire(self.load("request_mule_default"))
        assert request == EnumerationRequest(algorithm="mule", alpha=0.5)

    def test_request_large_with_controls(self):
        request = codec.from_wire(self.load("request_large_with_controls"))
        assert request == EnumerationRequest(
            algorithm="large",
            alpha=0.25,
            size_threshold=3,
            controls=RunControls(
                max_cliques=100, time_budget_seconds=1.5, check_every_frames=64
            ),
        )

    def test_request_parallel_sharded(self):
        request = codec.from_wire(self.load("request_parallel_sharded"))
        assert request == EnumerationRequest(
            algorithm="fast",
            alpha=0.5,
            workers=4,
            num_shards=8,
            backend="inline",
            execution="parallel",
        )
        assert request.parallel

    def test_request_top_k_threshold_search(self):
        request = codec.from_wire(self.load("request_top_k_threshold_search"))
        assert request == EnumerationRequest(
            algorithm="top_k", k=5, min_size=3, prune_edges=False
        )
        assert request.alpha is None

    def test_outcome_mule_triangle(self):
        outcome = codec.from_wire(self.load("outcome_mule_triangle"))
        assert outcome.algorithm == "mule"
        assert outcome.alpha == 0.5
        assert outcome.records_by_vertices() == {
            frozenset({1, 2, 3}): pytest.approx(0.729, abs=1e-12),
            frozenset({4}): 1.0,
        }
        assert outcome.stop_reason == StopReason.COMPLETED
        assert outcome.statistics.recursive_calls == 9
        assert outcome.report.frames_expanded == 9
        assert outcome.request == EnumerationRequest(algorithm="mule", alpha=0.5)

    def test_outcome_top_k_ranked(self):
        outcome = codec.from_wire(self.load("outcome_top_k_ranked"))
        assert outcome.algorithm == "top-k"
        assert [sorted(r.vertices) for r in outcome.records] == [[1, 2, 3]]
        assert outcome.request.k == 2

    def test_sweep_request_five_alphas(self):
        request, alphas = codec.sweep_from_wire(
            self.load("sweep_request_five_alphas")
        )
        assert request == EnumerationRequest(algorithm="mule", alpha=0.5)
        assert alphas == [0.5, 0.6, 0.7, 0.8, 0.9]

    def test_records_string_labels(self):
        records = codec.from_wire(self.load("records_string_labels"))
        assert [r.vertices for r in records] == [
            frozenset({"ana", "bob", "cal"}),
            frozenset({"dee"}),
        ]

    def test_error_parameter(self):
        error = codec.from_wire(self.load("error_parameter"))
        assert isinstance(error, ParameterError)
        assert "requires k" in str(error)

    def test_graph_mixed_labels(self):
        from repro.uncertain.graph import UncertainGraph

        graph = codec.from_wire(self.load("graph_mixed_labels"))
        assert graph == UncertainGraph(
            vertices=["isolated"],
            edges=[(1, 2, 0.9), (2, "gene", 1 / 3), (2.5, "gene", 0.0625)],
        )
        # Exact float round-trip of a non-terminating binary fraction.
        assert graph.probability(2, "gene") == 1 / 3

    def test_graph_upload(self):
        upload = codec.from_wire(self.load("graph_upload"))
        assert upload == codec.GraphUpload(
            dataset="ppi", scale=0.05, seed=2015, name="ppi"
        )

    def test_graph_upload_literal(self):
        from tests.service.make_fixtures import fixture_graph

        upload = codec.from_wire(self.load("graph_upload_literal"))
        assert upload.graph == fixture_graph()
        assert upload.dataset is None
        assert upload.name == "triangle"

    def test_graph_upload_columns(self):
        """The packed upload holds the graph the ``graph`` fixture holds."""
        from tests.service.make_fixtures import mixed_label_graph

        upload = codec.from_wire(self.load("graph_upload_columns"))
        graph = codec.from_wire(self.load("graph_mixed_labels"))
        assert upload.graph == graph == mixed_label_graph()
        assert upload.graph.fingerprint() == graph.fingerprint()
        assert upload.graph.probability(2, "gene") == 1 / 3
        assert (upload.dataset, upload.name) == (None, "mixed")

    def test_graph_ref_request(self):
        ref, request = codec.ref_request_from_wire(self.load("graph_ref_request"))
        assert ref == "ppi"
        assert request == EnumerationRequest(algorithm="mule", alpha=0.5)

    def test_graph_ref_sweep(self):
        ref, request, alphas = codec.ref_sweep_from_wire(
            self.load("graph_ref_sweep")
        )
        assert ref == "ppi"
        assert request == EnumerationRequest(algorithm="mule", alpha=0.5)
        assert alphas == [0.5, 0.6, 0.7, 0.8, 0.9]

    def test_graph_info_ppi(self):
        info = codec.from_wire(self.load("graph_info_ppi"))
        assert info.name == "ppi"
        assert info.num_vertices == 3751
        assert info.pinned and info.default

    def test_job_request_paged(self):
        ref, request, page_size = codec.job_request_from_wire(
            self.load("job_request_paged")
        )
        assert ref == "ppi"
        assert request == EnumerationRequest(algorithm="mule", alpha=0.5)
        assert page_size == 128

    def test_job_status_running(self):
        status = codec.from_wire(self.load("job_status_running"))
        assert status == codec.JobStatus(
            id="job-000001",
            state="running",
            cliques_emitted=12,
            frames_expanded=40,
            elapsed_seconds=0.03125,
            records=12,
        )

    def test_job_status_failed(self):
        status = codec.from_wire(self.load("job_status_failed"))
        assert status.state == "failed"
        assert isinstance(status.error, ParameterError)
        assert "requires k" in str(status.error)

    def test_job_result_chunk_page(self):
        chunk = codec.from_wire(self.load("job_result_chunk_page"))
        assert chunk.job == "job-000002"
        assert chunk.seq == 0
        assert not chunk.final
        assert chunk.summary is None and chunk.error is None
        assert {r.vertices for r in chunk.records} == {
            frozenset({1, 2, 3}),
            frozenset({4}),
        }

    def test_job_result_chunk_final(self):
        chunk = codec.from_wire(self.load("job_result_chunk_final"))
        assert chunk.final
        assert chunk.error is None
        assert chunk.records == ()
        summary = chunk.summary
        assert summary.algorithm == "mule"
        assert summary.records == []
        assert summary.report.stop_reason == StopReason.COMPLETED
        assert summary.request == EnumerationRequest(algorithm="mule", alpha=0.5)

    def test_columns_mixed_labels(self):
        from tests.service.make_fixtures import column_records

        records = codec.from_wire(self.load("columns_mixed_labels"))
        expected = column_records()
        assert [r.vertices for r in records] == [r.vertices for r in expected]
        assert [r.probability.hex() for r in records] == [
            r.probability.hex() for r in expected
        ]
        assert [r.probability for r in records] == [
            0.1, 1.0, 5e-324, 0.12499999999999999
        ]

    def test_outcome_mule_triangle_columns(self):
        """Columns decode to exactly the outcome the rows fixture holds."""
        columns = codec.from_wire(self.load("outcome_mule_triangle_columns"))
        rows = codec.from_wire(self.load("outcome_mule_triangle"))
        assert columns.records == rows.records
        assert [r.probability for r in columns.records] == [
            r.probability for r in rows.records
        ]
        columns.assert_matches(rows)
        assert columns.elapsed_seconds == rows.elapsed_seconds

    def test_job_result_chunk_page_columns(self):
        from tests.service.make_fixtures import column_records

        chunk = codec.from_wire(self.load("job_result_chunk_page_columns"))
        assert (chunk.job, chunk.seq, chunk.final) == ("job-000002", 0, False)
        assert chunk.summary is None and chunk.error is None
        assert [(r.vertices, r.probability) for r in chunk.records] == [
            (r.vertices, r.probability) for r in column_records()
        ]

    def test_job_list_mixed(self):
        statuses = codec.from_wire(self.load("job_list_mixed"))
        assert [s.id for s in statuses] == ["job-000001", "job-000002"]
        assert [s.state for s in statuses] == ["running", "done"]

    def test_metrics_snapshot(self):
        from tests.service.make_fixtures import metrics_snapshot

        snapshot = codec.metrics_from_wire(self.load("metrics_snapshot"))
        assert snapshot == metrics_snapshot()
        series = snapshot["histograms"][
            "http_request_seconds{endpoint=/v1/stats}"
        ]
        # Exact binary fractions: the fixture builder observed 1/32, 1/8
        # and 1/2 into buckets (1/16, 1/4, 1).
        assert series["counts"] == [1, 1, 1, 0]
        assert series["sum"] == 0.65625


# --------------------------------------------------------------------- #
# The wire freeze: fixtures, the regeneration script and the docs against
# the codec's kind table
# --------------------------------------------------------------------- #
DOCS = Path(__file__).resolve().parents[2] / "docs" / "service.md"


def kinds():
    """The codec's kind table, by name."""
    return {kind.name: kind for kind in codec._KINDS}


def envelopes(value, path=()):
    """Every envelope inside ``value`` (itself included), with its path."""
    if isinstance(value, dict):
        if "schema" in value and "kind" in value:
            yield path, value
        for key, item in value.items():
            yield from envelopes(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from envelopes(item, path + (index,))


def corpus():
    return {path.stem: codec.decode(path.read_bytes()) for path in FIXTURE_PATHS}


def test_the_table_describes_every_kind_once():
    assert len(codec._KINDS) == len(kinds()) == 24
    assert set(codec._DECODERS) == set(kinds()) - {
        "sweep-request", "graph-ref-request", "graph-ref-sweep", "job-request"
    }


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_fixture_envelopes_carry_their_table_fields(path):
    """A v1 stamp carries exactly the frozen v1 fields; any other stamp
    may add only the kind's declared additive keys."""
    table = kinds()
    found = list(envelopes(codec.decode(path.read_bytes())))
    assert found
    for where, envelope in found:
        kind = table.get(envelope["kind"])
        assert kind is not None, f"{where}: unknown kind {envelope['kind']!r}"
        keys = set(envelope) - {"schema", "kind"}
        if envelope["schema"] == codec.SCHEMA_VERSION:
            assert keys == kind.keys, where
        else:
            assert kind.keys <= keys <= kind.keys | {f.name for f in kind.additive}, where


def test_every_kind_has_a_golden_fixture():
    seen = {
        envelope["kind"]
        for payload in corpus().values()
        for _, envelope in envelopes(payload)
    }
    assert seen == set(kinds())


def test_every_fixture_is_regenerated_by_make_fixtures():
    from tests.service.make_fixtures import build_payloads

    assert set(build_payloads()) == {path.stem for path in FIXTURE_PATHS}


def test_make_fixtures_reproduces_every_fixture_byte_for_byte():
    """Running ``make_fixtures.py`` leaves the corpus exactly as checked in."""
    from tests.service.make_fixtures import build_payloads

    payloads = build_payloads()
    assert payloads
    changed = [
        name
        for name, payload in sorted(payloads.items())
        if codec.encode(payload) != (FIXTURES / f"{name}.json").read_bytes()
    ]
    assert changed == []


def test_stop_reason_vocabulary_is_complete():
    members = {
        value for name, value in vars(StopReason).items() if name.isupper()
    }
    assert set(codec._STOP_REASONS) == members
    assert len(codec._STOP_REASONS) == len(members)


def test_docs_kinds_table_matches_the_codec_table():
    rows = re.findall(r"^\| `([a-z-]+)` \| (\d) \|", DOCS.read_text(), re.M)
    assert rows
    assert {kind: int(since) for kind, since in rows} == {
        kind.name: kind.since for kind in codec._KINDS
    }
    assert len(rows) == len(codec._KINDS)


# --------------------------------------------------------------------- #
# Malformed input raises only library errors
# --------------------------------------------------------------------- #
JSON_VALUES = [None, True, -1, 1.5, "x", [], {}]
NON_OBJECTS = [None, [], "x", 3]


def replace(payload, path, new):
    if not path:
        return new
    payload = copy.deepcopy(payload)
    target = payload
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = new
    return payload


def mutations(payload):
    """One-fault variants of every envelope in ``payload``."""
    for path, envelope in envelopes(payload):
        for key in envelope:
            dropped = dict(envelope)
            del dropped[key]
            yield replace(payload, path, dropped)
            for value in JSON_VALUES:
                yield replace(payload, path, {**envelope, key: copy.deepcopy(value)})
        yield replace(payload, path, {**envelope, "surprise": 1})
        for value in NON_OBJECTS:
            yield replace(payload, path, value)


def test_malformed_input_raises_only_library_errors():
    """Decoding a damaged fixture through its kind's decoder (``from_wire``
    where it dispatches the kind) either yields a value that re-encodes to
    stable bytes or raises a :class:`ReproError`, never a ``TypeError``,
    ``KeyError`` or ``AttributeError``."""
    cases = 0
    for name, payload in corpus().items():
        for mutated in mutations(payload):
            cases += 1
            try:
                first = roundtrip(codec.encode(mutated))
            except ReproError:
                continue
            assert roundtrip(first) == first, name
    assert cases > 4000
