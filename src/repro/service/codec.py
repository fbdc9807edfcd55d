"""The wire codec — lossless JSON round-trips for the session vocabulary.

Every payload the service layer moves across a process boundary is encoded
here: :class:`~repro.api.request.EnumerationRequest`,
:class:`~repro.api.outcome.EnumerationOutcome`, the
:class:`~repro.core.result.SearchStatistics` /
:class:`~repro.core.engine.controls.RunReport` counters,
:class:`~repro.core.result.CliqueRecord` lists, and the service-only
envelopes (sweep requests, outcome lists, errors).

Design rules — these are the compatibility contract the conformance corpus
(``tests/service/fixtures``) pins down:

* **Envelopes.**  Every encoded object is a JSON object carrying
  ``"schema"`` (the integer :data:`SCHEMA_VERSION`) and ``"kind"`` (the
  type tag :func:`from_wire` dispatches on).  Nested objects are full
  envelopes too, so any payload fragment is self-describing.
* **Strictness.**  Decoding rejects unknown keys, missing keys, wrong JSON
  types, unsupported schema versions and the non-JSON number tokens
  ``NaN`` / ``Infinity`` with :class:`~repro.errors.FormatError`.  Domain
  validation (α out of range, inconsistent request fields) is delegated to
  the constructors, so wire decoding raises exactly the exception types
  local construction raises.
* **Determinism.**  :func:`encode` is canonical — sorted keys, compact
  separators, ASCII, no NaN/Infinity, one trailing newline — so equal
  objects always encode to equal bytes (what makes golden-fixture diffs
  meaningful).
* **Losslessness.**  Floats are emitted via ``repr`` (shortest round-trip,
  exact since Python 3.1) and vertex labels are restricted to the
  JSON-faithful types ``int`` / ``float`` / ``str``; anything else is
  rejected at encode time rather than silently coerced.

>>> from repro.api import EnumerationRequest
>>> request = EnumerationRequest(algorithm="mule", alpha=0.5)
>>> from_wire(to_wire(request)) == request
True
"""

from __future__ import annotations

import json
from collections.abc import Hashable, Iterable, Mapping, Sequence

from typing import Any, NamedTuple, NoReturn

from ..api.outcome import EnumerationOutcome
from ..api.request import EnumerationRequest
from ..api.store import GraphInfo
from ..core.engine.controls import RunControls, RunReport, StopReason
from ..core.result import CliqueRecord, SearchStatistics
from .. import errors as _errors
from ..errors import FormatError, ReproError
from ..uncertain.graph import UncertainGraph

__all__ = [
    "SCHEMA_VERSION",
    "SCHEMA_VERSION_V2",
    "SUPPORTED_SCHEMA_VERSIONS",
    "encode",
    "decode",
    "to_wire",
    "from_wire",
    "request_to_wire",
    "request_from_wire",
    "outcome_to_wire",
    "outcome_from_wire",
    "controls_to_wire",
    "controls_from_wire",
    "report_to_wire",
    "report_from_wire",
    "statistics_to_wire",
    "statistics_from_wire",
    "record_to_wire",
    "record_from_wire",
    "records_to_wire",
    "records_from_wire",
    "sweep_to_wire",
    "sweep_from_wire",
    "error_to_wire",
    "error_from_wire",
    "graph_to_wire",
    "graph_from_wire",
    "graph_info_to_wire",
    "graph_info_from_wire",
    "graph_list_to_wire",
    "graph_list_from_wire",
    "GraphUpload",
    "upload_to_wire",
    "upload_from_wire",
    "ref_request_to_wire",
    "ref_request_from_wire",
    "ref_sweep_to_wire",
    "ref_sweep_from_wire",
    "JOB_STATES",
    "JobStatus",
    "JobChunk",
    "job_request_to_wire",
    "job_request_from_wire",
    "job_status_to_wire",
    "job_status_from_wire",
    "job_summary_to_wire",
    "job_summary_from_wire",
    "job_chunk_to_wire",
    "job_chunk_from_wire",
    "job_list_to_wire",
    "job_list_from_wire",
    "metrics_to_wire",
    "metrics_from_wire",
]

#: Version of the original (v1) envelope generation.  Kinds introduced in
#: v1 keep stamping this version — their shape is frozen; see the
#: versioning policy in ``docs/service.md``.
SCHEMA_VERSION = 1

#: Version of the resource-model envelope generation (graphs as first-class
#: references).  Kinds introduced here stamp this version.
SCHEMA_VERSION_V2 = 2

#: Every version this codec decodes.  v2 is additive: v1 payloads decode
#: unchanged (the conformance corpus pins this), and a v1 kind arriving
#: with ``schema: 2`` is accepted too — same shape, newer speaker.
SUPPORTED_SCHEMA_VERSIONS = (SCHEMA_VERSION, SCHEMA_VERSION_V2)

_STOP_REASONS = (
    StopReason.COMPLETED,
    StopReason.MAX_CLIQUES,
    StopReason.TIME_BUDGET,
    StopReason.CANCELLED,
)

#: Wire vocabulary for job lifecycle states.  This is the codec's own
#: literal so the wire contract cannot drift silently when the scheduler
#: vocabulary changes — ``tests/service/test_jobs.py`` asserts it matches
#: :class:`repro.service.jobs.JobState` exactly.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


# ---------------------------------------------------------------------- #
# Canonical bytes
# ---------------------------------------------------------------------- #
def encode(payload: Mapping[str, Any]) -> bytes:
    """Serialise a wire payload to canonical JSON bytes.

    Equal payloads always produce equal bytes: keys are sorted, separators
    compact, output pure ASCII with a single trailing newline.  NaN and
    infinities are rejected (they are not JSON).
    """
    try:
        text = json.dumps(
            payload,
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
            allow_nan=False,
        )
    except (TypeError, ValueError) as exc:
        raise FormatError(f"payload is not wire-encodable: {exc}") from exc
    return text.encode("ascii") + b"\n"


def _reject_constant(token: str) -> NoReturn:
    raise FormatError(f"payload is not valid JSON: {token} is not a JSON number")


#: The one JSON parser :func:`decode` uses.  Unlike the ``json.loads``
#: defaults it refuses the ``NaN`` / ``Infinity`` / ``-Infinity`` tokens,
#: which :func:`encode` can never produce.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def decode(data: bytes | str) -> dict[str, Any]:
    """Parse wire bytes into a payload dict (the inverse of :func:`encode`).

    Only what :func:`encode` can produce is accepted: a JSON object, with
    no ``NaN`` or infinities.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"payload is not valid UTF-8: {exc}") from exc
    try:
        payload = _DECODER.decode(data)
    except json.JSONDecodeError as exc:
        raise FormatError(f"payload is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(
            f"wire payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


# ---------------------------------------------------------------------- #
# Envelope plumbing
# ---------------------------------------------------------------------- #
def _envelope(
    kind: str, fields: dict[str, Any], *, version: int = SCHEMA_VERSION
) -> dict[str, Any]:
    return {"schema": version, "kind": kind, **fields}


def _open_envelope(
    payload: object,
    kind: str,
    keys: frozenset[str],
    *,
    min_version: int = SCHEMA_VERSION,
) -> dict[str, Any]:
    """Validate schema/kind and the exact key set of an envelope.

    ``min_version`` is the version the kind was introduced in: a v2-only
    kind arriving stamped ``schema: 1`` is a lie about its provenance and
    is rejected, while v1 kinds decode under any supported version.
    """
    if not isinstance(payload, dict):
        raise FormatError(
            f"{kind} payload must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("schema")
    if version not in SUPPORTED_SCHEMA_VERSIONS or version < min_version:
        supported = [v for v in SUPPORTED_SCHEMA_VERSIONS if v >= min_version]
        raise FormatError(
            f"unsupported schema version {version!r} for kind {kind!r} "
            f"(this codec speaks versions {supported})"
        )
    actual_kind = payload.get("kind")
    if actual_kind != kind:
        raise FormatError(f"expected a {kind!r} payload, got kind={actual_kind!r}")
    expected = keys | {"schema", "kind"}
    unknown = set(payload) - expected
    if unknown:
        raise FormatError(f"{kind}: unknown keys {sorted(unknown)}")
    missing = expected - set(payload)
    if missing:
        raise FormatError(f"{kind}: missing keys {sorted(missing)}")
    return payload


def _field(
    payload: dict[str, Any],
    kind: str,
    key: str,
    types: type[Any] | tuple[type[Any], ...],
    *,
    optional: bool = False,
) -> Any:
    value = payload[key]
    if value is None:
        if optional:
            return None
        raise FormatError(f"{kind}.{key} must not be null")
    # bool is an int subclass; never accept it where a number is expected.
    if isinstance(value, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        raise FormatError(f"{kind}.{key} must not be a boolean")
    if not isinstance(value, types):
        names = (
            "/".join(t.__name__ for t in types)
            if isinstance(types, tuple)
            else types.__name__
        )
        raise FormatError(
            f"{kind}.{key} must be {names}, got {type(value).__name__}"
        )
    return value


def _number(
    payload: dict[str, Any], kind: str, key: str, *, optional: bool = False
) -> float | None:
    value = _field(payload, kind, key, (int, float), optional=optional)
    return None if value is None else float(value)


# ---------------------------------------------------------------------- #
# Vertices
# ---------------------------------------------------------------------- #
def _vertex_to_wire(vertex: object) -> int | float | str:
    if isinstance(vertex, bool) or not isinstance(vertex, (int, float, str)):
        raise FormatError(
            f"vertex label {vertex!r} is not wire-encodable (labels must be "
            f"int, float or str)"
        )
    return vertex


def _vertex_from_wire(value: object, kind: str) -> int | float | str:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise FormatError(
            f"{kind}: vertex label {value!r} must be int, float or str"
        )
    return value


# ---------------------------------------------------------------------- #
# CliqueRecord
# ---------------------------------------------------------------------- #
_RECORD_KEYS = frozenset({"vertices", "probability"})


def record_to_wire(record: CliqueRecord) -> dict[str, Any]:
    """Encode one clique record (vertices in canonical sorted order)."""
    return _envelope(
        "clique-record",
        {
            "vertices": [_vertex_to_wire(v) for v in record.as_tuple()],
            "probability": record.probability,
        },
    )


def record_from_wire(payload: object) -> CliqueRecord:
    payload = _open_envelope(payload, "clique-record", _RECORD_KEYS)
    raw = _field(payload, "clique-record", "vertices", list)
    vertices = frozenset(_vertex_from_wire(v, "clique-record") for v in raw)
    if len(vertices) != len(raw):
        raise FormatError("clique-record: duplicate vertices")
    probability = _number(payload, "clique-record", "probability")
    return CliqueRecord(vertices=vertices, probability=probability)


_RECORDS_KEYS = frozenset({"records"})


def records_to_wire(records: Iterable[CliqueRecord]) -> dict[str, Any]:
    """Encode a standalone list of clique records."""
    return _envelope(
        "clique-records", {"records": [record_to_wire(r) for r in records]}
    )


def records_from_wire(payload: object) -> list[CliqueRecord]:
    payload = _open_envelope(payload, "clique-records", _RECORDS_KEYS)
    raw = _field(payload, "clique-records", "records", list)
    return [record_from_wire(item) for item in raw]


# ---------------------------------------------------------------------- #
# SearchStatistics / RunReport / RunControls
# ---------------------------------------------------------------------- #
_STATISTICS_KEYS = frozenset(
    {
        "recursive_calls",
        "candidates_examined",
        "probability_multiplications",
        "maximality_checks",
        "pruned_branches",
    }
)


def statistics_to_wire(statistics: SearchStatistics) -> dict[str, Any]:
    return _envelope(
        "search-statistics",
        {key: getattr(statistics, key) for key in _STATISTICS_KEYS},
    )


def statistics_from_wire(payload: object) -> SearchStatistics:
    payload = _open_envelope(payload, "search-statistics", _STATISTICS_KEYS)
    counters = {}
    for key in _STATISTICS_KEYS:
        value = _field(payload, "search-statistics", key, int)
        if value < 0:
            raise FormatError(f"search-statistics.{key} must be >= 0, got {value}")
        counters[key] = value
    return SearchStatistics(**counters)


_REPORT_KEYS = frozenset({"stop_reason", "cliques_emitted", "frames_expanded"})


def report_to_wire(report: RunReport) -> dict[str, Any]:
    return _envelope(
        "run-report",
        {
            "stop_reason": report.stop_reason,
            "cliques_emitted": report.cliques_emitted,
            "frames_expanded": report.frames_expanded,
        },
    )


def report_from_wire(payload: object) -> RunReport:
    payload = _open_envelope(payload, "run-report", _REPORT_KEYS)
    stop_reason = _field(payload, "run-report", "stop_reason", str)
    if stop_reason not in _STOP_REASONS:
        raise FormatError(
            f"run-report.stop_reason must be one of {_STOP_REASONS}, "
            f"got {stop_reason!r}"
        )
    counters = {}
    for key in ("cliques_emitted", "frames_expanded"):
        value = _field(payload, "run-report", key, int)
        if value < 0:
            raise FormatError(f"run-report.{key} must be >= 0, got {value}")
        counters[key] = value
    return RunReport(stop_reason=stop_reason, **counters)


_CONTROLS_KEYS = frozenset(
    {"max_cliques", "time_budget_seconds", "check_every_frames"}
)


def controls_to_wire(controls: RunControls) -> dict[str, Any]:
    return _envelope(
        "run-controls",
        {
            "max_cliques": controls.max_cliques,
            "time_budget_seconds": controls.time_budget_seconds,
            "check_every_frames": controls.check_every_frames,
        },
    )


def controls_from_wire(payload: object) -> RunControls:
    payload = _open_envelope(payload, "run-controls", _CONTROLS_KEYS)
    return RunControls(
        max_cliques=_field(payload, "run-controls", "max_cliques", int, optional=True),
        time_budget_seconds=_number(
            payload, "run-controls", "time_budget_seconds", optional=True
        ),
        check_every_frames=_field(
            payload, "run-controls", "check_every_frames", int
        ),
    )


# ---------------------------------------------------------------------- #
# EnumerationRequest
# ---------------------------------------------------------------------- #
_REQUEST_KEYS = frozenset(
    {
        "algorithm",
        "alpha",
        "k",
        "size_threshold",
        "min_size",
        "prune_edges",
        "shared_neighborhood_filtering",
        "controls",
        "workers",
        "num_shards",
        "backend",
        "execution",
    }
)


def request_to_wire(request: EnumerationRequest) -> dict[str, Any]:
    """Encode a request.  Every field is explicit (nullable ones as null).

    The ``kernel`` and ``root_shard`` fields are the exceptions: they were
    added after the v1 envelope shape was frozen, so each rides as an
    *additive* v2 key — emitted only when it deviates from its default
    (``"auto"`` / ``None``), and its presence promotes the envelope to
    ``schema: 2``.  A request that touches neither therefore still encodes
    to the exact v1 bytes the conformance corpus pins.
    """
    fields = {
        "algorithm": request.algorithm,
        "alpha": request.alpha,
        "k": request.k,
        "size_threshold": request.size_threshold,
        "min_size": request.min_size,
        "prune_edges": request.prune_edges,
        "shared_neighborhood_filtering": request.shared_neighborhood_filtering,
        "controls": (
            None if request.controls is None else controls_to_wire(request.controls)
        ),
        "workers": request.workers,
        "num_shards": request.num_shards,
        "backend": request.backend,
        "execution": request.execution,
    }
    version = SCHEMA_VERSION
    if request.kernel != "auto":
        fields["kernel"] = request.kernel
        version = SCHEMA_VERSION_V2
    if request.root_shard is not None:
        fields["root_shard"] = [_vertex_to_wire(v) for v in request.root_shard]
        version = SCHEMA_VERSION_V2
    return _envelope("enumeration-request", fields, version=version)


def request_from_wire(payload: object) -> EnumerationRequest:
    kind = "enumeration-request"
    keys = _REQUEST_KEYS
    kernel = "auto"
    if isinstance(payload, dict):
        # Additive v2 keys: a v1 speaker cannot have produced them, so an
        # envelope carrying one while claiming schema 1 is rejected.  Each
        # key widens the expected set independently (the branches spell the
        # sets out literally so the wire-freeze rule can read them).
        has_kernel = "kernel" in payload
        has_root_shard = "root_shard" in payload
        if has_kernel or has_root_shard:
            if payload.get("schema") == SCHEMA_VERSION:
                present = "kernel" if has_kernel else "root_shard"
                raise FormatError(
                    f"{kind}.{present} requires schema >= {SCHEMA_VERSION_V2}"
                )
            if has_kernel and has_root_shard:
                keys = _REQUEST_KEYS | {"kernel", "root_shard"}
            elif has_kernel:
                keys = _REQUEST_KEYS | {"kernel"}
            else:
                keys = _REQUEST_KEYS | {"root_shard"}
    payload = _open_envelope(payload, kind, keys)
    if "kernel" in payload:
        kernel = _field(payload, kind, "kernel", str)
    root_shard: tuple[int | float | str, ...] | None = None
    if "root_shard" in payload:
        raw = _field(payload, kind, "root_shard", list)
        root_shard = tuple(_vertex_from_wire(v, kind) for v in raw)
    controls = payload["controls"]
    return EnumerationRequest(
        algorithm=_field(payload, kind, "algorithm", str),
        alpha=_number(payload, kind, "alpha", optional=True),
        k=_field(payload, kind, "k", int, optional=True),
        size_threshold=_field(payload, kind, "size_threshold", int, optional=True),
        min_size=_field(payload, kind, "min_size", int),
        prune_edges=_field(payload, kind, "prune_edges", bool),
        shared_neighborhood_filtering=_field(
            payload, kind, "shared_neighborhood_filtering", bool
        ),
        controls=None if controls is None else controls_from_wire(controls),
        workers=_field(payload, kind, "workers", int, optional=True),
        num_shards=_field(payload, kind, "num_shards", int, optional=True),
        backend=_field(payload, kind, "backend", str),
        execution=_field(payload, kind, "execution", str),
        kernel=kernel,
        root_shard=root_shard,
    )


# ---------------------------------------------------------------------- #
# EnumerationOutcome
# ---------------------------------------------------------------------- #
_OUTCOME_KEYS = frozenset(
    {
        "algorithm",
        "alpha",
        "records",
        "statistics",
        "report",
        "elapsed_seconds",
        "request",
    }
)


def outcome_to_wire(outcome: EnumerationOutcome) -> dict[str, Any]:
    return _envelope(
        "enumeration-outcome",
        {
            "algorithm": outcome.algorithm,
            "alpha": outcome.alpha,
            "records": [record_to_wire(r) for r in outcome.records],
            "statistics": statistics_to_wire(outcome.statistics),
            "report": report_to_wire(outcome.report),
            "elapsed_seconds": outcome.elapsed_seconds,
            "request": (
                None if outcome.request is None else request_to_wire(outcome.request)
            ),
        },
    )


def outcome_from_wire(payload: object) -> EnumerationOutcome:
    payload = _open_envelope(payload, "enumeration-outcome", _OUTCOME_KEYS)
    kind = "enumeration-outcome"
    elapsed = _number(payload, kind, "elapsed_seconds")
    if elapsed < 0:
        raise FormatError(f"{kind}.elapsed_seconds must be >= 0, got {elapsed}")
    raw_records = _field(payload, kind, "records", list)
    request = payload["request"]
    return EnumerationOutcome(
        algorithm=_field(payload, kind, "algorithm", str),
        alpha=_number(payload, kind, "alpha", optional=True),
        records=[record_from_wire(item) for item in raw_records],
        statistics=statistics_from_wire(payload["statistics"]),
        report=report_from_wire(payload["report"]),
        elapsed_seconds=elapsed,
        request=None if request is None else request_from_wire(request),
    )


# ---------------------------------------------------------------------- #
# Service envelopes: sweeps, outcome lists, errors
# ---------------------------------------------------------------------- #
_SWEEP_KEYS = frozenset({"request", "alphas"})


def sweep_to_wire(request: EnumerationRequest, alphas: Sequence[float]) -> dict[str, Any]:
    """Encode a sweep: one base request re-run at each of ``alphas``."""
    return _envelope(
        "sweep-request",
        {"request": request_to_wire(request), "alphas": list(alphas)},
    )


def sweep_from_wire(payload: object) -> tuple[EnumerationRequest, list[float]]:
    payload = _open_envelope(payload, "sweep-request", _SWEEP_KEYS)
    raw = _field(payload, "sweep-request", "alphas", list)
    if not raw:
        raise FormatError("sweep-request.alphas must not be empty")
    alphas = []
    for value in raw:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(
                f"sweep-request.alphas entries must be numbers, got {value!r}"
            )
        alphas.append(float(value))
    return request_from_wire(payload["request"]), alphas


_OUTCOME_LIST_KEYS = frozenset({"outcomes"})


def outcomes_to_wire(outcomes: Iterable[EnumerationOutcome]) -> dict[str, Any]:
    return _envelope(
        "outcome-list", {"outcomes": [outcome_to_wire(o) for o in outcomes]}
    )


def outcomes_from_wire(payload: object) -> list[EnumerationOutcome]:
    payload = _open_envelope(payload, "outcome-list", _OUTCOME_LIST_KEYS)
    raw = _field(payload, "outcome-list", "outcomes", list)
    return [outcome_from_wire(item) for item in raw]


_ERROR_KEYS = frozenset({"type", "message"})


def error_to_wire(exc: BaseException) -> dict[str, Any]:
    """Encode an exception (non-library types degrade to their class name)."""
    return _envelope(
        "error", {"type": type(exc).__name__, "message": str(exc)}
    )


def error_from_wire(payload: object) -> ReproError:
    """Rebuild the library exception an error envelope describes.

    Known :mod:`repro.errors` types are reconstructed so remote callers can
    ``except ParameterError`` exactly as local ones do; anything else
    (including server-side internal errors) degrades to a plain
    :class:`ReproError` that names the original type.
    """
    payload = _open_envelope(payload, "error", _ERROR_KEYS)
    type_name = _field(payload, "error", "type", str)
    message = _field(payload, "error", "message", str)
    cls = getattr(_errors, type_name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(message)
    return ReproError(f"{type_name}: {message}")


# ---------------------------------------------------------------------- #
# Schema v2: graphs as wire values and as references
# ---------------------------------------------------------------------- #
def _vertex_sort_key(vertex: Any) -> tuple[int, Any]:
    """Canonical vertex order: numbers (by exact value) before strings.

    Mixed int/float comparisons are exact in Python, and ``==``-equal
    numerics are the same graph vertex, so ordering by value is total over
    any one graph's vertex set.
    """
    if isinstance(vertex, (int, float)):
        return (0, vertex)
    return (1, vertex)


_GRAPH_KEYS = frozenset({"vertices", "edges"})


def graph_to_wire(graph: UncertainGraph) -> dict[str, Any]:
    """Encode an uncertain graph losslessly (kind ``graph``, schema v2).

    Canonical form: vertices sorted (numbers by value, then strings),
    every edge as ``[u, v, p]`` with ``u`` before ``v`` in that order and
    the edge list sorted likewise.  Probabilities ride as JSON numbers —
    :func:`encode` renders floats by shortest round-trip ``repr``, so the
    exact bit pattern survives.  Labels must be ``int``/``float``/``str``
    (the same restriction clique records have); isolated vertices are
    preserved by the explicit vertex list.

    The vertices are ranked once; edges are then ordered by their pair of
    ranks.  Each edge is taken where :meth:`UncertainGraph.edges` takes
    it, at the endpoint the insertion-order walk visits first, so its far
    label is the one that endpoint's adjacency stores.  That label can be
    ``==``-equal to the vertex yet of another type (edge endpoint ``1.0``
    of vertex ``1``), and it reaches the wire as stored.
    """
    labels = [_vertex_to_wire(v) for v in graph.vertices()]
    vertices = sorted(labels, key=_vertex_sort_key)
    rank = {vertex: index for index, vertex in enumerate(vertices)}
    n = len(vertices)
    keyed: list[tuple[int, int | float | str, int | float | str, float]] = []
    visited: set[object] = set()
    for u in labels:
        ru = rank[u]
        for v, p in graph.adjacency(u).items():
            if v in visited:
                continue  # taken when the walk visited v
            label = _vertex_to_wire(v)
            rv = rank[label]
            if ru < rv:
                keyed.append((ru * n + rv, u, label, p))
            else:
                keyed.append((rv * n + ru, label, u, p))
        visited.add(u)
    keyed.sort()
    return _envelope(
        "graph",
        {"vertices": vertices, "edges": [[a, b, p] for _, a, b, p in keyed]},
        version=SCHEMA_VERSION_V2,
    )


def graph_from_wire(payload: object) -> UncertainGraph:
    """Rebuild an :class:`UncertainGraph` from a ``graph`` envelope.

    Structural problems (malformed entries, duplicate vertices or edges,
    endpoints missing from the vertex list) raise
    :class:`~repro.errors.FormatError`; domain problems (self-loops,
    probabilities outside ``(0, 1]``) raise exactly what local
    construction raises.  The adjacency is filled directly and handed to
    :meth:`UncertainGraph.from_adjacency`, with the checks
    :meth:`UncertainGraph.add_edge` would make done inline.
    """
    payload = _open_envelope(
        payload, "graph", _GRAPH_KEYS, min_version=SCHEMA_VERSION_V2
    )
    raw_vertices = _field(payload, "graph", "vertices", list)
    adjacency: dict[Hashable, dict[Hashable, float]] = {}
    for value in raw_vertices:
        vertex = _vertex_from_wire(value, "graph")
        if vertex in adjacency:
            raise FormatError(f"graph: duplicate vertex {vertex!r}")
        adjacency[vertex] = {}
    raw_edges = _field(payload, "graph", "edges", list)
    for entry in raw_edges:
        if not isinstance(entry, list) or len(entry) != 3:
            raise FormatError(f"graph: edge entry must be [u, v, p], got {entry!r}")
        u = _vertex_from_wire(entry[0], "graph")
        v = _vertex_from_wire(entry[1], "graph")
        if u not in adjacency or v not in adjacency:
            raise FormatError(
                f"graph: edge endpoint missing from the vertex list: {entry!r}"
            )
        p = entry[2]
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise FormatError(f"graph: edge probability must be a number, got {p!r}")
        neighbours = adjacency[u]
        if v in neighbours:
            raise FormatError(f"graph: duplicate edge {sorted(entry[:2], key=str)}")
        probability = float(p)
        if u == v or not 0.0 < probability <= 1.0:
            # A self-loop, or a probability outside (0, 1]: adding the edge
            # to a scratch graph raises exactly what local construction
            # raises, checks in the same order.
            UncertainGraph().add_edge(u, v, probability)
        neighbours[v] = probability
        adjacency[v][u] = probability
    return UncertainGraph.from_adjacency(adjacency)


_GRAPH_INFO_KEYS = frozenset(
    {"fingerprint", "name", "num_vertices", "num_edges", "pinned", "default"}
)


def graph_info_to_wire(info: GraphInfo) -> dict[str, Any]:
    """Encode one stored graph's resource description."""
    return _envelope(
        "graph-info",
        {
            "fingerprint": info.fingerprint,
            "name": info.name,
            "num_vertices": info.num_vertices,
            "num_edges": info.num_edges,
            "pinned": info.pinned,
            "default": info.default,
        },
        version=SCHEMA_VERSION_V2,
    )


def graph_info_from_wire(payload: object) -> GraphInfo:
    payload = _open_envelope(
        payload, "graph-info", _GRAPH_INFO_KEYS, min_version=SCHEMA_VERSION_V2
    )
    kind = "graph-info"
    counts = {}
    for key in ("num_vertices", "num_edges"):
        value = _field(payload, kind, key, int)
        if value < 0:
            raise FormatError(f"{kind}.{key} must be >= 0, got {value}")
        counts[key] = value
    return GraphInfo(
        fingerprint=_field(payload, kind, "fingerprint", str),
        name=_field(payload, kind, "name", str, optional=True),
        pinned=_field(payload, kind, "pinned", bool),
        default=_field(payload, kind, "default", bool),
        **counts,
    )


_GRAPH_LIST_KEYS = frozenset({"graphs"})


def graph_list_to_wire(infos: Iterable[GraphInfo]) -> dict[str, Any]:
    """Encode the store listing (``GET /v2/graphs``)."""
    return _envelope(
        "graph-list",
        {"graphs": [graph_info_to_wire(info) for info in infos]},
        version=SCHEMA_VERSION_V2,
    )


def graph_list_from_wire(payload: object) -> list[GraphInfo]:
    payload = _open_envelope(
        payload, "graph-list", _GRAPH_LIST_KEYS, min_version=SCHEMA_VERSION_V2
    )
    raw = _field(payload, "graph-list", "graphs", list)
    return [graph_info_from_wire(item) for item in raw]


class GraphUpload(NamedTuple):
    """A decoded ``graph-upload`` request: one of two graph sources.

    Either ``graph`` (a literal uploaded graph) or ``dataset`` (a named
    Table 1 analog built server-side at ``scale``/``seed``) is set, never
    both.  ``name`` optionally registers the graph under a store name.
    """

    graph: "UncertainGraph | None" = None
    dataset: "str | None" = None
    scale: "float | None" = None
    seed: "int | None" = None
    name: "str | None" = None


_UPLOAD_KEYS = frozenset({"graph", "dataset", "scale", "seed", "name"})


def upload_to_wire(upload: GraphUpload) -> dict[str, Any]:
    """Encode a graph-creation request (``POST /v2/graphs``)."""
    if (upload.graph is None) == (upload.dataset is None):
        raise FormatError(
            "graph-upload must carry exactly one of graph / dataset"
        )
    if upload.dataset is None and (upload.scale is not None or upload.seed is not None):
        raise FormatError("graph-upload: scale/seed are only valid with dataset")
    return _envelope(
        "graph-upload",
        {
            "graph": None if upload.graph is None else graph_to_wire(upload.graph),
            "dataset": upload.dataset,
            "scale": upload.scale,
            "seed": upload.seed,
            "name": upload.name,
        },
        version=SCHEMA_VERSION_V2,
    )


def upload_from_wire(payload: object) -> GraphUpload:
    payload = _open_envelope(
        payload, "graph-upload", _UPLOAD_KEYS, min_version=SCHEMA_VERSION_V2
    )
    kind = "graph-upload"
    raw_graph = payload["graph"]
    upload = GraphUpload(
        graph=None if raw_graph is None else graph_from_wire(raw_graph),
        dataset=_field(payload, kind, "dataset", str, optional=True),
        scale=_number(payload, kind, "scale", optional=True),
        seed=_field(payload, kind, "seed", int, optional=True),
        name=_field(payload, kind, "name", str, optional=True),
    )
    if (upload.graph is None) == (upload.dataset is None):
        raise FormatError(f"{kind} must carry exactly one of graph / dataset")
    if upload.dataset is None and (upload.scale is not None or upload.seed is not None):
        raise FormatError(f"{kind}: scale/seed are only valid with dataset")
    return upload


_REF_REQUEST_KEYS = frozenset({"graph", "request"})


def ref_request_to_wire(request: EnumerationRequest, *, graph: str | None) -> dict[str, Any]:
    """Encode a v2 enumeration: the request plus the graph it targets.

    ``graph`` is a store reference (registered name or fingerprint);
    ``None`` targets the server's default graph — the v2 spelling of what
    ``/v1/enumerate`` does implicitly.
    """
    return _envelope(
        "graph-ref-request",
        {"graph": graph, "request": request_to_wire(request)},
        version=SCHEMA_VERSION_V2,
    )


def ref_request_from_wire(payload: object) -> "tuple[str | None, EnumerationRequest]":
    payload = _open_envelope(
        payload, "graph-ref-request", _REF_REQUEST_KEYS,
        min_version=SCHEMA_VERSION_V2,
    )
    ref = _field(payload, "graph-ref-request", "graph", str, optional=True)
    return ref, request_from_wire(payload["request"])


_REF_SWEEP_KEYS = frozenset({"graph", "request", "alphas"})


def ref_sweep_to_wire(
    request: EnumerationRequest, alphas: Sequence[float], *, graph: str | None
) -> dict[str, Any]:
    """Encode a v2 sweep: one base request, many α, one named graph."""
    return _envelope(
        "graph-ref-sweep",
        {
            "graph": graph,
            "request": request_to_wire(request),
            "alphas": list(alphas),
        },
        version=SCHEMA_VERSION_V2,
    )


def ref_sweep_from_wire(
    payload: object,
) -> "tuple[str | None, EnumerationRequest, list[float]]":
    payload = _open_envelope(
        payload, "graph-ref-sweep", _REF_SWEEP_KEYS, min_version=SCHEMA_VERSION_V2
    )
    ref = _field(payload, "graph-ref-sweep", "graph", str, optional=True)
    raw = _field(payload, "graph-ref-sweep", "alphas", list)
    if not raw:
        raise FormatError("graph-ref-sweep.alphas must not be empty")
    alphas = []
    for value in raw:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(
                f"graph-ref-sweep.alphas entries must be numbers, got {value!r}"
            )
        alphas.append(float(value))
    return ref, request_from_wire(payload["request"]), alphas


# ---------------------------------------------------------------------- #
# Schema v2: asynchronous jobs
# ---------------------------------------------------------------------- #
class JobStatus(NamedTuple):
    """A decoded ``job-status`` envelope: one job's observable state.

    ``records`` is the number of clique records the job has produced so
    far (monotonically non-decreasing); ``error`` is set exactly when
    ``state == "failed"``.
    """

    id: str
    state: str
    cliques_emitted: int
    frames_expanded: int
    elapsed_seconds: float
    records: int
    error: "BaseException | None" = None


class JobChunk(NamedTuple):
    """A decoded ``job-result-chunk`` envelope: one NDJSON stream line.

    Non-final chunks carry only records.  The final chunk carries exactly
    one of ``summary`` (an :class:`EnumerationOutcome` without records —
    the job reached ``done`` or ``cancelled``) or ``error`` (the job
    failed).  ``seq`` is the chunk's cursor position: re-requesting the
    stream with ``cursor=seq`` re-reads from this chunk.
    """

    job: str
    seq: int
    records: "tuple[CliqueRecord, ...]"
    final: bool
    summary: "EnumerationOutcome | None" = None
    error: "BaseException | None" = None


_JOB_REQUEST_KEYS = frozenset({"graph", "request", "page_size"})


def job_request_to_wire(
    request: EnumerationRequest,
    *,
    graph: str | None = None,
    page_size: int | None = None,
) -> dict[str, Any]:
    """Encode a job submission (``POST /v2/jobs``).

    ``graph`` is a store reference (name or fingerprint, ``None`` for the
    server default) and ``page_size`` overrides the server's result-page
    granularity (``None`` accepts the default).
    """
    return _envelope(
        "job-request",
        {
            "graph": graph,
            "request": request_to_wire(request),
            "page_size": page_size,
        },
        version=SCHEMA_VERSION_V2,
    )


def job_request_from_wire(
    payload: object,
) -> "tuple[str | None, EnumerationRequest, int | None]":
    payload = _open_envelope(
        payload, "job-request", _JOB_REQUEST_KEYS, min_version=SCHEMA_VERSION_V2
    )
    kind = "job-request"
    ref = _field(payload, kind, "graph", str, optional=True)
    page_size = _field(payload, kind, "page_size", int, optional=True)
    if page_size is not None and page_size < 1:
        raise FormatError(f"{kind}.page_size must be >= 1, got {page_size}")
    return ref, request_from_wire(payload["request"]), page_size


_JOB_STATUS_KEYS = frozenset(
    {"id", "state", "cliques_emitted", "frames_expanded",
     "elapsed_seconds", "records", "error"}
)


def job_status_to_wire(status: JobStatus) -> dict[str, Any]:
    """Encode one job's status snapshot (``GET /v2/jobs/{id}``)."""
    if status.state not in JOB_STATES:
        raise FormatError(
            f"job-status.state must be one of {JOB_STATES}, got {status.state!r}"
        )
    if (status.error is not None) != (status.state == "failed"):
        raise FormatError("job-status.error must be set exactly when failed")
    return _envelope(
        "job-status",
        {
            "id": status.id,
            "state": status.state,
            "cliques_emitted": status.cliques_emitted,
            "frames_expanded": status.frames_expanded,
            "elapsed_seconds": status.elapsed_seconds,
            "records": status.records,
            "error": None if status.error is None else error_to_wire(status.error),
        },
        version=SCHEMA_VERSION_V2,
    )


def job_status_from_wire(payload: object) -> JobStatus:
    payload = _open_envelope(
        payload, "job-status", _JOB_STATUS_KEYS, min_version=SCHEMA_VERSION_V2
    )
    kind = "job-status"
    state = _field(payload, kind, "state", str)
    if state not in JOB_STATES:
        raise FormatError(
            f"{kind}.state must be one of {JOB_STATES}, got {state!r}"
        )
    counters = {}
    for key in ("cliques_emitted", "frames_expanded", "records"):
        value = _field(payload, kind, key, int)
        if value < 0:
            raise FormatError(f"{kind}.{key} must be >= 0, got {value}")
        counters[key] = value
    elapsed = _number(payload, kind, "elapsed_seconds")
    if elapsed < 0:
        raise FormatError(f"{kind}.elapsed_seconds must be >= 0, got {elapsed}")
    raw_error = payload["error"]
    if (raw_error is not None) != (state == "failed"):
        raise FormatError(f"{kind}.error must be set exactly when failed")
    return JobStatus(
        id=_field(payload, kind, "id", str),
        state=state,
        elapsed_seconds=elapsed,
        error=None if raw_error is None else error_from_wire(raw_error),
        **counters,
    )


_JOB_SUMMARY_KEYS = frozenset(
    {"algorithm", "alpha", "statistics", "report", "elapsed_seconds", "request"}
)


def job_summary_to_wire(outcome: EnumerationOutcome) -> dict[str, Any]:
    """Encode a job's terminal summary: an outcome *minus* its records.

    The records already travelled in the stream's earlier chunks; the
    summary carries everything :meth:`EnumerationOutcome.assert_matches`
    needs beyond them, so client-side reassembly is bit-exact.
    """
    return _envelope(
        "job-summary",
        {
            "algorithm": outcome.algorithm,
            "alpha": outcome.alpha,
            "statistics": statistics_to_wire(outcome.statistics),
            "report": report_to_wire(outcome.report),
            "elapsed_seconds": outcome.elapsed_seconds,
            "request": (
                None if outcome.request is None else request_to_wire(outcome.request)
            ),
        },
        version=SCHEMA_VERSION_V2,
    )


def job_summary_from_wire(payload: object) -> EnumerationOutcome:
    payload = _open_envelope(
        payload, "job-summary", _JOB_SUMMARY_KEYS, min_version=SCHEMA_VERSION_V2
    )
    kind = "job-summary"
    elapsed = _number(payload, kind, "elapsed_seconds")
    if elapsed < 0:
        raise FormatError(f"{kind}.elapsed_seconds must be >= 0, got {elapsed}")
    request = payload["request"]
    return EnumerationOutcome(
        algorithm=_field(payload, kind, "algorithm", str),
        alpha=_number(payload, kind, "alpha", optional=True),
        records=[],
        statistics=statistics_from_wire(payload["statistics"]),
        report=report_from_wire(payload["report"]),
        elapsed_seconds=elapsed,
        request=None if request is None else request_from_wire(request),
    )


_JOB_CHUNK_KEYS = frozenset(
    {"job", "seq", "records", "final", "summary", "error"}
)


def job_chunk_to_wire(chunk: JobChunk) -> dict[str, Any]:
    """Encode one result-stream chunk (a line of ``GET .../results``)."""
    if chunk.final:
        if (chunk.summary is None) == (chunk.error is None):
            raise FormatError(
                "job-result-chunk: a final chunk carries exactly one of "
                "summary / error"
            )
    elif chunk.summary is not None or chunk.error is not None:
        raise FormatError(
            "job-result-chunk: summary/error are only valid on the final chunk"
        )
    return _envelope(
        "job-result-chunk",
        {
            "job": chunk.job,
            "seq": chunk.seq,
            "records": [record_to_wire(r) for r in chunk.records],
            "final": chunk.final,
            "summary": (
                None if chunk.summary is None else job_summary_to_wire(chunk.summary)
            ),
            "error": None if chunk.error is None else error_to_wire(chunk.error),
        },
        version=SCHEMA_VERSION_V2,
    )


def job_chunk_from_wire(payload: object) -> JobChunk:
    payload = _open_envelope(
        payload, "job-result-chunk", _JOB_CHUNK_KEYS,
        min_version=SCHEMA_VERSION_V2,
    )
    kind = "job-result-chunk"
    seq = _field(payload, kind, "seq", int)
    if seq < 0:
        raise FormatError(f"{kind}.seq must be >= 0, got {seq}")
    final = _field(payload, kind, "final", bool)
    raw_records = _field(payload, kind, "records", list)
    raw_summary = payload["summary"]
    raw_error = payload["error"]
    if final:
        if (raw_summary is None) == (raw_error is None):
            raise FormatError(
                f"{kind}: a final chunk carries exactly one of summary / error"
            )
    elif raw_summary is not None or raw_error is not None:
        raise FormatError(
            f"{kind}: summary/error are only valid on the final chunk"
        )
    return JobChunk(
        job=_field(payload, kind, "job", str),
        seq=seq,
        records=tuple(record_from_wire(item) for item in raw_records),
        final=final,
        summary=None if raw_summary is None else job_summary_from_wire(raw_summary),
        error=None if raw_error is None else error_from_wire(raw_error),
    )


_JOB_LIST_KEYS = frozenset({"jobs"})


def job_list_to_wire(statuses: Iterable[JobStatus]) -> dict[str, Any]:
    """Encode the registry listing (``GET /v2/jobs``)."""
    return _envelope(
        "job-list",
        {"jobs": [job_status_to_wire(status) for status in statuses]},
        version=SCHEMA_VERSION_V2,
    )


def job_list_from_wire(payload: object) -> list[JobStatus]:
    payload = _open_envelope(
        payload, "job-list", _JOB_LIST_KEYS, min_version=SCHEMA_VERSION_V2
    )
    raw = _field(payload, "job-list", "jobs", list)
    return [job_status_from_wire(item) for item in raw]


# ---------------------------------------------------------------------- #
# Schema v2: observability snapshots
# ---------------------------------------------------------------------- #
_METRICS_KEYS = frozenset({"counters", "gauges", "histograms"})

#: The exact per-histogram summary fields a ``metrics`` envelope carries.
_METRICS_HISTOGRAM_FIELDS = ("bounds", "counts", "sum", "count", "p50", "p99")


def _metric_series_to_wire(
    snapshot: Mapping[str, Any], section: str
) -> dict[str, float]:
    raw = snapshot.get(section)
    if not isinstance(raw, Mapping):
        raise FormatError(f"metrics snapshot.{section} must be a mapping")
    series: dict[str, float] = {}
    for name in sorted(raw):
        if not isinstance(name, str):
            raise FormatError(
                f"metrics.{section} keys must be strings, got {name!r}"
            )
        value = raw[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(
                f"metrics.{section}[{name!r}] must be a number, got {value!r}"
            )
        series[name] = float(value)
    return series


def _metric_histogram_to_wire(name: str, data: Mapping[str, Any]) -> dict[str, Any]:
    if not isinstance(data, Mapping) or set(data) != set(_METRICS_HISTOGRAM_FIELDS):
        raise FormatError(
            f"metrics.histograms[{name!r}] must carry exactly "
            f"{sorted(_METRICS_HISTOGRAM_FIELDS)}"
        )
    bounds = data["bounds"]
    counts = data["counts"]
    if not isinstance(bounds, Sequence) or isinstance(bounds, str):
        raise FormatError(f"metrics.histograms[{name!r}].bounds must be a list")
    if not isinstance(counts, Sequence) or isinstance(counts, str):
        raise FormatError(f"metrics.histograms[{name!r}].counts must be a list")
    out: dict[str, Any] = {
        "bounds": [float(edge) for edge in bounds],
        "counts": [int(count) for count in counts],
        "sum": float(data["sum"]),
        "count": int(data["count"]),
        "p50": float(data["p50"]),
        "p99": float(data["p99"]),
    }
    return out


def metrics_to_wire(snapshot: Mapping[str, Any]) -> dict[str, Any]:
    """Encode a registry snapshot (``GET /v1/metrics``, kind ``metrics``).

    ``snapshot`` is the :meth:`repro.obs.MetricsRegistry.snapshot` shape:
    flattened series names (``name`` or ``name{label=value,...}``) mapping
    to counter/gauge numbers, and per-histogram summaries carrying the
    deterministic bucket ``bounds``/``counts`` plus ``sum``/``count`` and
    the derived ``p50``/``p99`` estimates.
    """
    raw_histograms = snapshot.get("histograms")
    if not isinstance(raw_histograms, Mapping):
        raise FormatError("metrics snapshot.histograms must be a mapping")
    counters = _metric_series_to_wire(snapshot, "counters")
    gauges = _metric_series_to_wire(snapshot, "gauges")
    histograms = {
        str(name): _metric_histogram_to_wire(str(name), raw_histograms[name])
        for name in sorted(raw_histograms)
    }
    return _envelope(
        "metrics",
        {"counters": counters, "gauges": gauges, "histograms": histograms},
        version=SCHEMA_VERSION_V2,
    )


def _metric_series_from_wire(
    payload: dict[str, Any], section: str
) -> dict[str, float]:
    raw = _field(payload, "metrics", section, dict)
    series: dict[str, float] = {}
    for name, value in raw.items():
        if not isinstance(name, str):
            raise FormatError(
                f"metrics.{section} keys must be strings, got {name!r}"
            )
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(
                f"metrics.{section}[{name!r}] must be a number, got {value!r}"
            )
        series[name] = float(value)
    return series


def _metric_histogram_from_wire(name: str, data: object) -> dict[str, Any]:
    kind = "metrics"
    if not isinstance(data, dict):
        raise FormatError(f"{kind}.histograms[{name!r}] must be an object")
    if set(data) != set(_METRICS_HISTOGRAM_FIELDS):
        raise FormatError(
            f"{kind}.histograms[{name!r}] must carry exactly "
            f"{sorted(_METRICS_HISTOGRAM_FIELDS)}"
        )
    bounds_raw = data["bounds"]
    counts_raw = data["counts"]
    if not isinstance(bounds_raw, list) or not isinstance(counts_raw, list):
        raise FormatError(
            f"{kind}.histograms[{name!r}].bounds/.counts must be lists"
        )
    bounds: list[float] = []
    for edge in bounds_raw:
        if isinstance(edge, bool) or not isinstance(edge, (int, float)):
            raise FormatError(
                f"{kind}.histograms[{name!r}].bounds entries must be numbers"
            )
        bounds.append(float(edge))
    if any(b <= a for a, b in zip(bounds, bounds[1:])):
        raise FormatError(
            f"{kind}.histograms[{name!r}].bounds must be strictly increasing"
        )
    counts: list[int] = []
    for value in counts_raw:
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise FormatError(
                f"{kind}.histograms[{name!r}].counts entries must be ints >= 0"
            )
        counts.append(value)
    if len(counts) != len(bounds) + 1:
        raise FormatError(
            f"{kind}.histograms[{name!r}] needs len(bounds) + 1 counts "
            f"(the overflow bucket), got {len(counts)} for {len(bounds)} bounds"
        )
    count = data["count"]
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        raise FormatError(f"{kind}.histograms[{name!r}].count must be an int >= 0")
    if count != sum(counts):
        raise FormatError(
            f"{kind}.histograms[{name!r}].count must equal the bucket total"
        )
    summary: dict[str, Any] = {"bounds": bounds, "counts": counts, "count": count}
    for key in ("sum", "p50", "p99"):
        value = data[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(
                f"{kind}.histograms[{name!r}].{key} must be a number"
            )
        summary[key] = float(value)
    return summary


def metrics_from_wire(payload: object) -> dict[str, Any]:
    """Decode a ``metrics`` envelope back to the plain snapshot dict."""
    payload = _open_envelope(
        payload, "metrics", _METRICS_KEYS, min_version=SCHEMA_VERSION_V2
    )
    raw_histograms = _field(payload, "metrics", "histograms", dict)
    histograms: dict[str, dict[str, Any]] = {}
    for name in raw_histograms:
        if not isinstance(name, str):
            raise FormatError(
                f"metrics.histograms keys must be strings, got {name!r}"
            )
        histograms[name] = _metric_histogram_from_wire(name, raw_histograms[name])
    return {
        "counters": _metric_series_from_wire(payload, "counters"),
        "gauges": _metric_series_from_wire(payload, "gauges"),
        "histograms": histograms,
    }


# ---------------------------------------------------------------------- #
# Generic dispatch
# ---------------------------------------------------------------------- #
def to_wire(obj: object) -> dict[str, Any]:
    """Encode any wire-codable object into its envelope.

    Lists/tuples of :class:`CliqueRecord` become a ``clique-records``
    envelope; everything else dispatches on its type.
    """
    if isinstance(obj, EnumerationRequest):
        return request_to_wire(obj)
    if isinstance(obj, EnumerationOutcome):
        return outcome_to_wire(obj)
    if isinstance(obj, RunControls):
        return controls_to_wire(obj)
    if isinstance(obj, RunReport):
        return report_to_wire(obj)
    if isinstance(obj, SearchStatistics):
        return statistics_to_wire(obj)
    if isinstance(obj, CliqueRecord):
        return record_to_wire(obj)
    if isinstance(obj, UncertainGraph):
        return graph_to_wire(obj)
    if isinstance(obj, GraphInfo):
        return graph_info_to_wire(obj)
    if isinstance(obj, GraphUpload):
        return upload_to_wire(obj)
    if isinstance(obj, JobStatus):
        return job_status_to_wire(obj)
    if isinstance(obj, JobChunk):
        return job_chunk_to_wire(obj)
    if isinstance(obj, (list, tuple)) and obj and all(
        isinstance(item, EnumerationOutcome) for item in obj
    ):
        return outcomes_to_wire(obj)
    if isinstance(obj, (list, tuple)) and obj and all(
        isinstance(item, JobStatus) for item in obj
    ):
        return job_list_to_wire(obj)
    if isinstance(obj, (list, tuple)) and obj and all(
        isinstance(item, GraphInfo) for item in obj
    ):
        return graph_list_to_wire(obj)
    if isinstance(obj, (list, tuple)) and all(
        isinstance(item, CliqueRecord) for item in obj
    ):
        return records_to_wire(obj)
    if isinstance(obj, BaseException):
        return error_to_wire(obj)
    raise FormatError(f"object of type {type(obj).__name__} is not wire-codable")


_DECODERS = {
    "enumeration-request": request_from_wire,
    "enumeration-outcome": outcome_from_wire,
    "run-controls": controls_from_wire,
    "run-report": report_from_wire,
    "search-statistics": statistics_from_wire,
    "clique-record": record_from_wire,
    "clique-records": records_from_wire,
    "outcome-list": outcomes_from_wire,
    "error": error_from_wire,
    "graph": graph_from_wire,
    "graph-info": graph_info_from_wire,
    "graph-list": graph_list_from_wire,
    "graph-upload": upload_from_wire,
    "job-status": job_status_from_wire,
    "job-summary": job_summary_from_wire,
    "job-result-chunk": job_chunk_from_wire,
    "job-list": job_list_from_wire,
    "metrics": metrics_from_wire,
}


def from_wire(payload: object) -> Any:
    """Decode any envelope by its ``kind`` tag (the inverse of :func:`to_wire`).

    ``sweep-request`` / ``graph-ref-request`` / ``graph-ref-sweep`` /
    ``job-request`` payloads are intentionally not dispatched here — they
    decode to *tuples*, not single objects; use their dedicated
    ``*_from_wire`` functions.
    """
    if not isinstance(payload, dict):
        raise FormatError(
            f"wire payload must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise FormatError(f"unknown wire kind {kind!r}")
    return decoder(payload)
