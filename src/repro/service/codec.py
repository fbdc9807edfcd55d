"""The wire codec — lossless JSON round-trips for the session vocabulary.

Every payload the service layer moves across a process boundary is encoded
here: :class:`~repro.api.request.EnumerationRequest`,
:class:`~repro.api.outcome.EnumerationOutcome`, the
:class:`~repro.core.result.SearchStatistics` /
:class:`~repro.core.engine.controls.RunReport` counters,
:class:`~repro.core.result.CliqueRecord` lists, and the service-only
envelopes (sweep requests, outcome lists, errors).

Each wire kind is described once, as a table of fields (:class:`_Kind`);
one generic encoder and one generic decoder walk that table, so the two
directions agree by construction.  The kinds whose per-record, per-edge
and per-histogram work is hot or irregular (``clique-record``,
``clique-columns``, ``graph``, ``metrics``) keep hand-written bodies and
take their key sets from the table.

Records travel in one of two forms.  Rows are one ``clique-record``
envelope per record, the v1 form every envelope that carries records
defaults to.  Columns are one ``clique-columns`` block per record list
(every label in one array, one size per record, the probabilities packed
as little-endian float64); ``enumeration-outcome`` and
``job-result-chunk`` carry it in their additive ``columns`` key when the
encoder is asked with ``columns=True``.  Both forms decode everywhere,
to the same records.

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

import base64
import json
import math
import struct
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from itertools import islice
from typing import Any, Generic, NamedTuple, NoReturn, TypeVar

from ..api.outcome import EnumerationOutcome
from ..api.request import EnumerationRequest
from ..api.store import GraphInfo
from ..core.engine.controls import RunControls, RunReport, StopReason
from ..core.result import CliqueColumns, CliqueRecord, SearchStatistics
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
    "columns_to_wire",
    "columns_from_wire",
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

T = TypeVar("T")


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
    is rejected, while v1 kinds decode under any supported version.  The
    version must be a JSON integer: ``true`` and ``1.0`` compare equal to
    ``1`` in Python but are not version numbers.
    """
    if not isinstance(payload, dict):
        raise FormatError(
            f"{kind} payload must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("schema")
    if (
        type(version) is not int
        or version not in SUPPORTED_SCHEMA_VERSIONS
        or version < min_version
    ):
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
    payload: dict[str, Any], kind: str, key: str, nullable: bool = False
) -> float | None:
    value = _field(payload, kind, key, (int, float), optional=nullable)
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
# The kind table: field types, fields, kinds
# ---------------------------------------------------------------------- #
#: Checks one field of an opened envelope and returns its decoded value:
#: ``check(payload, kind, key, nullable)``.
_Check = Callable[[dict[str, Any], str, str, bool], Any]


class _Type(NamedTuple):
    """How one field's value crosses the wire.

    ``check`` validates the field in an opened envelope and returns its
    decoded value.  A type that carries envelopes sets ``nested``: its
    ``check`` looks only at the outer shape, and ``nested`` decodes the
    envelopes once the rest of the kind has passed.  ``encode`` gives a
    value's wire form; ``None`` means the value is its own.
    """

    check: _Check
    encode: Callable[[Any], Any] | None = None
    nested: Callable[[Any], Any] | None = None


class _Field(NamedTuple):
    """One field of a kind, in wire order.

    An additive key — one added to a kind after the kind's own version —
    gives the version that added it (``since``) and the ``default`` that
    keeps it off the wire, so values at the default still encode to the
    older bytes.
    """

    name: str
    type: _Type
    nullable: bool = False
    since: int | None = None
    default: Any = None


class _Kind(Generic[T]):
    """One wire kind: its name, the version that introduced it, its fields.

    :meth:`encode` and :meth:`decode` walk the fields, so the two
    directions agree by construction.  Decoding checks, in order:

    1. additive keys against a ``schema: 1`` stamp, before the envelope
       is opened (a v1 speaker cannot have produced them);
    2. the envelope: version, kind and exact key set;
    3. each field, in table order; a field that carries envelopes has
       only its outer shape checked here;
    4. the cross-field ``check``, which also runs before encoding, with
       the same messages;
    5. the envelopes inside the fields.

    ``build`` makes the decoded value from the fields, by name; ``parts``
    takes a value apart into its fields, in table order (default: the
    value's attributes of the same names; an additive key the value has
    no attribute for is at its default).  :meth:`encode` takes fields
    already in wire form by keyword, and these replace what ``parts``
    gives (the value's attribute is then not read): that is how a caller
    picks the form of a field the value does not hold, as ``columns`` is
    to an outcome.  ``source`` is the type
    :func:`to_wire` encodes as this kind, or for a list kind the type of
    its items.  A kind with a hand-written body passes it as ``encoder``
    and ``decoder``, and takes its key set from here; its ``build``
    then only says what decoding makes.
    """

    def __init__(
        self,
        name: str,
        since: int,
        *fields: _Field,
        build: Callable[..., T],
        parts: Callable[[Any], Sequence[Any]] | None = None,
        check: Callable[[dict[str, Any]], None] | None = None,
        source: type[Any] | None = None,
        encoder: Callable[[Any], dict[str, Any]] | None = None,
        decoder: Callable[[object], T] | None = None,
    ) -> None:
        self.name = name
        self.since = since
        self.fields = fields
        self.source = source
        #: The keys every envelope of this kind carries.
        self.keys = frozenset(f.name for f in fields if f.since is None)
        self.additive = tuple(f for f in fields if f.since is not None)
        self.build = build
        self.parts = parts
        self._names = tuple(f.name for f in fields)
        self._check = check
        self._nested: list[tuple[str, bool, Callable[[Any], Any]]] = []
        for field in fields:
            if field.type.nested is not None:
                self._nested.append((field.name, field.nullable, field.type.nested))
        self.encode: Callable[..., dict[str, Any]] = encoder or self._encode
        self.decode: Callable[[object], T] = decoder or self._decode

    def _encode(self, value: Any, **wire: Any) -> dict[str, Any]:
        fields = dict(wire)
        if self.parts is None:
            for f in self.fields:
                if f.name not in fields:
                    fields[f.name] = (
                        getattr(value, f.name)
                        if f.since is None
                        else getattr(value, f.name, f.default)
                    )
        else:
            for name, item in zip(self._names, self.parts(value)):
                fields.setdefault(name, item)
        if self._check is not None:
            self._check(fields)
        payload: dict[str, Any] = {"schema": self.since, "kind": self.name}
        for field in self.fields:
            item = fields[field.name]
            if field.since is not None:
                if item == field.default:
                    continue
                payload["schema"] = max(payload["schema"], field.since)
            encoder = field.type.encode
            if item is None or encoder is None or field.name in wire:
                payload[field.name] = item
            else:
                payload[field.name] = encoder(item)
        return payload

    def _decode(self, payload: object) -> T:
        name = self.name
        keys = self.keys
        if self.additive and isinstance(payload, dict):
            present = [f for f in self.additive if f.name in payload]
            if present and payload.get("schema") == SCHEMA_VERSION:
                first = present[0]
                raise FormatError(f"{name}.{first.name} requires schema >= {first.since}")
            keys = keys | {f.name for f in present}
        opened = _open_envelope(payload, name, keys, min_version=self.since)
        values = {f.name: f.default for f in self.fields}  # table order
        for f in self.fields:
            if f.name in opened:
                values[f.name] = f.type.check(opened, name, f.name, f.nullable)
        if self._check is not None:
            self._check(values)
        for key, nullable, nested in self._nested:
            raw = values[key]
            if raw is not None or not nullable:
                values[key] = nested(raw)
        return self.build(**values)


def _typed(types: type[Any]) -> _Check:
    def check(payload: dict[str, Any], kind: str, key: str, nullable: bool) -> Any:
        return _field(payload, kind, key, types, optional=nullable)

    return check


def _at_least(minimum: int, read: _Check) -> _Check:
    def check(payload: dict[str, Any], kind: str, key: str, nullable: bool) -> Any:
        value = read(payload, kind, key, nullable)
        if value is not None and value < minimum:
            raise FormatError(f"{kind}.{key} must be >= {minimum}, got {value}")
        return value

    return check


def _labels(payload: dict[str, Any], kind: str, key: str, nullable: bool) -> Any:
    raw = _field(payload, kind, key, list, optional=nullable)
    return tuple(_vertex_from_wire(v, kind) for v in raw)


def _alphas(payload: dict[str, Any], kind: str, key: str, nullable: bool) -> Any:
    raw = _field(payload, kind, key, list, optional=nullable)
    if not raw:
        raise FormatError(f"{kind}.{key} must not be empty")
    alphas = []
    for value in raw:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(f"{kind}.{key} entries must be numbers, got {value!r}")
        alphas.append(float(value))
    return alphas


def _stop_reason(payload: dict[str, Any], kind: str, key: str, nullable: bool) -> Any:
    value = _field(payload, kind, key, str, optional=nullable)
    if value not in _STOP_REASONS:
        raise FormatError(f"{kind}.{key} must be one of {_STOP_REASONS}, got {value!r}")
    return value


def _raw(payload: dict[str, Any], kind: str, key: str, nullable: bool) -> Any:
    return payload[key]


_STR = _Type(_typed(str))
_BOOL = _Type(_typed(bool))
_INT = _Type(_typed(int))
_COUNT = _Type(_at_least(0, _typed(int)))
_PAGE_SIZE = _Type(_at_least(1, _typed(int)))
_NUMBER = _Type(_number)
_SECONDS = _Type(_at_least(0, _number))
_LABELS = _Type(_labels, lambda labels: [_vertex_to_wire(v) for v in labels])
_ALPHAS = _Type(_alphas, list)
_STOP_REASON = _Type(_stop_reason)
_list_field = _typed(list)
#: A field of a kind with a hand-written body, which checks it.
_HAND = _Type(_raw)


def _nested(kind: _Kind[Any], *, before_check: bool = False) -> _Type:
    """A field holding one envelope of ``kind``.

    It decodes after its kind's cross-field check, unless ``before_check``
    is set: ``graph-upload`` decodes its graph first, as it always has,
    so a malformed graph is reported before the source rule.
    """
    if not before_check:
        return _Type(_raw, kind.encode, kind.decode)

    def check(payload: dict[str, Any], envelope: str, key: str, nullable: bool) -> Any:
        raw = payload[key]
        return None if raw is None and nullable else kind.decode(raw)

    return _Type(check, kind.encode)


def _list_of(kind: _Kind[Any]) -> _Type:
    """A field holding a list of envelopes of ``kind``."""
    encode, decode = kind.encode, kind.decode
    return _Type(
        _list_field,
        lambda items: list(map(encode, items)),
        lambda raw: list(map(decode, raw)),
    )


def _whole(value: Any) -> tuple[Any]:
    """``parts`` of a list kind: the list is its one field."""
    return (value,)


def _as_tuple(**values: Any) -> tuple[Any, ...]:
    """``build`` of a request kind that decodes to its fields, in order."""
    return tuple(values.values())


# ---------------------------------------------------------------------- #
# CliqueRecord (hand-written: one call per record)
# ---------------------------------------------------------------------- #
#: The wire's label types, matched exactly: ``bool`` is its own type.
_LABEL_TYPES = frozenset({int, float, str})


def record_to_wire(record: CliqueRecord) -> dict[str, Any]:
    """Encode one clique record (vertices in canonical sorted order)."""
    labels = record.as_tuple()
    # One C-level pass over the label types; an odd label (a subclass,
    # say) takes the per-label check for its exact error.
    if _LABEL_TYPES.issuperset(map(type, labels)):
        vertices: list[int | float | str] = list(labels)
    else:
        vertices = [_vertex_to_wire(v) for v in labels]
    return _envelope(
        "clique-record",
        {"vertices": vertices, "probability": record.probability},
    )


def record_from_wire(payload: object) -> CliqueRecord:
    payload = _open_envelope(payload, "clique-record", _RECORD.keys)
    raw = _field(payload, "clique-record", "vertices", list)
    vertices = frozenset(_vertex_from_wire(v, "clique-record") for v in raw)
    if len(vertices) != len(raw):
        raise FormatError("clique-record: duplicate vertices")
    probability = _number(payload, "clique-record", "probability")
    return CliqueRecord(vertices=vertices, probability=probability)


_RECORD: _Kind[CliqueRecord] = _Kind(
    "clique-record", SCHEMA_VERSION,
    _Field("vertices", _HAND),
    _Field("probability", _HAND),
    build=CliqueRecord, source=CliqueRecord,
    encoder=record_to_wire, decoder=record_from_wire,
)


# Record lists are the bulk of every outcome and result chunk, so the
# envelopes that carry them check their records in one pass.
# ``record_from_wire`` stays the one definition of a valid record: every
# record the list decoder does not take inline goes through it.

_RECORD_ENVELOPE_KEYS = _RECORD.keys | {"schema", "kind"}


def _records_from_wire(raw: list[Any]) -> list[CliqueRecord]:
    """``[record_from_wire(item) for item in raw]``, checking in bulk.

    A record is built directly when it passes one test, and the test
    accepts only records :func:`record_from_wire` accepts as they are.
    Any other record goes through :func:`record_from_wire`, which decodes
    it (an ``int`` probability, say) or raises its usual error; every
    record before it has passed, so the first error is the per-record one.
    """
    records: list[CliqueRecord] = []
    for item in raw:
        if (
            type(item) is dict
            and item.keys() == _RECORD_ENVELOPE_KEYS
            and item["kind"] == "clique-record"
            and type(item["schema"]) is int
            and item["schema"] in SUPPORTED_SCHEMA_VERSIONS
            and type(labels := item["vertices"]) is list
            and type(probability := item["probability"]) is float
            and _LABEL_TYPES.issuperset(map(type, labels))
            and len(vertices := frozenset(labels)) == len(labels)
        ):
            records.append(CliqueRecord(vertices, probability))
        else:
            records.append(record_from_wire(item))
    return records


#: A list of clique records: ``record_to_wire`` per record out, one bulk
#: pass in.
_RECORDS = _Type(
    _list_field, lambda records: [record_to_wire(r) for r in records], _records_from_wire
)


# ---------------------------------------------------------------------- #
# Record lists as columns (hand-written: one pass per column)
# ---------------------------------------------------------------------- #
#: The wire's size type, matched exactly: ``bool`` is its own type.
_SIZE_TYPES = frozenset({int})


def columns_to_wire(records: Iterable[CliqueRecord]) -> dict[str, Any]:
    """Encode a record list as one ``clique-columns`` block (schema v2).

    ``vertices`` holds every record's labels, record after record, each
    record's in the order :func:`record_to_wire` writes them; ``sizes``
    holds one label count per record; ``probabilities`` is the standard
    base64 (RFC 4648 section 4) of the probabilities as little-endian
    IEEE 754 binary64, 8 bytes per record.  Labels must be wire-encodable
    and probabilities finite, as in rows.

    A :class:`~repro.core.result.CliqueColumns` block is packed as it is,
    with no record built; any other record list becomes one through
    :meth:`CliqueColumns.from_records` first.
    """
    block = (
        records
        if isinstance(records, CliqueColumns)
        else CliqueColumns.from_records(records)
    )
    vertices: list[Any] = block.sorted_vertices()
    if not _LABEL_TYPES.issuperset(map(type, vertices)):
        vertices = [_vertex_to_wire(v) for v in vertices]
    probabilities = block.probabilities
    try:
        packed = struct.pack(f"<{len(probabilities)}d", *probabilities)
    except struct.error as exc:
        raise FormatError(f"clique-columns: probabilities must be numbers ({exc})") from exc
    if not all(map(math.isfinite, probabilities)):
        raise FormatError("clique-columns: probabilities must be finite")
    return _envelope(
        "clique-columns",
        {
            "vertices": vertices,
            "sizes": block.sizes,
            "probabilities": base64.b64encode(packed).decode("ascii"),
        },
        version=SCHEMA_VERSION_V2,
    )


def columns_from_wire(payload: object) -> list[CliqueRecord]:
    """Decode a ``clique-columns`` block to its records, in order.

    It accepts exactly the record lists that decode from rows, to equal
    records with bit-identical probabilities: labels are ``int``,
    ``float`` or ``str`` and never repeat within a record, and every
    probability is finite (``NaN`` and infinities cannot travel in rows).
    The columns must also agree: the sizes are ints >= 0 that add up to
    the number of labels, and the probabilities are strict base64 of
    exactly 8 bytes per size.
    """
    kind = "clique-columns"
    payload = _open_envelope(payload, kind, _COLUMNS.keys, min_version=SCHEMA_VERSION_V2)
    vertices = _field(payload, kind, "vertices", list)
    sizes = _field(payload, kind, "sizes", list)
    packed = _field(payload, kind, "probabilities", str)
    if not _LABEL_TYPES.issuperset(map(type, vertices)):
        for value in vertices:
            _vertex_from_wire(value, kind)
    if not _SIZE_TYPES.issuperset(map(type, sizes)) or (sizes and min(sizes) < 0):
        raise FormatError(f"{kind}.sizes entries must be ints >= 0")
    if sum(sizes) != len(vertices):
        raise FormatError(
            f"{kind}: the sizes add up to {sum(sizes)} labels, "
            f"but vertices holds {len(vertices)}"
        )
    try:
        raw = base64.b64decode(packed, validate=True)
    except ValueError as exc:
        raise FormatError(f"{kind}.probabilities is not base64: {exc}") from exc
    if len(raw) != 8 * len(sizes):
        raise FormatError(
            f"{kind}.probabilities holds {len(raw)} bytes, "
            f"but {len(sizes)} records need {8 * len(sizes)}"
        )
    probabilities = struct.unpack(f"<{len(sizes)}d", raw)
    if not all(map(math.isfinite, probabilities)):
        raise FormatError(f"{kind}.probabilities must be finite")
    labels = iter(vertices)
    cliques = [frozenset(islice(labels, size)) for size in sizes]
    if sum(map(len, cliques)) != len(vertices):
        raise FormatError(f"{kind}: duplicate vertices")
    return list(map(CliqueRecord, cliques, probabilities))


_COLUMNS: _Kind[list[CliqueRecord]] = _Kind(
    "clique-columns", SCHEMA_VERSION_V2,
    _Field("vertices", _HAND),
    _Field("sizes", _HAND),
    _Field("probabilities", _HAND),
    build=list, encoder=columns_to_wire, decoder=columns_from_wire,
)


# ---------------------------------------------------------------------- #
# UncertainGraph (hand-written: one pass over the edges)
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
        payload, "graph", _GRAPH.keys, min_version=SCHEMA_VERSION_V2
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


# The graph inside an upload goes through the module functions, looked up
# per call, so a wrapper installed on them (a counter, a span) sees it.
_GRAPH: _Kind[UncertainGraph] = _Kind(
    "graph", SCHEMA_VERSION_V2,
    _Field("vertices", _HAND),
    _Field("edges", _HAND),
    build=UncertainGraph, source=UncertainGraph,
    encoder=lambda graph: graph_to_wire(graph),
    decoder=lambda payload: graph_from_wire(payload),
)


# ---------------------------------------------------------------------- #
# Observability snapshots (hand-written: free-form series names)
# ---------------------------------------------------------------------- #
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
        payload, "metrics", _METRICS.keys, min_version=SCHEMA_VERSION_V2
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


_METRICS: _Kind[dict[str, Any]] = _Kind(
    "metrics", SCHEMA_VERSION_V2,
    _Field("counters", _HAND),
    _Field("gauges", _HAND),
    _Field("histograms", _HAND),
    build=dict, encoder=metrics_to_wire, decoder=metrics_from_wire,
)


# ---------------------------------------------------------------------- #
# The table: every other kind, its cross-field checks and decoded types
# ---------------------------------------------------------------------- #
def _check_upload(upload: dict[str, Any]) -> None:
    if (upload["graph"] is None) == (upload["dataset"] is None):
        raise FormatError("graph-upload must carry exactly one of graph / dataset")
    if upload["dataset"] is None and (
        upload["scale"] is not None or upload["seed"] is not None
    ):
        raise FormatError("graph-upload: scale/seed are only valid with dataset")


def _check_job_status(status: dict[str, Any]) -> None:
    state = status["state"]
    if state not in JOB_STATES:
        raise FormatError(f"job-status.state must be one of {JOB_STATES}, got {state!r}")
    if (status["error"] is not None) != (state == "failed"):
        raise FormatError("job-status.error must be set exactly when failed")


def _check_record_form(kind: str, envelope: dict[str, Any]) -> None:
    """Records travel as rows or as columns; an envelope never holds both."""
    if envelope["records"] and envelope["columns"] is not None:
        raise FormatError(f"{kind}: records and columns are exclusive")


def _check_outcome(outcome: dict[str, Any]) -> None:
    _check_record_form("enumeration-outcome", outcome)


def _check_chunk(chunk: dict[str, Any]) -> None:
    _check_record_form("job-result-chunk", chunk)
    if chunk["final"]:
        if chunk["records"] or chunk["columns"] is not None:
            raise FormatError("job-result-chunk: a final chunk carries no records")
        if (chunk["summary"] is None) == (chunk["error"] is None):
            raise FormatError(
                "job-result-chunk: a final chunk carries exactly one of "
                "summary / error"
            )
    elif chunk["summary"] is not None or chunk["error"] is not None:
        raise FormatError(
            "job-result-chunk: summary/error are only valid on the final chunk"
        )


def _rebuild_error(**fields: str) -> ReproError:
    """Rebuild the library exception an error envelope describes.

    Known :mod:`repro.errors` types are reconstructed so remote callers can
    ``except ParameterError`` exactly as local ones do; anything else
    (including server-side internal errors) degrades to a plain
    :class:`ReproError` that names the original type.
    """
    type_name, message = fields["type"], fields["message"]
    cls = getattr(_errors, type_name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(message)
    return ReproError(f"{type_name}: {message}")


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
    """One element of a job's result stream: a ``job-result-chunk`` envelope.

    :meth:`~repro.service.jobs.Job.stream_chunks` yields these, the server
    writes each as one NDJSON line, and the client decodes them back.
    Non-final chunks carry only records.  The final chunk carries exactly
    one of ``summary`` (an :class:`EnumerationOutcome` without records —
    the job reached ``done`` or ``cancelled``) or ``error`` (the job
    failed).  ``seq`` is the chunk's cursor position: re-requesting the
    stream with ``cursor=seq`` re-reads from this chunk.  A job's chunks
    hold its pages as :class:`~repro.core.result.CliqueColumns` blocks,
    which the columns encoder packs as they are; a decoded chunk holds a
    tuple of records.
    """

    job: str
    seq: int
    records: "Iterable[CliqueRecord]"
    final: bool
    summary: "EnumerationOutcome | None" = None
    error: "BaseException | None" = None


_RECORD_LIST: _Kind[list[CliqueRecord]] = _Kind(
    "clique-records", SCHEMA_VERSION,
    _Field("records", _RECORDS),
    build=lambda records: records, parts=_whole, source=CliqueRecord,
)

_STATISTICS: _Kind[SearchStatistics] = _Kind(
    "search-statistics", SCHEMA_VERSION,
    _Field("recursive_calls", _COUNT),
    _Field("candidates_examined", _COUNT),
    _Field("probability_multiplications", _COUNT),
    _Field("maximality_checks", _COUNT),
    _Field("pruned_branches", _COUNT),
    build=SearchStatistics, source=SearchStatistics,
)

_REPORT: _Kind[RunReport] = _Kind(
    "run-report", SCHEMA_VERSION,
    _Field("stop_reason", _STOP_REASON),
    _Field("cliques_emitted", _COUNT),
    _Field("frames_expanded", _COUNT),
    build=RunReport, source=RunReport,
)

_CONTROLS: _Kind[RunControls] = _Kind(
    "run-controls", SCHEMA_VERSION,
    _Field("max_cliques", _INT, nullable=True),
    _Field("time_budget_seconds", _NUMBER, nullable=True),
    _Field("check_every_frames", _INT),
    build=RunControls, source=RunControls,
)

# ``kernel`` and ``root_shard`` were added after the v1 shape was frozen:
# each rides as an additive v2 key, emitted only when it leaves its
# default, so a request that touches neither encodes to the v1 bytes.
_REQUEST: _Kind[EnumerationRequest] = _Kind(
    "enumeration-request", SCHEMA_VERSION,
    _Field("algorithm", _STR),
    _Field("alpha", _NUMBER, nullable=True),
    _Field("k", _INT, nullable=True),
    _Field("size_threshold", _INT, nullable=True),
    _Field("min_size", _INT),
    _Field("prune_edges", _BOOL),
    _Field("shared_neighborhood_filtering", _BOOL),
    _Field("controls", _nested(_CONTROLS), nullable=True),
    _Field("workers", _INT, nullable=True),
    _Field("num_shards", _INT, nullable=True),
    _Field("backend", _STR),
    _Field("execution", _STR),
    _Field("kernel", _STR, since=SCHEMA_VERSION_V2, default="auto"),
    _Field("root_shard", _LABELS, since=SCHEMA_VERSION_V2, default=None),
    build=EnumerationRequest, source=EnumerationRequest,
)

# ``columns`` is the records as one ``clique-columns`` block: an additive
# v2 key of outcomes and result chunks that only the encoders' ``columns=True``
# sets, with ``records`` then empty.
_COLUMNS_FIELD = _Field(
    "columns", _nested(_COLUMNS), nullable=True, since=SCHEMA_VERSION_V2, default=None
)

_OUTCOME: _Kind[EnumerationOutcome] = _Kind(
    "enumeration-outcome", SCHEMA_VERSION,
    _Field("algorithm", _STR),
    _Field("alpha", _NUMBER, nullable=True),
    _Field("records", _RECORDS),
    _Field("statistics", _nested(_STATISTICS)),
    _Field("report", _nested(_REPORT)),
    _Field("elapsed_seconds", _SECONDS),
    _Field("request", _nested(_REQUEST), nullable=True),
    _COLUMNS_FIELD,
    build=lambda records, columns, **fields: EnumerationOutcome(
        records=records if columns is None else columns, **fields
    ),
    check=_check_outcome,
    source=EnumerationOutcome,
)

_SWEEP: _Kind[tuple[EnumerationRequest, list[float]]] = _Kind(
    "sweep-request", SCHEMA_VERSION,
    _Field("request", _nested(_REQUEST)),
    _Field("alphas", _ALPHAS),
    build=_as_tuple, parts=tuple,
)

_OUTCOME_LIST: _Kind[list[EnumerationOutcome]] = _Kind(
    "outcome-list", SCHEMA_VERSION,
    _Field("outcomes", _list_of(_OUTCOME)),
    build=lambda outcomes: outcomes, parts=_whole, source=EnumerationOutcome,
)

_ERROR: _Kind[ReproError] = _Kind(
    "error", SCHEMA_VERSION,
    _Field("type", _STR),
    _Field("message", _STR),
    build=_rebuild_error,
    parts=lambda exc: (type(exc).__name__, str(exc)),
    source=BaseException,
)

_GRAPH_INFO: _Kind[GraphInfo] = _Kind(
    "graph-info", SCHEMA_VERSION_V2,
    _Field("fingerprint", _STR),
    _Field("name", _STR, nullable=True),
    _Field("num_vertices", _COUNT),
    _Field("num_edges", _COUNT),
    _Field("pinned", _BOOL),
    _Field("default", _BOOL),
    build=GraphInfo, source=GraphInfo,
)

_GRAPH_LIST: _Kind[list[GraphInfo]] = _Kind(
    "graph-list", SCHEMA_VERSION_V2,
    _Field("graphs", _list_of(_GRAPH_INFO)),
    build=lambda graphs: graphs, parts=_whole, source=GraphInfo,
)

_UPLOAD: _Kind[GraphUpload] = _Kind(
    "graph-upload", SCHEMA_VERSION_V2,
    _Field("graph", _nested(_GRAPH, before_check=True), nullable=True),
    _Field("dataset", _STR, nullable=True),
    _Field("scale", _NUMBER, nullable=True),
    _Field("seed", _INT, nullable=True),
    _Field("name", _STR, nullable=True),
    build=GraphUpload, check=_check_upload, source=GraphUpload,
)

_REF_REQUEST: _Kind[tuple[str | None, EnumerationRequest]] = _Kind(
    "graph-ref-request", SCHEMA_VERSION_V2,
    _Field("graph", _STR, nullable=True),
    _Field("request", _nested(_REQUEST)),
    build=_as_tuple, parts=tuple,
)

_REF_SWEEP: _Kind[tuple[str | None, EnumerationRequest, list[float]]] = _Kind(
    "graph-ref-sweep", SCHEMA_VERSION_V2,
    _Field("graph", _STR, nullable=True),
    _Field("request", _nested(_REQUEST)),
    _Field("alphas", _ALPHAS),
    build=_as_tuple, parts=tuple,
)

_JOB_REQUEST: _Kind[tuple[str | None, EnumerationRequest, int | None]] = _Kind(
    "job-request", SCHEMA_VERSION_V2,
    _Field("graph", _STR, nullable=True),
    _Field("request", _nested(_REQUEST)),
    _Field("page_size", _PAGE_SIZE, nullable=True),
    build=_as_tuple, parts=tuple,
)

_JOB_STATUS: _Kind[JobStatus] = _Kind(
    "job-status", SCHEMA_VERSION_V2,
    _Field("id", _STR),
    _Field("state", _STR),
    _Field("cliques_emitted", _COUNT),
    _Field("frames_expanded", _COUNT),
    _Field("elapsed_seconds", _SECONDS),
    _Field("records", _COUNT),
    _Field("error", _nested(_ERROR), nullable=True),
    build=JobStatus, check=_check_job_status, source=JobStatus,
)

# An outcome minus its records, which travelled in the earlier chunks.
_JOB_SUMMARY: _Kind[EnumerationOutcome] = _Kind(
    "job-summary", SCHEMA_VERSION_V2,
    _Field("algorithm", _STR),
    _Field("alpha", _NUMBER, nullable=True),
    _Field("statistics", _nested(_STATISTICS)),
    _Field("report", _nested(_REPORT)),
    _Field("elapsed_seconds", _SECONDS),
    _Field("request", _nested(_REQUEST), nullable=True),
    build=lambda **fields: EnumerationOutcome(records=[], **fields),
)

_JOB_CHUNK: _Kind[JobChunk] = _Kind(
    "job-result-chunk", SCHEMA_VERSION_V2,
    _Field("job", _STR),
    _Field("seq", _COUNT),
    _Field("records", _RECORDS),
    _Field("final", _BOOL),
    _Field("summary", _nested(_JOB_SUMMARY), nullable=True),
    _Field("error", _nested(_ERROR), nullable=True),
    _COLUMNS_FIELD,
    build=lambda records, columns, **fields: JobChunk(
        records=tuple(records if columns is None else columns), **fields
    ),
    check=_check_chunk,
    source=JobChunk,
)

_JOB_LIST: _Kind[list[JobStatus]] = _Kind(
    "job-list", SCHEMA_VERSION_V2,
    _Field("jobs", _list_of(_JOB_STATUS)),
    build=lambda jobs: jobs, parts=_whole, source=JobStatus,
)

#: Every wire kind.  :func:`to_wire` tries them in this order, so
#: ``clique-records`` precedes the other list kinds: an empty list encodes
#: as an empty record list.
_KINDS: tuple[_Kind[Any], ...] = (
    _RECORD, _RECORD_LIST, _STATISTICS, _REPORT, _CONTROLS, _REQUEST,
    _OUTCOME, _SWEEP, _OUTCOME_LIST, _ERROR, _GRAPH, _GRAPH_INFO,
    _GRAPH_LIST, _UPLOAD, _REF_REQUEST, _REF_SWEEP, _JOB_REQUEST,
    _JOB_STATUS, _JOB_SUMMARY, _JOB_CHUNK, _JOB_LIST, _METRICS, _COLUMNS,
)


# ---------------------------------------------------------------------- #
# Public encoders and decoders, and the generic dispatch
# ---------------------------------------------------------------------- #
# Each decoder is its kind's, taking the one argument ``payload``.
records_from_wire = _RECORD_LIST.decode
statistics_from_wire = _STATISTICS.decode
report_from_wire = _REPORT.decode
controls_from_wire = _CONTROLS.decode
request_from_wire = _REQUEST.decode
outcome_from_wire = _OUTCOME.decode
outcomes_from_wire = _OUTCOME_LIST.decode
sweep_from_wire = _SWEEP.decode
error_from_wire = _ERROR.decode
graph_info_from_wire = _GRAPH_INFO.decode
graph_list_from_wire = _GRAPH_LIST.decode
upload_from_wire = _UPLOAD.decode
ref_request_from_wire = _REF_REQUEST.decode
ref_sweep_from_wire = _REF_SWEEP.decode
job_request_from_wire = _JOB_REQUEST.decode
job_status_from_wire = _JOB_STATUS.decode
job_summary_from_wire = _JOB_SUMMARY.decode
job_chunk_from_wire = _JOB_CHUNK.decode
job_list_from_wire = _JOB_LIST.decode


def records_to_wire(records: Iterable[CliqueRecord]) -> dict[str, Any]:
    """Encode a standalone list of clique records."""
    return _RECORD_LIST.encode(records)


def statistics_to_wire(statistics: SearchStatistics) -> dict[str, Any]:
    return _STATISTICS.encode(statistics)


def report_to_wire(report: RunReport) -> dict[str, Any]:
    return _REPORT.encode(report)


def controls_to_wire(controls: RunControls) -> dict[str, Any]:
    return _CONTROLS.encode(controls)


def request_to_wire(request: EnumerationRequest) -> dict[str, Any]:
    """Encode a request.  Every field is explicit (nullable ones as null).

    The ``kernel`` and ``root_shard`` fields are the exceptions: they were
    added after the v1 envelope shape was frozen, so each rides as an
    *additive* v2 key — emitted only when it deviates from its default
    (``"auto"`` / ``None``), and its presence promotes the envelope to
    ``schema: 2``.  A request that touches neither therefore still encodes
    to the exact v1 bytes the conformance corpus pins.
    """
    return _REQUEST.encode(request)


def outcome_to_wire(
    outcome: EnumerationOutcome, *, columns: bool = False
) -> dict[str, Any]:
    """Encode an outcome, its records as rows (the v1 bytes) by default.

    ``columns=True`` carries the records as one ``clique-columns`` block
    in the additive ``columns`` key instead, with ``records`` empty and
    the envelope stamped ``schema: 2``.
    """
    if columns:
        return _OUTCOME.encode(
            outcome, records=[], columns=columns_to_wire(outcome.clique_columns)
        )
    return _OUTCOME.encode(outcome)


def sweep_to_wire(request: EnumerationRequest, alphas: Sequence[float]) -> dict[str, Any]:
    """Encode a sweep: one base request re-run at each of ``alphas``."""
    return _SWEEP.encode((request, alphas))


def outcomes_to_wire(
    outcomes: Iterable[EnumerationOutcome], *, columns: bool = False
) -> dict[str, Any]:
    """Encode a sweep's outcomes; ``columns`` as in :func:`outcome_to_wire`."""
    if columns:
        wire = [outcome_to_wire(outcome, columns=True) for outcome in outcomes]
        return _OUTCOME_LIST.encode(wire, outcomes=wire)
    return _OUTCOME_LIST.encode(outcomes)


def error_to_wire(exc: BaseException) -> dict[str, Any]:
    """Encode an exception (non-library types degrade to their class name)."""
    return _ERROR.encode(exc)


def graph_info_to_wire(info: GraphInfo) -> dict[str, Any]:
    """Encode one stored graph's resource description."""
    return _GRAPH_INFO.encode(info)


def graph_list_to_wire(infos: Iterable[GraphInfo]) -> dict[str, Any]:
    """Encode the store listing (``GET /v2/graphs``)."""
    return _GRAPH_LIST.encode(infos)


def upload_to_wire(upload: GraphUpload) -> dict[str, Any]:
    """Encode a graph-creation request (``POST /v2/graphs``)."""
    return _UPLOAD.encode(upload)


def ref_request_to_wire(request: EnumerationRequest, *, graph: str | None) -> dict[str, Any]:
    """Encode a v2 enumeration: the request plus the graph it targets.

    ``graph`` is a store reference (registered name or fingerprint);
    ``None`` targets the server's default graph — the v2 spelling of what
    ``/v1/enumerate`` does implicitly.
    """
    return _REF_REQUEST.encode((graph, request))


def ref_sweep_to_wire(
    request: EnumerationRequest, alphas: Sequence[float], *, graph: str | None
) -> dict[str, Any]:
    """Encode a v2 sweep: one base request, many α, one named graph."""
    return _REF_SWEEP.encode((graph, request, alphas))


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
    return _JOB_REQUEST.encode((graph, request, page_size))


def job_status_to_wire(status: JobStatus) -> dict[str, Any]:
    """Encode one job's status snapshot (``GET /v2/jobs/{id}``)."""
    return _JOB_STATUS.encode(status)


def job_summary_to_wire(outcome: EnumerationOutcome) -> dict[str, Any]:
    """Encode a job's terminal summary: an outcome *minus* its records.

    The records already travelled in the stream's earlier chunks; the
    summary carries everything :meth:`EnumerationOutcome.assert_matches`
    needs beyond them, so client-side reassembly is bit-exact.
    """
    return _JOB_SUMMARY.encode(outcome)


def job_chunk_to_wire(chunk: JobChunk, *, columns: bool = False) -> dict[str, Any]:
    """Encode one result-stream chunk (a line of ``GET .../results``).

    ``columns=True`` carries a page's records as one ``clique-columns``
    block, as :func:`outcome_to_wire` does.  A final chunk carries no
    records, so it encodes the same either way.
    """
    if columns and not chunk.final:
        return _JOB_CHUNK.encode(chunk, records=[], columns=columns_to_wire(chunk.records))
    return _JOB_CHUNK.encode(chunk)


def job_list_to_wire(statuses: Iterable[JobStatus]) -> dict[str, Any]:
    """Encode the registry listing (``GET /v2/jobs``)."""
    return _JOB_LIST.encode(statuses)


def to_wire(obj: object) -> dict[str, Any]:
    """Encode any wire-codable object into its envelope.

    Lists/tuples of :class:`CliqueRecord` become a ``clique-records``
    envelope; everything else dispatches on its type.
    """
    for kind in _KINDS:
        source = kind.source
        if source is None:
            continue
        if kind.parts is _whole:
            if isinstance(obj, (list, tuple)) and all(
                isinstance(item, source) for item in obj
            ):
                return kind.encode(obj)
        elif isinstance(obj, source):
            return kind.encode(obj)
    raise FormatError(f"object of type {type(obj).__name__} is not wire-codable")


#: :func:`from_wire` decoders by kind: every kind but the request kinds
#: that decode to a tuple of their fields.
_DECODERS = {kind.name: kind.decode for kind in _KINDS if kind.build is not _as_tuple}


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
    decoder = _DECODERS.get(kind) if isinstance(kind, str) else None
    if decoder is None:
        raise FormatError(f"unknown wire kind {kind!r}")
    return decoder(payload)
