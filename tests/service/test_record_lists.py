"""The record-list envelopes agree with the per-record codec.

``enumeration-outcome``, ``clique-records`` and ``job-result-chunk`` check
their records in one pass instead of one envelope call per record.
``record_from_wire`` stays the definition of a valid record, so for any
record list the bulk decoders must give exactly what mapping it over the
list gives: the same records (labels, probability and its type) or the same
first ``FormatError`` message.  A seeded fuzz over mutated record lists
checks this.  On the encode side ``record_to_wire`` checks label types in
one pass; it must give the bytes and errors of checking each label alone.
"""

from __future__ import annotations

import random

import pytest

from repro.api import EnumerationOutcome
from repro.core.result import CliqueRecord
from repro.errors import FormatError
from repro.service import codec

#: Distinct labels of every wire type; no two are ``==``.
LABELS = [0, 1, 2, 7, -3, 2.5, -0.25, "a", "b", "1", ""]
PROBABILITIES = [1.0, 0.5, 1 / 3, 0.0, 5e-324]


class Label(int):
    pass


class Name(str):
    pass


def valid_record(rng: random.Random) -> dict:
    return {
        "schema": rng.choice(codec.SUPPORTED_SCHEMA_VERSIONS),
        "kind": "clique-record",
        "vertices": rng.sample(LABELS, rng.randint(0, 4)),
        "probability": rng.choice(PROBABILITIES),
    }


def mutate(record: dict, rng: random.Random) -> object:
    """One structural or type fault, or a value only the slow path takes.

    Faults compound when a record is mutated twice.
    """
    if not isinstance(record, dict):
        return record
    record = dict(record)
    labels = record.get("vertices")
    labels = list(labels) if isinstance(labels, list) else []
    choice = rng.randrange(12)
    if choice == 0:
        del record[rng.choice(sorted(record))]
    elif choice == 1:
        record[rng.choice(["extra", "records", "Kind"])] = 1
    elif choice == 2:
        record["kind"] = rng.choice(["clique-records", "Clique-Record", None, 1])
    elif choice == 3:
        return rng.choice([[], "clique-record", 1, None, [record]])
    elif choice == 4:
        record["schema"] = rng.choice([0, 1, 2, 3, True, False, 1.0, "1", None])
    elif choice == 5:
        bad = rng.choice([True, False, None, [1], {"a": 1}, (1,)])
        labels.insert(rng.randint(0, len(labels)), bad)
        record["vertices"] = labels
    elif choice == 6:
        labels = labels or [rng.choice(LABELS)]
        record["vertices"] = labels + [rng.choice(labels)]
    elif choice == 7:
        # Labels equal under ``==`` but of different types.
        record["vertices"] = rng.choice([[1, 1.0], [1, True], [0, False], [2.0, 2]])
    elif choice == 8:
        record["probability"] = rng.choice([1, 0, True, None, "0.5", [0.5]])
    elif choice == 9:
        record["vertices"] = rng.choice([None, "ab", {"a": 1}, 3, (1, 2)])
    elif choice == 10:
        record["schema"], record["kind"] = record.get("kind"), record.get("schema")
    else:
        # Labels that are subclasses of the wire types.
        record["vertices"] = [Label(5), Name("z")]
    return record


def record_lists(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        records: list = [valid_record(rng) for _ in range(rng.randint(0, 5))]
        for _ in range(rng.choice([0, 0, 1, 1, 2])):
            if records:
                index = rng.randrange(len(records))
                records[index] = mutate(records[index], rng)
            else:
                records.append(mutate(valid_record(rng), rng))
        yield records


def summary(records) -> list:
    """What a record list decodes to, down to label and probability types."""
    return [
        (
            sorted((type(label).__name__, repr(label)) for label in record.vertices),
            record.probability,
            type(record.probability),
        )
        for record in records
    ]


def outcome_envelope(records: list) -> dict:
    payload = codec.outcome_to_wire(EnumerationOutcome(algorithm="mule", alpha=0.5))
    payload["records"] = records
    return payload


def chunk_envelope(records: list) -> dict:
    return {
        "schema": codec.SCHEMA_VERSION_V2,
        "kind": "job-result-chunk",
        "job": "j1",
        "seq": 0,
        "records": records,
        "final": False,
        "summary": None,
        "error": None,
    }


BULK_DECODERS = {
    "enumeration-outcome": lambda records: codec.outcome_from_wire(
        outcome_envelope(records)
    ).records,
    "clique-records": lambda records: codec.records_from_wire(
        {"schema": codec.SCHEMA_VERSION, "kind": "clique-records", "records": records}
    ),
    "job-result-chunk": lambda records: codec.job_chunk_from_wire(
        chunk_envelope(records)
    ).records,
}


def decoded_or_error(decode, records) -> object:
    try:
        return summary(decode(records))
    except FormatError as exc:
        return ("FormatError", str(exc))


def per_record(records) -> list:
    return [codec.record_from_wire(item) for item in records]


class TestBulkDecodeAgrees:
    @pytest.mark.parametrize("kind", sorted(BULK_DECODERS))
    def test_fuzzed_record_lists(self, kind):
        decode = BULK_DECODERS[kind]
        errors = 0
        for records in record_lists(1500, seed=15):
            expected = decoded_or_error(per_record, records)
            assert decoded_or_error(decode, records) == expected, records
            errors += isinstance(expected, tuple)
        # The fuzz exercises both outcomes.
        assert 300 < errors < 1200

    @pytest.mark.parametrize("kind", sorted(BULK_DECODERS))
    def test_first_bad_record_reports(self, kind):
        good = valid_record(random.Random(1))
        first = dict(good, probability=True)
        second = dict(good, kind="other")
        with pytest.raises(FormatError) as caught:
            BULK_DECODERS[kind]([good, first, second])
        assert str(caught.value) == "clique-record.probability must not be a boolean"


def encodable_records(count: int, seed: int) -> list[CliqueRecord]:
    rng = random.Random(seed)
    return [
        CliqueRecord(
            vertices=frozenset(rng.sample(LABELS, rng.randint(0, 4))),
            probability=rng.choice(PROBABILITIES),
        )
        for _ in range(count)
    ]


def per_label_wire(record: CliqueRecord) -> dict:
    """A valid record's envelope, every label checked on its own."""
    labels = record.as_tuple()
    assert all(
        isinstance(v, (int, float, str)) and not isinstance(v, bool) for v in labels
    )
    return {
        "schema": codec.SCHEMA_VERSION,
        "kind": "clique-record",
        "vertices": list(labels),
        "probability": record.probability,
    }


def bulk_encoders(records: list[CliqueRecord]) -> dict[str, dict]:
    return {
        "enumeration-outcome": codec.outcome_to_wire(
            EnumerationOutcome(algorithm="mule", alpha=0.5, records=list(records))
        ),
        "clique-records": codec.records_to_wire(records),
        "job-result-chunk": codec.job_chunk_to_wire(
            codec.JobChunk(job="j1", seq=0, records=tuple(records), final=False)
        ),
    }


class TestRecordEncode:
    def test_valid_lists_encode_to_the_per_label_bytes(self):
        for seed in range(20):
            records = encodable_records(30, seed)
            expected_records = [per_label_wire(r) for r in records]
            for kind, payload in bulk_encoders(records).items():
                assert payload["records"] == expected_records, kind
                expected = codec.encode(dict(payload, records=expected_records))
                assert codec.encode(payload) == expected, kind

    def test_label_subclasses_take_the_per_label_check(self):
        record = CliqueRecord(frozenset({Label(4), Name("z"), 1}), 0.5)
        expected = codec.encode(per_label_wire(record))
        assert codec.encode(codec.record_to_wire(record)) == expected
        for kind, payload in bulk_encoders([record]).items():
            assert codec.encode(payload["records"][0]) == expected, kind

    @pytest.mark.parametrize("bad", [(1, 2), None, True])
    def test_unencodable_labels_raise_the_per_label_error(self, bad):
        good = CliqueRecord(frozenset({1, 2}), 0.5)
        broken = CliqueRecord(frozenset({3, bad}), 0.5)
        message = (
            f"vertex label {bad!r} is not wire-encodable "
            f"(labels must be int, float or str)"
        )
        encoders = {
            "clique-record": lambda: codec.record_to_wire(broken),
            "enumeration-outcome": lambda: codec.outcome_to_wire(
                EnumerationOutcome(algorithm="mule", alpha=0.5, records=[good, broken])
            ),
            "clique-records": lambda: codec.records_to_wire([good, broken]),
            "job-result-chunk": lambda: codec.job_chunk_to_wire(
                codec.JobChunk(job="j1", seq=0, records=(good, broken), final=False)
            ),
        }
        for kind, encode in encoders.items():
            with pytest.raises(FormatError) as caught:
                encode()
            assert str(caught.value) == message, kind
