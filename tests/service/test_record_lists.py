"""The record-list envelopes agree with the per-record codec.

``enumeration-outcome``, ``clique-records`` and ``job-result-chunk`` check
their records in one pass instead of one envelope call per record.
``record_from_wire`` stays the definition of a valid record, so for any
record list the bulk decoders must give exactly what mapping it over the
list gives: the same records (labels, probability and its type) or the same
first ``FormatError`` message.  A seeded fuzz over mutated record lists
checks this.  On the encode side ``record_to_wire`` checks label types in
one pass; it must give the bytes and errors of checking each label alone.

Records may also travel as one ``clique-columns`` block.  A record list
decodes from columns exactly when it decodes from rows, to equal records
in the same order with bit-identical probabilities; a second seeded fuzz
checks this on the wire bytes, and fixed cases check every malformed
block raises only ``FormatError``.

On the server a run's cliques never become records unless a reader asks:
the kernel's index tuples fill column blocks, which the columns encoder
packs as they are.  A hypothesis property checks, on both kernels and on
top-k, that those blocks hold exactly the cliques ``stream()`` yields and
pack to the bytes the records would, rows and pages included.
"""

from __future__ import annotations

import base64
import json
import math
import random
import re
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import EnumerationOutcome, EnumerationRequest, GraphStore, MiningSession
from repro.core.engine import RunControls, RunReport
from repro.core.result import CliqueRecord, SearchStatistics, rank_by_probability
from repro.errors import FormatError
from repro.service import EnumerationScheduler, codec
from repro.uncertain.graph import UncertainGraph

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


# --------------------------------------------------------------------- #
# Rows and columns agree
# --------------------------------------------------------------------- #
#: Labels that neither form accepts, or accepts only once per record.
BAD_LABELS = [True, False, None, [1], {"a": 1}]
EQUAL_LABELS = [[1, 1.0], [1, True], [0, False], [2.0, 2], ["a", "a"]]
ODD_PROBABILITIES = [math.nan, math.inf, -math.inf, -0.0, 1, 2.0, 1e308]


def raw_record_lists(count: int, seed: int):
    """Record lists as (labels per record, probabilities), some faulty."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(0, 5)
        labels = [rng.sample(LABELS, rng.randint(0, 4)) for _ in range(size)]
        probabilities = [rng.choice(PROBABILITIES) for _ in range(size)]
        for _ in range(rng.choice([0, 0, 1, 1, 2]) if size else 0):
            index = rng.randrange(size)
            choice = rng.randrange(4)
            if choice == 0:
                labels[index].insert(rng.randint(0, len(labels[index])), rng.choice(BAD_LABELS))
            elif choice == 1:
                labels[index] = labels[index] + rng.choice(EQUAL_LABELS)
            elif choice == 2 and labels[index]:
                labels[index].append(rng.choice(labels[index]))
            else:
                probabilities[index] = rng.choice(ODD_PROBABILITIES)
        yield labels, probabilities


def rows_of(labels, probabilities) -> list:
    return [
        {
            "schema": codec.SCHEMA_VERSION,
            "kind": "clique-record",
            "vertices": list(vertices),
            "probability": probability,
        }
        for vertices, probability in zip(labels, probabilities)
    ]


def columns_of(labels, probabilities) -> dict:
    packed = struct.pack(f"<{len(probabilities)}d", *probabilities)
    return {
        "schema": codec.SCHEMA_VERSION_V2,
        "kind": "clique-columns",
        "vertices": [label for vertices in labels for label in vertices],
        "sizes": [len(vertices) for vertices in labels],
        "probabilities": base64.b64encode(packed).decode("ascii"),
    }


def as_columns(envelope: dict, block: dict) -> dict:
    return dict(envelope, schema=codec.SCHEMA_VERSION_V2, records=[], columns=block)


#: Each carrying envelope, with its records as rows and as columns.
CARRIERS = {
    "enumeration-outcome": (
        lambda rows: outcome_envelope(rows),
        lambda block: as_columns(outcome_envelope([]), block),
        lambda payload: codec.outcome_from_wire(payload).records,
    ),
    "job-result-chunk": (
        lambda rows: chunk_envelope(rows),
        lambda block: as_columns(chunk_envelope([]), block),
        lambda payload: codec.job_chunk_from_wire(payload).records,
    ),
    "standalone": (
        lambda rows: {"schema": codec.SCHEMA_VERSION, "kind": "clique-records", "records": rows},
        lambda block: block,
        codec.from_wire,
    ),
}


def decoded_bits(payload: dict, decode) -> object:
    """What wire bytes decode to, probabilities bit for bit, or ``None``.

    ``json.dumps`` spells non-finite floats as the ``NaN`` / ``Infinity``
    tokens, which ``codec.decode`` refuses, as a peer's bytes would be.
    """
    try:
        records = decode(codec.decode(json.dumps(payload)))
    except FormatError:
        return None
    return [(row[0], row[2], row[1].hex()) for row in summary(records)]


class TestRowsAndColumnsAgree:
    @pytest.mark.parametrize("carrier", sorted(CARRIERS))
    def test_fuzzed_record_lists(self, carrier):
        rows_envelope, columns_envelope, decode = CARRIERS[carrier]
        refused = 0
        for labels, probabilities in raw_record_lists(1500, seed=20):
            rows = decoded_bits(rows_envelope(rows_of(labels, probabilities)), decode)
            block = columns_of(labels, probabilities)
            columns = decoded_bits(columns_envelope(block), decode)
            assert columns == rows, (labels, probabilities)
            refused += rows is None
        # The fuzz exercises both outcomes.
        assert 300 < refused < 1200

    def test_an_integer_probability_is_the_one_spelling_difference(self):
        rows = codec.records_from_wire(
            {"schema": 1, "kind": "clique-records", "records": rows_of([[1]], [1])}
        )
        columns = codec.columns_from_wire(columns_of([[1]], [1]))
        assert rows[0].probability == columns[0].probability == 1.0
        assert type(rows[0].probability) is type(columns[0].probability) is float

    def test_columns_encode_what_rows_encode(self):
        for seed in range(20):
            records = encodable_records(30, seed)
            block = codec.columns_to_wire(records)
            rows = [per_label_wire(record) for record in records]
            assert block == columns_of(
                [row["vertices"] for row in rows], [row["probability"] for row in rows]
            )
            decoded = codec.columns_from_wire(codec.decode(codec.encode(block)))
            assert summary(decoded) == summary(records)

    @pytest.mark.parametrize("bad", [(1, 2), None, True])
    def test_unencodable_labels_raise_the_per_label_error(self, bad):
        records = [CliqueRecord(frozenset({1, 2}), 0.5), CliqueRecord(frozenset({3, bad}), 0.5)]
        with pytest.raises(FormatError) as caught:
            codec.columns_to_wire(records)
        assert str(caught.value) == (
            f"vertex label {bad!r} is not wire-encodable "
            f"(labels must be int, float or str)"
        )

    @pytest.mark.parametrize("probability", [math.nan, math.inf, -math.inf])
    def test_non_finite_probabilities_are_not_encoded(self, probability):
        with pytest.raises(FormatError, match="finite"):
            codec.columns_to_wire([CliqueRecord(frozenset({1}), probability)])


def damaged(**fields) -> dict:
    """A valid two-record block (sizes 2 and 1) with ``fields`` replaced."""
    return dict(columns_of([[1, "a"], [2.5]], [0.5, 1.0]), **fields)


def packed(*probabilities: float) -> str:
    raw = struct.pack(f"<{len(probabilities)}d", *probabilities)
    return base64.b64encode(raw).decode("ascii")


MALFORMED_COLUMNS = {
    "schema 1": (damaged(schema=1), "unsupported schema version"),
    "schema true": (damaged(schema=True), "unsupported schema version"),
    "schema 2.0": (damaged(schema=2.0), "unsupported schema version"),
    "unknown key": (damaged(records=[]), "unknown keys"),
    "missing key": (
        {k: v for k, v in damaged().items() if k != "sizes"},
        "missing keys",
    ),
    "vertices not a list": (damaged(vertices="1a"), "vertices must be list"),
    "sizes not a list": (damaged(sizes=3), "sizes must be list"),
    "probabilities not a string": (damaged(probabilities=[0.5, 1.0]), "must be str"),
    "boolean label": (
        damaged(vertices=[1, True, 2.5]),
        "clique-columns: vertex label True must be int, float or str",
    ),
    "null label": (damaged(vertices=[1, None, 2.5]), "vertex label None"),
    "list label": (damaged(vertices=[1, [2], 2.5]), "vertex label"),
    "boolean size": (damaged(sizes=[True, 2], vertices=[1, "a", 2.5]), "sizes entries"),
    "negative size": (damaged(sizes=[4, -1]), "sizes entries"),
    "float size": (damaged(sizes=[2.0, 1]), "sizes entries"),
    "string size": (damaged(sizes=["2", 1]), "sizes entries"),
    "sizes short of the labels": (damaged(sizes=[1, 1]), "add up to 2 labels"),
    "sizes beyond the labels": (damaged(sizes=[2, 2]), "add up to 4 labels"),
    "not base64": (damaged(probabilities="not base64!"), "not base64"),
    "unpadded base64": (damaged(probabilities=packed(0.5, 1.0).rstrip("=")), "not base64"),
    "base64 with whitespace": (
        damaged(probabilities=packed(0.5, 1.0)[:8] + " " + packed(0.5, 1.0)[8:]),
        "not base64",
    ),
    "non-ASCII base64": (damaged(probabilities="\u00e9" * 4), "not base64"),
    "too few bytes": (damaged(probabilities=packed(0.5)), "holds 8 bytes"),
    "too many bytes": (damaged(probabilities=packed(0.5, 1.0, 0.25)), "holds 24 bytes"),
    "a stray byte": (
        damaged(probabilities=base64.b64encode(b"\0" * 17).decode("ascii")),
        "holds 17 bytes",
    ),
    "NaN": (damaged(probabilities=packed(0.5, math.nan)), "must be finite"),
    "infinity": (damaged(probabilities=packed(math.inf, 0.5)), "must be finite"),
    "negative infinity": (damaged(probabilities=packed(0.5, -math.inf)), "must be finite"),
    "repeated label": (damaged(vertices=[1, 1, 2.5]), "duplicate vertices"),
    "1 and 1.0": (damaged(vertices=[1, 1.0, 2.5]), "duplicate vertices"),
}


class TestMalformedColumns:
    @pytest.mark.parametrize("case", sorted(MALFORMED_COLUMNS))
    def test_raises_format_error(self, case):
        payload, message = MALFORMED_COLUMNS[case]
        with pytest.raises(FormatError, match=re.escape(message)):
            codec.columns_from_wire(payload)
        for _, columns_envelope, decode in CARRIERS.values():
            with pytest.raises(FormatError):
                decode(columns_envelope(payload))

    def test_valid_block_decodes(self):
        records = codec.columns_from_wire(damaged())
        assert [(r.vertices, r.probability) for r in records] == [
            (frozenset({1, "a"}), 0.5),
            (frozenset({2.5}), 1.0),
        ]

    def test_empty_records_decode(self):
        block = columns_of([[], [3]], [1.0, 0.25])
        assert [r.vertices for r in codec.columns_from_wire(block)] == [
            frozenset(),
            frozenset({3}),
        ]


# --------------------------------------------------------------------- #
# Column blocks from the kernel: the same cliques and bytes as records
# --------------------------------------------------------------------- #
#: Vertex labellings: orderable ints and strs, whose compile order is the
#: ``as_tuple`` order, and mixed ints and strs, whose compile order is not.
LABELLINGS = {
    "int": lambda i: i,
    "str": lambda i: f"v{i}",
    "mixed": lambda i: i if i % 2 else f"v{i}",
}


@pytest.fixture(scope="module")
def block_scheduler():
    with EnumerationScheduler(GraphStore()) as scheduler:
        yield scheduler


@st.composite
def block_cases(draw):
    """A graph of at most 10 vertices and a request over it.

    α sits exactly at the probability of one of the graph's α-maximal
    cliques at a lower threshold, or one ulp above it, so the ``>= α``
    comparisons are exercised at their edge.
    """
    label = LABELLINGS[draw(st.sampled_from(sorted(LABELLINGS)))]
    n = draw(st.integers(min_value=1, max_value=10))
    graph = UncertainGraph(vertices=[label(i) for i in range(n)])
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.floats(min_value=0.0, max_value=1.0)) < density:
                graph.add_edge(label(u), label(v), draw(st.floats(min_value=0.05, max_value=1.0)))
    low = draw(st.floats(min_value=0.001, max_value=1.0))
    found = MiningSession(graph).enumerate(EnumerationRequest(algorithm="mule", alpha=low))
    alpha = draw(st.sampled_from([r.probability for r in found.records]))
    if draw(st.booleans()):
        alpha = min(1.0, math.nextafter(alpha, 2.0))
    algorithm = draw(st.sampled_from(["mule", "top_k"]))
    options = {"kernel": draw(st.sampled_from(["python", "vector"]))}
    if algorithm == "top_k":
        options["k"] = draw(st.integers(min_value=1, max_value=6))
        options["min_size"] = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        options["controls"] = RunControls(max_cliques=draw(st.integers(1, 5)))
    return graph, EnumerationRequest(algorithm=algorithm, alpha=alpha, **options)


def _bits(records) -> list:
    return [(record.vertices, record.probability.hex()) for record in records]


def _packed(records) -> bytes:
    return codec.encode(codec.columns_to_wire(records))


class TestBlocksFromTheKernel:
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=block_cases())
    def test_blocks_carry_the_streamed_cliques(self, block_scheduler, case):
        graph, request = case
        session = MiningSession(graph)
        statistics, report = SearchStatistics(), RunReport()
        streamed = [
            CliqueRecord(vertices, probability)
            for vertices, probability in session.stream(
                request, statistics=statistics, report=report
            )
        ]
        expected = streamed
        if request.algorithm == "top_k":
            expected = rank_by_probability(streamed, request.k)

        # In process: the outcome's block, before anything reads records.
        outcome = session.enumerate(request)
        block = outcome.clique_columns
        assert _bits(block.records()) == _bits(expected)
        assert _packed(block) == _packed(expected)
        assert outcome.statistics == statistics
        assert outcome.stop_reason == report.stop_reason
        assert _bits(outcome.records) == _bits(expected)

        # On the server: a synchronous run, and a job paged three by three.
        served = block_scheduler.run(request, graph=graph)
        assert codec.encode(codec.outcome_to_wire(served, columns=True)["columns"]) == (
            _packed(expected)
        )
        assert served.statistics == statistics
        assert served.stop_reason == report.stop_reason
        job = block_scheduler.submit_job(request, graph=graph, page_size=3)
        *pages, final = job.stream_chunks()
        assert [len(page.records) for page in pages] == [
            min(3, len(expected) - 3 * i) for i in range(len(pages))
        ]
        for page in pages:
            rows = codec.JobChunk(
                job=job.id,
                seq=page.seq,
                records=tuple(expected[3 * page.seq : 3 * page.seq + 3]),
                final=False,
            )
            for columns in (True, False):
                assert codec.encode(codec.job_chunk_to_wire(page, columns=columns)) == (
                    codec.encode(codec.job_chunk_to_wire(rows, columns=columns))
                )
        assert sum(map(len, (page.records for page in pages))) == len(expected)
        assert final.summary.statistics == statistics
        assert final.summary.stop_reason == report.stop_reason
