"""Unit tests for result containers and search statistics."""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.mule import mule
from repro.core.result import CliqueRecord, EnumerationResult, SearchStatistics, Stopwatch
from repro.uncertain.graph import UncertainGraph


def make_result() -> EnumerationResult:
    records = [
        CliqueRecord(vertices=frozenset({1, 2, 3}), probability=0.5),
        CliqueRecord(vertices=frozenset({4, 5}), probability=0.9),
        CliqueRecord(vertices=frozenset({6}), probability=1.0),
    ]
    return EnumerationResult(algorithm="mule", alpha=0.4, cliques=records)


class TestCliqueRecord:
    def test_size(self):
        record = CliqueRecord(vertices=frozenset({1, 2, 3}), probability=0.5)
        assert record.size == 3

    def test_as_tuple_sorted(self):
        record = CliqueRecord(vertices=frozenset({3, 1, 2}), probability=0.5)
        assert record.as_tuple() == (1, 2, 3)

    def test_ordering_by_size_then_members(self):
        small = CliqueRecord(vertices=frozenset({9}), probability=1.0)
        large = CliqueRecord(vertices=frozenset({1, 2}), probability=0.5)
        assert small < large

    def test_records_hashable_equality(self):
        a = CliqueRecord(vertices=frozenset({1, 2}), probability=0.5)
        b = CliqueRecord(vertices=frozenset({2, 1}), probability=0.5)
        assert a == b

    def test_equality_and_hash_ignore_probability(self):
        a = CliqueRecord(vertices=frozenset({1, 2}), probability=0.5)
        b = CliqueRecord(vertices=frozenset({1, 2}), probability=0.25)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != CliqueRecord(vertices=frozenset({1, 3}), probability=0.5)

    def test_members_order_by_repr(self):
        # The key lists members sorted by repr ('30' < '9'), then compares
        # those tuples element by element: (10, 20) < (30, 9).
        assert CliqueRecord(frozenset({10, 20}), 0.5) < CliqueRecord(frozenset({9, 30}), 0.5)
        assert CliqueRecord(frozenset({9, 30}), 0.5).sort_key == (2, (30, 9))
        assert CliqueRecord(frozenset({9}), 0.5) < CliqueRecord(frozenset({10}), 0.5)

    def test_all_orderings_follow_the_key(self):
        small = CliqueRecord(vertices=frozenset({9}), probability=1.0)
        large = CliqueRecord(vertices=frozenset({1, 2}), probability=0.5)
        assert small < large and small <= large and small <= small
        assert large > small and large >= small and large >= large
        assert not (large < small) and not (small > large)

    def test_comparison_with_other_types(self):
        record = CliqueRecord(vertices=frozenset({1, 2}), probability=0.5)
        assert record != (1, 2)
        assert not (record == (2, (1, 2)))
        with pytest.raises(TypeError):
            record < (1, 2)
        with pytest.raises(TypeError):
            record >= (1, 2)

    def test_repr_unchanged(self):
        record = CliqueRecord(vertices=frozenset({1, 2}), probability=0.5)
        assert repr(record) == "CliqueRecord(vertices=frozenset({1, 2}), probability=0.5)"
        record.sort_key  # a computed key stays out of the repr
        assert repr(record) == "CliqueRecord(vertices=frozenset({1, 2}), probability=0.5)"

    def test_replace_and_pickle(self):
        record = CliqueRecord(vertices=frozenset({1, 2}), probability=0.5)
        replaced = dataclasses.replace(record, probability=0.25)
        assert (replaced.vertices, replaced.probability) == (frozenset({1, 2}), 0.25)
        assert replaced == record
        record.sort_key
        back = pickle.loads(pickle.dumps(record))
        assert (back.vertices, back.probability) == (record.vertices, 0.5)
        assert back == record and hash(back) == hash(record)

    def test_records_are_frozen(self):
        record = CliqueRecord(vertices=frozenset({1, 2}), probability=0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.probability = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.sort_key = (0, ())

    def test_building_a_record_calls_no_label_repr(self):
        calls = []

        class Label(int):
            def __repr__(self):
                calls.append(int(self))
                return int.__repr__(self)

        records = [
            CliqueRecord(vertices=frozenset({Label(3), Label(1)}), probability=0.5),
            CliqueRecord(vertices=frozenset({Label(2)}), probability=0.5),
        ]
        assert calls == []
        assert [r.size for r in sorted(records)] == [1, 2]
        assert sorted(calls) == [1, 2, 3]


class TestMixedLabels:
    """Records whose labels do not order against each other (ints and strs)."""

    def test_mule_on_a_mixed_label_graph(self):
        result = repro.mule(UncertainGraph(vertices=[0, "v1"]), 0.5)
        assert [sorted(r.vertices, key=repr) for r in result.cliques] == [[0], ["v1"]]

    def test_parallel_max_cliques_trim_on_mixed_labels(self):
        from repro.core.engine import RunControls
        from repro.parallel import parallel_mule

        graph = UncertainGraph(vertices=[0, "v1", 2, "v3", 4.5, "v5"])
        graph.add_edge(0, "v1", 0.9)
        capped = parallel_mule(
            graph, 0.5, workers=2, backend="inline", controls=RunControls(max_cliques=3)
        )
        assert capped.num_cliques == 3
        assert capped.truncated

    def test_numbers_still_compare_by_value(self):
        assert CliqueRecord(frozenset({1}), 1.0) < CliqueRecord(frozenset({2.5}), 1.0)
        assert CliqueRecord(frozenset({2.5}), 1.0) < CliqueRecord(frozenset({3}), 1.0)
        assert CliqueRecord(frozenset({3}), 1.0) < CliqueRecord(frozenset({"a"}), 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.frozensets(
                st.one_of(st.integers(-5, 5), st.sampled_from("abcde")),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=12,
            unique=True,
        ),
        st.randoms(use_true_random=False),
    )
    def test_a_total_order_that_keeps_every_plain_comparison(self, member_sets, rng):
        records = [CliqueRecord(members, 0.5) for members in member_sets]
        ordered = sorted(records)
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert [r.vertices for r in sorted(shuffled)] == [r.vertices for r in ordered]
        for a, b in zip(ordered, ordered[1:]):
            assert a < b and b > a and a <= b and not b <= a
        for a in records:
            for b in records:
                try:
                    plain = a.sort_key < b.sort_key
                except TypeError:
                    continue
                assert (a < b) == plain


class TestSearchStatistics:
    def test_defaults_are_zero(self):
        stats = SearchStatistics()
        assert stats.recursive_calls == 0
        assert stats.pruned_branches == 0

    def test_merge_sums_fields(self):
        merged = SearchStatistics(recursive_calls=2, candidates_examined=5).merge(
            SearchStatistics(recursive_calls=3, maximality_checks=1)
        )
        assert merged.recursive_calls == 5
        assert merged.candidates_examined == 5
        assert merged.maximality_checks == 1


class TestStopwatch:
    def test_measures_positive_time(self):
        with Stopwatch() as timer:
            sum(range(1000))
        assert timer.elapsed >= 0.0


class TestEnumerationResult:
    def test_len_iter_contains(self):
        result = make_result()
        assert len(result) == 3
        assert {1, 2, 3} in result
        assert {1, 2} not in result
        assert len(list(iter(result))) == 3

    def test_cliques_sorted_by_size(self):
        result = make_result()
        assert [record.size for record in result.cliques] == [1, 2, 3]

    def test_vertex_sets(self):
        assert frozenset({4, 5}) in make_result().vertex_sets()

    def test_size_histogram(self):
        assert make_result().size_histogram() == {1: 1, 2: 1, 3: 1}

    def test_largest(self):
        assert make_result().largest().vertices == frozenset({1, 2, 3})

    def test_largest_of_empty_result(self):
        empty = EnumerationResult("mule", 0.5, [])
        assert empty.largest() is None
        assert empty.num_cliques == 0

    def test_filter_minimum_size(self):
        filtered = make_result().filter_minimum_size(2)
        assert filtered.num_cliques == 2
        assert all(record.size >= 2 for record in filtered)

    def test_top_k_by_probability(self):
        top = make_result().top_k_by_probability(2)
        assert [record.probability for record in top] == [1.0, 0.9]

    def test_top_k_larger_than_output(self):
        assert len(make_result().top_k_by_probability(10)) == 3

    def test_summary_keys(self):
        summary = make_result().summary()
        assert summary["algorithm"] == "mule"
        assert summary["num_cliques"] == 3

    def test_repr(self):
        assert "mule" in repr(make_result())


class TestVerify:
    def test_verify_accepts_correct_output(self):
        g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9), (3, 4, 0.4)])
        result = EnumerationResult(
            "manual",
            0.5,
            [
                CliqueRecord(vertices=frozenset({1, 2, 3}), probability=0.9**3),
                CliqueRecord(vertices=frozenset({4}), probability=1.0),
            ],
        )
        result.verify(g)  # should not raise

    def test_verify_rejects_non_maximal_clique(self):
        g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9)])
        result = EnumerationResult(
            "manual",
            0.5,
            [CliqueRecord(vertices=frozenset({1, 2}), probability=0.9)],
        )
        with pytest.raises(AssertionError):
            result.verify(g)

    def test_verify_rejects_below_threshold(self):
        g = UncertainGraph(edges=[(1, 2, 0.3)])
        result = EnumerationResult(
            "manual",
            0.5,
            [CliqueRecord(vertices=frozenset({1, 2}), probability=0.3)],
        )
        with pytest.raises(AssertionError):
            result.verify(g)

    def test_clean_output_has_no_problems(self, two_cliques):
        mule(two_cliques, 0.5).verify(two_cliques)  # should not raise

    def test_detects_below_threshold_clique(self, two_cliques):
        bogus = EnumerationResult(
            "manual",
            0.99,
            [CliqueRecord(vertices=frozenset({1, 2, 3}), probability=0.95**3)],
        )
        with pytest.raises(AssertionError, match="< α"):
            bogus.verify(two_cliques)

    def test_detects_non_maximal_clique(self, two_cliques):
        bogus = EnumerationResult(
            "manual",
            0.5,
            [CliqueRecord(vertices=frozenset({1, 2}), probability=0.95)],
        )
        with pytest.raises(AssertionError, match="is not maximal: adding 3"):
            bogus.verify(two_cliques)

    def test_detects_wrong_probability(self, two_cliques):
        bogus = EnumerationResult(
            "manual",
            0.5,
            [CliqueRecord(vertices=frozenset({1, 2, 3}), probability=0.5)],
        )
        with pytest.raises(AssertionError, match="differs from exact"):
            bogus.verify(two_cliques)

    def test_detects_redundant_family(self, two_cliques):
        # A family that is not an antichain always holds a non-maximal member.
        bogus = EnumerationResult(
            "manual",
            0.5,
            [
                CliqueRecord(vertices=frozenset({1, 2, 3}), probability=0.95**3),
                CliqueRecord(vertices=frozenset({1, 2}), probability=0.95),
            ],
        )
        with pytest.raises(AssertionError, match="is not maximal"):
            bogus.verify(two_cliques)

    def test_detects_duplicate_cliques(self, two_cliques):
        record = CliqueRecord(vertices=frozenset({1, 2, 3}), probability=0.95**3)
        bogus = EnumerationResult("manual", 0.5, [record, record])
        with pytest.raises(AssertionError, match="duplicate cliques"):
            bogus.verify(two_cliques)

    def test_verify_still_checks_under_python_optimize(self):
        # ``python -O`` strips assert statements; verify must raise anyway.
        script = (
            "from repro.core.result import CliqueRecord, EnumerationResult\n"
            "from repro.uncertain.graph import UncertainGraph\n"
            "g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9)])\n"
            "record = CliqueRecord(vertices=frozenset({1, 2}), probability=0.9)\n"
            "EnumerationResult('manual', 0.5, [record]).verify(g)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        completed = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert completed.returncode == 1
        assert "AssertionError" in completed.stderr
        assert "adding 3 keeps probability" in completed.stderr
