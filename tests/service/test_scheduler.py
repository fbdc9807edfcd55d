"""Scheduler tests — one cache lookup per job, mixed-graph isolation.

The concurrency guarantees pinned here:

* N concurrent requests for the same (graph, α) perform exactly **one**
  compilation (asserted via ``cache_info()``), even on a cold cache —
  the shared cache single-flights its misses, and each job looks the
  cache up once, as a session call does;
* concurrent sweeps share one compilation end to end;
* interleaved load over *different* graphs never cross-contaminates
  outcomes (session-per-fingerprint isolation);
* a request's own ``kernel`` reaches the engine unchanged;
* the bookkeeping counters (submitted/completed/failed, waits) add up,
  and the scheduler's metrics report the same counts, after a drain and
  after a refused submission too; a drained synchronous caller gets its
  job's ``ServiceError``, and a finished job keeps no second copy of its
  records.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import time
import types
import weakref

import pytest

from repro.api import EnumerationRequest, MiningSession
from repro.core.result import CliqueRecord
from repro.errors import ParameterError, ServiceError
from repro.generators.erdos_renyi import random_uncertain_graph
from repro.service import EnumerationScheduler
from repro.service.jobs import JobState
from repro.uncertain.graph import UncertainGraph
import repro.api.cache as cache_module

REQUEST = EnumerationRequest(algorithm="mule", alpha=0.4)


@pytest.fixture
def graph():
    return random_uncertain_graph(16, 0.5, rng=random.Random(11))


@pytest.fixture
def other_graph():
    return random_uncertain_graph(12, 0.6, rng=random.Random(99))


def slow_down_compiles(monkeypatch, seconds):
    """Make every real compilation take ``seconds`` more wall clock."""
    real = cache_module.compile_graph

    def slowed(*args, **kwargs):
        time.sleep(seconds)
        return real(*args, **kwargs)

    monkeypatch.setattr(cache_module, "compile_graph", slowed)


def join_all(threads, seconds=5.0):
    """Join ``threads`` within ``seconds`` in all, failing on one still alive.

    The threads are daemons, so a caller a broken drain left waiting fails
    the test instead of keeping the interpreter alive.
    """
    deadline = time.monotonic() + seconds
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not thread.is_alive(), f"{thread.name} is still waiting"


@pytest.fixture
def slow_compile(monkeypatch):
    """Make every real compilation take a visible amount of wall clock.

    The single-flight window is otherwise microseconds wide on toy
    graphs, which would let a broken implementation pass by racing
    through it; 50 ms guarantees all concurrently submitted jobs arrive
    while the leader is still compiling.
    """
    slow_down_compiles(monkeypatch, 0.05)


class TestSingleFlight:
    def test_same_key_compiles_exactly_once(self, graph, slow_compile):
        with EnumerationScheduler(graph, max_workers=8) as scheduler:
            jobs = [scheduler.submit(REQUEST) for _ in range(12)]
            outcomes = [job.wait() for job in jobs]
            info = scheduler.cache_info()
            stats = scheduler.stats()
        assert info.compilations == 1, info
        # Followers waited for the leader's build instead of compiling.
        assert stats.single_flight_waits >= 1, stats
        assert stats.single_flight_waits == scheduler.store.cache.single_flight_waits()
        assert info.hits + info.misses == 12, info
        reference = MiningSession(graph).enumerate(REQUEST)
        for outcome in outcomes:
            outcome.assert_matches(reference)

    def test_external_threads_share_one_compilation(self, graph, slow_compile):
        outcomes = []
        errors = []
        with EnumerationScheduler(graph, max_workers=8) as scheduler:
            barrier = threading.Barrier(6)

            def hammer():
                try:
                    barrier.wait(timeout=5)
                    outcomes.append(scheduler.run(REQUEST))
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            info = scheduler.cache_info()
        assert not errors
        assert len(outcomes) == 6
        assert info.compilations == 1, info

    def test_concurrent_sweep_compiles_once(self, graph, slow_compile):
        alphas = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        with EnumerationScheduler(graph, max_workers=8) as scheduler:
            outcomes = scheduler.sweep(alphas)
            info = scheduler.cache_info()
        assert info.compilations == 1, info
        assert info.derivations == len(alphas) - 1, info
        session = MiningSession(graph)
        for alpha, outcome in zip(alphas, outcomes):
            outcome.assert_matches(
                session.enumerate(EnumerationRequest(algorithm="mule", alpha=alpha))
            )

    def test_distinct_keys_still_compile_separately(self, graph):
        # Different compile options are different artifacts; single-flight
        # must not over-merge them.
        pruned = EnumerationRequest(algorithm="mule", alpha=0.4)
        unpruned = EnumerationRequest(algorithm="mule", alpha=0.4, prune_edges=False)
        with EnumerationScheduler(graph) as scheduler:
            a = scheduler.run(pruned)
            b = scheduler.run(unpruned)
            info = scheduler.cache_info()
        assert info.compilations == 2, info
        a.assert_matches(b, compare_statistics=False)

    def test_a_job_looks_the_cache_up_once(self, graph):
        session = MiningSession(graph, cache=cache_module.CompiledGraphCache())
        session.enumerate(REQUEST)
        session.enumerate(REQUEST)
        with EnumerationScheduler(graph) as scheduler:
            scheduler.run(REQUEST)
            scheduler.run(REQUEST)
            info = scheduler.cache_info()
        assert info[:4] == session.cache_info()[:4] == (1, 1, 1, 0), info


class TestMixedGraphLoad:
    def test_outcomes_never_cross_contaminate(self, graph, other_graph):
        with EnumerationScheduler(graph, max_workers=6) as scheduler:
            jobs = []
            for _ in range(4):
                jobs.append((graph, scheduler.submit(REQUEST)))
                jobs.append((other_graph, scheduler.submit(REQUEST, graph=other_graph)))
            results = [(g, job.wait()) for g, job in jobs]
            assert scheduler.stats().sessions == 2

        expected = {
            id(g): MiningSession(g).enumerate(REQUEST) for g in (graph, other_graph)
        }
        for g, outcome in results:
            outcome.assert_matches(expected[id(g)])
        # The two graphs genuinely disagree, so a swap would have failed.
        assert expected[id(graph)].vertex_sets() != expected[
            id(other_graph)
        ].vertex_sets()

    def test_equal_graphs_share_a_session(self, graph):
        copy = graph.copy()
        with EnumerationScheduler(graph) as scheduler:
            scheduler.run(REQUEST)
            scheduler.run(REQUEST, graph=copy)
            assert scheduler.stats().sessions == 1
            assert scheduler.cache_info().compilations == 1


class TestBookkeeping:
    def test_counters_add_up(self, graph):
        with EnumerationScheduler(graph, max_workers=2) as scheduler:
            for _ in range(5):
                scheduler.run(REQUEST)
            stats = scheduler.stats()
        assert stats.submitted == 5
        assert stats.completed == 5
        assert stats.failed == 0
        assert stats.inflight == 0
        assert stats.queued == 0

    def test_counts_hold_under_concurrent_jobs(self, graph):
        """A lost update in the job counts would break the partition."""
        submitters, per_thread = 8, 10
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with EnumerationScheduler(graph, max_workers=4) as scheduler:

                def submit_some():
                    for i in range(per_thread):
                        job = scheduler.submit_job(REQUEST, max_pending_pages=None)
                        if i % 3 == 0:
                            job.cancel()

                threads = [
                    threading.Thread(target=submit_some) for _ in range(submitters)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        stats = scheduler.stats()
        total = submitters * per_thread
        assert stats.submitted == total
        assert stats.queued == stats.inflight == stats.failed == 0
        assert stats.done + stats.cancelled == stats.completed == total
        counters = scheduler.metrics.snapshot()["counters"]
        assert counters["sched_jobs_submitted_total"] == total
        assert counters["jobs_transitions_total{state=done}"] == stats.done
        assert counters["jobs_transitions_total{state=cancelled}"] == stats.cancelled

    def test_failures_are_counted_and_raised(self, graph, monkeypatch):
        class Boom(RuntimeError):
            pass

        def explode(self, *args, **kwargs):
            raise Boom("compile exploded")

        with EnumerationScheduler(graph) as scheduler:
            # Patch the compile step: it is the shared front of both the
            # streaming and the materialising job paths.
            monkeypatch.setattr(MiningSession, "compiled", explode)
            job = scheduler.submit(REQUEST)
            with pytest.raises(Boom):
                job.wait()
            stats = scheduler.stats()
        assert stats.failed == 1
        assert stats.completed == 0

    def test_streamed_job_keeps_no_copy_of_its_records(self, graph):
        with EnumerationScheduler(graph) as scheduler:
            job = scheduler.submit_job(REQUEST)
            deadline = time.monotonic() + 10.0
            while job.state not in JobState.TERMINAL:
                assert time.monotonic() < deadline, "the job never finished"
                time.sleep(0.001)
            chunks = list(job.stream_chunks())
            # A chunk carries its page, one column block, as it is.
            first = weakref.ref(chunks[0].records)
            assert chunks[-1].final and chunks[-1].summary.num_cliques == 0
            del chunks
            gc.collect()
            assert scheduler.jobs.get(job.id) is job
            assert first() is None

    def test_retained_jobs_hold_no_records(self, graph):
        # Finished synchronous jobs stay in the registry with their pages.
        # The pages are column blocks, so the registry keeps no
        # CliqueRecord (nor its frozenset) for the collector to walk.
        with EnumerationScheduler(graph) as scheduler:
            for _ in range(300):
                scheduler.run(REQUEST)
            retained = scheduler.jobs.list()
            assert len(retained) == 256
            assert all(job.records_total > 0 for job in retained)
            seen = set()
            pending = list(retained)
            while pending:
                item = pending.pop()
                if id(item) in seen or isinstance(
                    item, (type, types.ModuleType, types.FunctionType, types.MethodType)
                ):
                    continue
                seen.add(id(item))
                assert not isinstance(item, CliqueRecord), "a retained job holds a record"
                pending.extend(gc.get_referents(item))

    def test_invalid_max_workers_rejected(self, graph):
        with pytest.raises(ParameterError):
            EnumerationScheduler(graph, max_workers=0)

    def test_submit_after_shutdown_raises(self, graph):
        scheduler = EnumerationScheduler(graph)
        scheduler.shutdown()
        with pytest.raises(ServiceError, match="server shutdown"):
            scheduler.submit(REQUEST)

    def test_empty_graph_requests_complete(self):
        with EnumerationScheduler(UncertainGraph()) as scheduler:
            outcome = scheduler.run(REQUEST)
        assert outcome.num_cliques == 0


class TestShutdownSubmitRace:
    """``shutdown(drain=True)`` racing in-flight ``submit_job`` calls.

    The contract: a submission losing the race gets a clean
    ``ServiceError("server shutdown…")``, and no interleaving leaves a
    zombie job parked ``queued`` in the registry after shutdown returns —
    every registered job is swept by the drain or runs to a terminal
    state.
    """

    def test_executor_refusal_settles_the_job(self, graph, monkeypatch):
        """An executor that refuses must not leave the job queued.

        Simulates the narrowest interleaving (executor shut down without
        the scheduler's closed flag observed): the submission must
        surface as a ``ServiceError`` and the just-registered job must be
        settled, not abandoned in ``queued``.
        """
        scheduler = EnumerationScheduler(graph)

        def refuse(*args, **kwargs):
            raise RuntimeError("cannot schedule new futures after shutdown")

        monkeypatch.setattr(scheduler._executor, "submit", refuse)
        with pytest.raises(ServiceError, match="server shutdown"):
            scheduler.submit_job(REQUEST)
        states = [job.state for job in scheduler.jobs.list()]
        assert JobState.QUEUED not in states
        stats = scheduler.stats()
        assert stats.queued == 0
        # The refused job is listed, so it counts as submitted and failed.
        counters = scheduler.metrics.snapshot()["counters"]
        assert stats.submitted == counters["sched_jobs_submitted_total"]
        assert stats.submitted == len(scheduler.jobs.list()) == 1
        assert stats.failed == 1
        monkeypatch.undo()
        scheduler.shutdown()

    def test_drained_jobs_count_as_failed_not_queued(self, graph, slow_compile):
        scheduler = EnumerationScheduler(graph, max_workers=1)
        jobs = [scheduler.submit_job(REQUEST) for _ in range(4)]
        deadline = time.monotonic() + 10.0
        while jobs[0].state == JobState.QUEUED:
            assert time.monotonic() < deadline, "the first job never started"
            time.sleep(0.001)
        scheduler.shutdown(drain=True)
        stats = scheduler.stats()
        snapshot = scheduler.metrics.snapshot()
        assert stats.queued == 0 == snapshot["gauges"]["sched_queue_depth"]
        assert stats.inflight == 0 == snapshot["gauges"]["sched_inflight_jobs"]
        assert stats.failed == scheduler.jobs.counts()[JobState.FAILED] == 3
        assert stats.completed == 1
        assert stats.submitted == 4

    def test_drained_synchronous_callers_get_service_error(self, graph, monkeypatch):
        slow_down_compiles(monkeypatch, 0.3)
        scheduler = EnumerationScheduler(graph, max_workers=1)
        results: list[object] = []

        def call():
            try:
                results.append(scheduler.run(REQUEST))
            except BaseException as exc:
                results.append(exc)

        threads = [threading.Thread(target=call, daemon=True) for _ in range(3)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10.0
        while scheduler.stats().submitted < 3 or scheduler.stats().inflight < 1:
            assert time.monotonic() < deadline, "the jobs never got going"
            time.sleep(0.001)
        scheduler.shutdown(wait=True, drain=True)
        join_all(threads)
        errors = [r for r in results if isinstance(r, BaseException)]
        assert len(results) == 3 and len(errors) == 2, results
        for error in errors:
            assert isinstance(error, ServiceError) and str(error) == "server shutdown"
        assert scheduler.stats().failed == 2

    def test_drained_batch_gets_service_error(self, graph, monkeypatch):
        slow_down_compiles(monkeypatch, 0.3)
        scheduler = EnumerationScheduler(graph, max_workers=1)
        queued = []
        real_submit = scheduler._executor.submit

        def spy(*args):
            future = real_submit(*args)
            queued.append(future)
            return future

        monkeypatch.setattr(scheduler._executor, "submit", spy)
        results: dict[str, object] = {}

        def call(name, function):
            try:
                results[name] = function()
            except BaseException as exc:
                results[name] = exc

        running = threading.Thread(
            target=call, args=("run", lambda: scheduler.run(REQUEST)), daemon=True
        )
        running.start()
        deadline = time.monotonic() + 10.0
        while scheduler.stats().inflight < 1:
            assert time.monotonic() < deadline, "the first job never started"
            time.sleep(0.001)
        batch = threading.Thread(
            target=call, args=("batch", lambda: scheduler.sweep([0.3, 0.5])), daemon=True
        )
        batch.start()
        while len(queued) < 2:
            assert time.monotonic() < deadline, "the batch never queued its base"
            time.sleep(0.001)
        scheduler.shutdown(wait=True, drain=True)
        join_all([running, batch])
        assert results["run"].num_cliques > 0
        assert isinstance(results["batch"], ServiceError), results
        assert str(results["batch"]) == "server shutdown"

    def test_drain_race_leaves_no_zombie_queued_job(self, graph):
        submitters = 8
        for _ in range(5):
            scheduler = EnumerationScheduler(graph, max_workers=2)
            results: list[tuple[str, object]] = []
            barrier = threading.Barrier(submitters + 1)

            def submit_one():
                try:
                    barrier.wait()
                    job = scheduler.submit_job(REQUEST)
                except ServiceError as exc:
                    results.append(("refused", exc))
                else:
                    results.append(("accepted", job))

            def shut_down():
                barrier.wait()
                scheduler.shutdown(drain=True)

            threads = [
                threading.Thread(target=submit_one) for _ in range(submitters)
            ]
            threads.append(threading.Thread(target=shut_down))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert len(results) == submitters
            for kind, payload in results:
                if kind == "refused":
                    assert "server shutdown" in str(payload)
                else:
                    # Shutdown has returned: the drain swept (or the pool
                    # finished) every job that made it in — none may still
                    # sit queued.
                    assert payload.state != JobState.QUEUED
            assert scheduler.jobs.counts()[JobState.QUEUED] == 0


class TestRequestKernel:
    """A request's own ``kernel`` reaches the engine through the scheduler."""

    @pytest.mark.parametrize("kernel", ["python", "vector"])
    def test_explicit_kernel_reaches_the_engine(self, graph, kernel):
        request = EnumerationRequest(algorithm="mule", alpha=0.4, kernel=kernel)
        with EnumerationScheduler(graph) as scheduler:
            outcome = scheduler.run(request)
        assert outcome.request.kernel == kernel

    def test_kernels_produce_identical_outcomes(self, graph):
        with EnumerationScheduler(graph) as scheduler:
            a, b = (
                scheduler.run(EnumerationRequest(algorithm="mule", alpha=0.4, kernel=k))
                for k in ("python", "vector")
            )
        assert [(r.vertices, r.probability) for r in a.records] == [
            (r.vertices, r.probability) for r in b.records
        ]
        assert a.statistics == b.statistics
