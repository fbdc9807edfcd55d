"""The async job pipeline — state machine, backpressure, cancellation.

These tests drive :class:`Job` / :class:`JobRegistry` through the
scheduler without any HTTP in the way, pinning the pipeline guarantees
the service endpoints build on:

* the state machine only moves ``queued → running → done|failed|cancelled``
  and every terminal state is sticky;
* ``cancel()`` returning ``True`` is a guarantee of ``cancelled``
  provenance — including for still-queued jobs and for cancellations
  racing a time budget in the same check window;
* the bounded page buffer blocks the producer deterministically, so a
  slow stream consumer caps server memory instead of growing it;
* streamed pages reassemble into the exact records of a synchronous run,
  and mid-stream cancellation truncates to a deterministic prefix;
* a drain acts on each job by its state: a queued job fails, a running
  one is left to finish (a producer blocked on a full buffer fails), a
  terminal one stands, and a waiter parked on the job wakes in every state;
* scheduler stats and the wire codec stay in lockstep with the job
  vocabulary (the ``JOB_STATES`` drift test lives here).
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager

import pytest

from repro.api import EnumerationRequest, MiningSession
from repro.core.engine import RunControls, StopReason
from repro.core.result import CliqueColumns
from repro.errors import JobError, JobNotFoundError, ParameterError, ServiceError
from repro.generators.erdos_renyi import random_uncertain_graph
from repro.obs import MetricsRegistry
from repro.service import EnumerationScheduler, JobState, codec
from repro.service.jobs import Job, JobRegistry
from repro.uncertain.graph import UncertainGraph

REQUEST = EnumerationRequest(algorithm="mule", alpha=0.3)
#: Sentinel alpha the ``failing_compile`` fixture booby-traps.
FAILING_REQUEST = EnumerationRequest(algorithm="mule", alpha=0.99)
DEADLINE = 10.0  # generous cap for wait_for-style polling loops


@pytest.fixture
def graph():
    return random_uncertain_graph(16, 0.5, rng=random.Random(11))


@pytest.fixture
def scheduler(graph):
    sched = EnumerationScheduler(graph)
    yield sched
    sched.shutdown(wait=False, drain=True)


@pytest.fixture
def serial_outcome(graph):
    return MiningSession(graph).enumerate(REQUEST)


@pytest.fixture
def failing_compile(monkeypatch):
    """Make compiling at ``FAILING_REQUEST``'s alpha raise (compilation is
    the shared front of both job execution paths); other alphas run
    normally so failed jobs can coexist with successful ones."""
    real = MiningSession.compiled

    def maybe_boom(self, *args, **kwargs):
        if kwargs.get("alpha") == FAILING_REQUEST.alpha:
            raise ParameterError("injected compile failure")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(MiningSession, "compiled", maybe_boom)


def wait_until(predicate, message: str) -> None:
    deadline = time.monotonic() + DEADLINE
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {message}")
        time.sleep(0.001)


class TestStateMachine:
    def test_job_states_match_codec_vocabulary(self):
        # codec.JOB_STATES is a deliberate literal (the wire contract);
        # this is the drift alarm keeping it in lockstep with JobState.
        assert codec.JOB_STATES == JobState.ALL
        assert set(JobState.TERMINAL) <= set(JobState.ALL)
        assert StopReason.CANCELLED == JobState.CANCELLED

    def test_happy_path_reaches_done(self, scheduler, serial_outcome):
        job = scheduler.submit_job(REQUEST, max_pending_pages=None)
        outcome = job.wait(timeout=DEADLINE)
        assert job.state == JobState.DONE
        outcome.assert_matches(serial_outcome)
        assert job.records_total == len(serial_outcome.records)

    def test_ids_are_sequential_and_lookup_works(self, scheduler):
        first = scheduler.submit_job(REQUEST, max_pending_pages=None)
        second = scheduler.submit_job(REQUEST, max_pending_pages=None)
        assert first.id != second.id
        assert scheduler.jobs.get(first.id) is first
        assert scheduler.jobs.get(second.id) is second
        with pytest.raises(JobNotFoundError):
            scheduler.jobs.get("job-999999")

    def test_execution_failure_fails_the_job(self, scheduler, failing_compile):
        job = scheduler.submit_job(FAILING_REQUEST, max_pending_pages=None)
        with pytest.raises(ParameterError, match="injected"):
            job.wait(timeout=DEADLINE)
        assert job.state == JobState.FAILED
        assert isinstance(job.error, ParameterError)

    def test_failed_job_streams_its_error(self, scheduler, failing_compile):
        job = scheduler.submit_job(FAILING_REQUEST, max_pending_pages=None)
        chunks = list(job.stream_chunks())
        assert len(chunks) == 1 and chunks[0].final
        assert chunks[0].summary is None
        assert isinstance(chunks[0].error, ParameterError)

    def test_progress_is_monotonic(self, scheduler):
        job = scheduler.submit_job(REQUEST, max_pending_pages=None)
        snapshots = []
        while job.state not in JobState.TERMINAL:
            snapshots.append(job.progress())
        snapshots.append(job.progress())
        emitted = [s.cliques_emitted for s in snapshots]
        frames = [s.frames_expanded for s in snapshots]
        assert emitted == sorted(emitted)
        assert frames == sorted(frames)


class TestCancellation:
    def test_cancel_after_terminal_returns_false(self, scheduler):
        job = scheduler.submit_job(REQUEST, max_pending_pages=None)
        job.wait(timeout=DEADLINE)
        assert job.state == JobState.DONE
        assert job.cancel() is False
        assert job.state == JobState.DONE  # the terminal state stands

    def test_cancel_while_queued_settles_immediately(self, graph):
        with EnumerationScheduler(graph, max_workers=1) as scheduler:
            # Park the single worker: page_size=1 + max_pending_pages=1
            # blocks the producer after its first record until someone
            # streams, so the second submission stays queued.
            blocker = scheduler.submit_job(
                REQUEST, page_size=1, max_pending_pages=1
            )
            wait_until(
                lambda: blocker.records_total >= 1, "blocker to start producing"
            )
            queued = scheduler.submit_job(REQUEST, max_pending_pages=None)
            assert queued.state == JobState.QUEUED

            assert queued.cancel() is True
            assert queued.state == JobState.CANCELLED
            outcome = queued.wait(timeout=DEADLINE)
            assert outcome.records == []
            assert outcome.stop_reason == StopReason.CANCELLED

            # Unblock the parked job; the worker must also survive the
            # settled-while-queued job without flinching.
            blocker_records = [
                r for chunk in blocker.stream_chunks() for r in chunk.records
            ]
            assert blocker.state == JobState.DONE
            assert len(blocker_records) == blocker.records_total

    def test_cancel_beats_time_budget_in_same_window(self, graph):
        """A queued job with an already-expired budget that gets cancelled
        must settle ``cancelled``, not ``time-budget`` — one deterministic
        terminal state even when both limits land in the same window."""
        with EnumerationScheduler(graph, max_workers=1) as scheduler:
            blocker = scheduler.submit_job(
                REQUEST, page_size=1, max_pending_pages=1
            )
            wait_until(
                lambda: blocker.records_total >= 1, "blocker to start producing"
            )
            hurried = scheduler.submit_job(
                EnumerationRequest(
                    algorithm="mule",
                    alpha=0.3,
                    controls=RunControls(
                        time_budget_seconds=0.0, check_every_frames=1
                    ),
                ),
                max_pending_pages=None,
            )
            assert hurried.cancel() is True
            list(blocker.stream_chunks())
            outcome = hurried.wait(timeout=DEADLINE)
            assert hurried.state == JobState.CANCELLED
            assert outcome.stop_reason == StopReason.CANCELLED

    def test_mid_stream_cancel_truncates_to_a_prefix(
        self, scheduler, serial_outcome
    ):
        job = scheduler.submit_job(
            EnumerationRequest(
                algorithm="mule",
                alpha=0.3,
                controls=RunControls(check_every_frames=1),
            ),
            page_size=1,
            max_pending_pages=1,
        )
        records = []
        chunks = job.stream_chunks()
        final = None
        for chunk in chunks:
            if chunk.final:
                final = chunk
                break
            records.extend(chunk.records)
            if len(records) == 2:
                assert job.cancel() is True
        assert final is not None and final.error is None
        assert job.state == JobState.CANCELLED
        assert final.summary.stop_reason == StopReason.CANCELLED
        # Deterministic truncation: with a 1-record page buffer the
        # producer is exactly one record ahead of the acked stream, so a
        # cancel after 2 delivered records always lands at 2 produced.
        expected = [
            (r.vertices, r.probability) for r in serial_outcome.records[:2]
        ]
        assert [(r.vertices, r.probability) for r in records] == expected
        assert final.summary.report.cliques_emitted == len(records)

    @pytest.mark.parametrize("kernel", ["python", "vector"])
    def test_cancel_mid_page_stops_the_producer_at_the_next_clique(
        self, monkeypatch, kernel
    ):
        # The producer fills a page outside the job's lock, but the token
        # is still read before each clique is kept (in C on the native
        # kernel): a cancel that lands mid-page keeps the cliques before it
        # and the kernel produces no other.
        import repro.api.session as session_module
        from repro.core.engine.backends import native

        graph = UncertainGraph(edges=[(2 * i, 2 * i + 1, 0.9) for i in range(15)])
        request = EnumerationRequest(algorithm="mule", alpha=0.5, kernel=kernel)
        kept = 5
        expected = MiningSession(graph).enumerate(request).records[:kept]
        drawn = []
        blocks = session_module.run_kernel_blocks
        # One clique per kernel block, so the cancel lands between cliques.
        monkeypatch.setattr(native, "_BATCH_CLIQUES", 1)

        def cancel_after_kept(*args, **kwargs):
            for block in blocks(*args, **kwargs):
                drawn.extend(block[1])
                if len(drawn) == kept:
                    kwargs["cancel"].cancel()
                yield block

        monkeypatch.setattr(session_module, "run_kernel_blocks", cancel_after_kept)
        with EnumerationScheduler(graph) as scheduler:
            job = scheduler.submit_job(request, page_size=1000)
            outcome = job.wait(timeout=DEADLINE)
        assert job.state == JobState.CANCELLED
        assert outcome.stop_reason == StopReason.CANCELLED
        # The kernel stops before the next clique: it hands over no other.
        assert len(drawn) == kept
        assert job.records_total == outcome.num_cliques == kept
        assert outcome.report.cliques_emitted == kept
        assert [(r.vertices, r.probability) for r in outcome.records] == [
            (r.vertices, r.probability) for r in expected
        ]


class TestBackpressure:
    def test_producer_blocks_at_the_page_bound(self, scheduler):
        job = scheduler.submit_job(REQUEST, page_size=1, max_pending_pages=2)
        wait_until(lambda: job.records_total >= 2, "buffer to fill")
        # Unconsumed stream: the producer must hold at exactly the bound.
        time.sleep(0.05)
        assert job.records_total == 2
        assert job.state == JobState.RUNNING

        records = [r for chunk in job.stream_chunks() for r in chunk.records]
        assert job.state == JobState.DONE
        assert len(records) == job.records_total

    def test_streamed_records_match_synchronous_run(
        self, scheduler, serial_outcome
    ):
        job = scheduler.submit_job(REQUEST, page_size=3, max_pending_pages=2)
        chunks = list(job.stream_chunks())
        assert chunks[-1].final and chunks[-1].error is None
        seqs = [c.seq for c in chunks]
        assert seqs == list(range(len(chunks)))
        records = [r for c in chunks[:-1] for r in c.records]
        assert [(r.vertices, r.probability) for r in records] == [
            (r.vertices, r.probability) for r in serial_outcome.records
        ]
        summary = chunks[-1].summary
        assert summary.records == []
        assert summary.report.stop_reason == serial_outcome.stop_reason

    def test_wait_after_streaming_raises_job_error(self, scheduler):
        job = scheduler.submit_job(REQUEST, page_size=1, max_pending_pages=2)
        list(job.stream_chunks())
        with pytest.raises(JobError):
            job.wait(timeout=DEADLINE)

    def test_cursor_below_released_floor_is_rejected_eagerly(self, scheduler):
        job = scheduler.submit_job(REQUEST, page_size=1, max_pending_pages=2)
        list(job.stream_chunks())
        with pytest.raises(JobError):
            job.stream_chunks(cursor=0)

    def test_cursor_resume_re_reads_unacked_pages(self, scheduler):
        job = scheduler.submit_job(REQUEST, page_size=1, max_pending_pages=4)
        first = job.stream_chunks()
        chunk0 = next(first)
        first.close()  # consumer died mid-delivery: chunk 0 never acked
        resumed = list(job.stream_chunks(cursor=chunk0.seq))
        assert resumed[0].records == chunk0.records
        assert resumed[-1].final


class TestRegistryAndStats:
    def test_counts_partition_terminal_states(self, scheduler, failing_compile):
        done = scheduler.submit_job(REQUEST, max_pending_pages=None)
        done.wait(timeout=DEADLINE)
        failed = scheduler.submit_job(FAILING_REQUEST, max_pending_pages=None)
        with pytest.raises(ParameterError):
            failed.wait(timeout=DEADLINE)
        cancelled = scheduler.submit_job(REQUEST, max_pending_pages=None)
        cancel_won = cancelled.cancel()
        wait_until(
            lambda: cancelled.state in JobState.TERMINAL, "cancel to settle"
        )
        if cancel_won:  # the True-return guarantee
            assert cancelled.state == JobState.CANCELLED

        counts = scheduler.jobs.counts()
        assert counts[JobState.DONE] == 1 + (0 if cancel_won else 1)
        assert counts[JobState.CANCELLED] == (1 if cancel_won else 0)
        assert counts[JobState.FAILED] == 1
        assert counts[JobState.QUEUED] == 0
        assert counts[JobState.RUNNING] == 0

        stats = scheduler.stats()
        assert stats.done == counts[JobState.DONE]
        assert stats.cancelled == counts[JobState.CANCELLED]
        assert stats.failed == 1
        assert stats.submitted == 3

    def test_a_transition_is_counted_before_waiters_wake(
        self, scheduler, monkeypatch
    ):
        real = JobRegistry._note

        def slowed(self, source, state):
            time.sleep(0.05)
            real(self, source, state)

        monkeypatch.setattr(JobRegistry, "_note", slowed)
        job = scheduler.submit_job(REQUEST, max_pending_pages=None)
        job.wait(timeout=DEADLINE)
        assert scheduler.jobs.counts()[JobState.DONE] == 1
        assert scheduler.stats().completed == 1

    def test_registry_evicts_oldest_finished_jobs(self, graph):
        with EnumerationScheduler(graph) as scheduler:
            registry = scheduler.jobs
            registry._max_finished = 2
            ids = []
            for _ in range(4):
                job = scheduler.submit_job(REQUEST, max_pending_pages=None)
                job.wait(timeout=DEADLINE)
                ids.append(job.id)
            kept = {job.id for job in registry.list()}
            assert kept == set(ids[-2:])
            with pytest.raises(JobNotFoundError):
                registry.get(ids[0])

    def test_drain_fails_queued_jobs(self, graph):
        scheduler = EnumerationScheduler(graph, max_workers=1)
        blocker = scheduler.submit_job(REQUEST, page_size=1, max_pending_pages=1)
        wait_until(
            lambda: blocker.records_total >= 1, "blocker to start producing"
        )
        queued = scheduler.submit_job(REQUEST, max_pending_pages=None)

        scheduler.shutdown(wait=False, drain=True)
        wait_until(
            lambda: queued.state in JobState.TERMINAL, "queued job to settle"
        )
        assert queued.state == JobState.FAILED
        with pytest.raises(ServiceError, match="server shutdown"):
            queued.wait(timeout=DEADLINE)
        # The blocked producer is woken to fail the same way.
        wait_until(
            lambda: blocker.state in JobState.TERMINAL, "blocker to settle"
        )
        assert blocker.state == JobState.FAILED

    def test_submit_after_shutdown_is_rejected(self, graph):
        scheduler = EnumerationScheduler(graph)
        scheduler.shutdown(wait=True)
        with pytest.raises(ServiceError):
            scheduler.submit_job(REQUEST)


# --------------------------------------------------------------------- #
# Job._shutdown, the drain sweep's step for one job, state by state
# --------------------------------------------------------------------- #
#: Bound on every wait below, so a regression fails in seconds, not hangs.
SHUTDOWN_DEADLINE = 5.0


@contextmanager
def parked_consumer(job):
    """A thread parked on ``job``'s condition; yields an event set on wake-up."""
    parked, woke = threading.Event(), threading.Event()

    def park():
        with job._cond:
            # Set under the condition, so whoever waits for ``parked`` and
            # then takes the condition finds this thread inside wait().
            parked.set()
            if job._cond.wait(SHUTDOWN_DEADLINE):
                woke.set()

    thread = threading.Thread(target=park, daemon=True)
    thread.start()
    try:
        assert parked.wait(SHUTDOWN_DEADLINE)
        yield woke
    finally:
        thread.join(SHUTDOWN_DEADLINE)


@contextmanager
def parked_producer(job):
    """A producer blocked on ``job``'s full buffer; yields what it raised."""
    raised = []

    def produce():
        try:
            job._hand_over(CliqueColumns([1, 2], [2], [0.5], True))
        except Exception as exc:
            raised.append(exc)

    thread = threading.Thread(target=produce, daemon=True)
    thread.start()
    try:
        # The page is counted and the producer parks in one lock hold.
        wait_until(lambda: job.records_total == 1, "the producer to park")
        yield raised
        thread.join(SHUTDOWN_DEADLINE)
        assert not thread.is_alive(), "the parked producer stayed blocked"
    finally:
        if thread.is_alive():
            job.cancel()  # unblock it: no thread outlives the test
            thread.join(SHUTDOWN_DEADLINE)


def shut_down(job):
    """Run ``job._shutdown()``; a consumer parked on the job must wake."""
    with parked_consumer(job) as woke:
        job._shutdown()
        assert woke.wait(SHUTDOWN_DEADLINE), "a parked consumer was not woken"


def queued_job_fails(job):
    shut_down(job)
    assert job.state == JobState.FAILED
    with pytest.raises(ServiceError, match="server shutdown"):
        job.wait(timeout=0)


def running_job_is_left_to_finish(job):
    with parked_producer(job) as raised:
        shut_down(job)
    assert [type(exc) for exc in raised] == [ServiceError]
    assert str(raised[0]) == "server shutdown"
    assert job.state == JobState.RUNNING and job.error is None
    job._finish()
    assert job.state == JobState.DONE


def terminal_job_stands(job):
    before = (job.state, job.error, job.report.stop_reason, job.records_total)
    shut_down(job)
    assert (job.state, job.error, job.report.stop_reason, job.records_total) == before


def finished(job):
    job._begin()
    job._finish()


def failed(job):
    job._begin()
    job._fail(ParameterError("injected"))


#: Per state: how a queued job gets there, and what its shutdown must do.
SHUTDOWN_EXPECTATIONS = {
    JobState.QUEUED: (lambda job: None, queued_job_fails),
    JobState.RUNNING: (Job._begin, running_job_is_left_to_finish),
    JobState.DONE: (finished, terminal_job_stands),
    JobState.FAILED: (failed, terminal_job_stands),
    JobState.CANCELLED: (Job.cancel, terminal_job_stands),
}


class TestShutdown:
    @pytest.mark.parametrize("state", JobState.ALL)
    def test_shutdown_in_every_state(self, state):
        # A new state fails here until its shutdown behaviour is written.
        assert SHUTDOWN_EXPECTATIONS.keys() == set(JobState.ALL)
        reach, expect = SHUTDOWN_EXPECTATIONS[state]
        job = JobRegistry(MetricsRegistry()).create(
            REQUEST, page_size=1, max_pending_pages=1
        )
        reach(job)
        assert job.state == state
        expect(job)
