"""The async job endpoints end to end — submit, poll, stream, cancel.

These run a real :class:`MiningServer` on an ephemeral port.  The
headline assertions:

* a job streamed over NDJSON reassembles **bit-identically**
  (``assert_matches``) to a local synchronous run — including under
  mid-stream cancellation, where backpressure makes the truncation point
  deterministic;
* status polls are monotonic in the progress counters;
* ``RemoteJob.iter_results`` survives dropped connections without losing
  or duplicating records (cursor resume), and gives up cleanly on a
  stream that stalls;
* control-plane calls (health, stats, status polls, cancel) use the
  short :data:`DEFAULT_CONTROL_TIMEOUT_SECONDS`, never the 300 s
  data-plane default;
* a draining server answers every new submission with a 503
  ``ServiceError`` envelope while read-only endpoints keep working.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.api import EnumerationRequest, MiningSession
from repro.core.engine import RunControls, StopReason
from repro.errors import (
    FormatError,
    JobError,
    JobNotFoundError,
    ServiceError,
)
from repro.generators.erdos_renyi import random_uncertain_graph
from repro.service import MiningServer, RemoteJob, RemoteSession, codec
from repro.service import client as client_module
from repro.service.client import (
    DEFAULT_CONTROL_TIMEOUT_SECONDS,
    DEFAULT_TIMEOUT_SECONDS,
)
from repro.service.jobs import JobState

# 85 records at alpha=0.2 — more than one page buffer (64 pages of one
# record each), so an unconsumed page_size=1 job deterministically parks
# its producer mid-run.
REQUEST = EnumerationRequest(algorithm="mule", alpha=0.2)
PAGE_BUFFER = 64  # DEFAULT_MAX_PENDING_PAGES, the submit-path bound
DEADLINE = 10.0


@pytest.fixture(scope="module")
def graph():
    return random_uncertain_graph(20, 0.5, rng=random.Random(7))


@pytest.fixture(scope="module")
def serial_outcome(graph):
    return MiningSession(graph).enumerate(REQUEST)


@pytest.fixture()
def server(graph):
    with MiningServer(graph, port=0) as srv:
        yield srv


@pytest.fixture()
def remote(server):
    return RemoteSession(server.url)


def poll_until(job: RemoteJob, state: str) -> codec.JobStatus:
    deadline = time.monotonic() + DEADLINE
    while True:
        status = job.status()
        if status.state == state:
            return status
        if time.monotonic() > deadline:
            pytest.fail(f"job {job.id} stuck in {status.state!r}")
        time.sleep(0.005)


class TestSubmitAndStream:
    def test_wait_matches_local_run(self, remote, serial_outcome):
        job = remote.submit(REQUEST)
        outcome = job.wait()
        outcome.assert_matches(serial_outcome)

    def test_streamed_chunks_reassemble_bit_identically(
        self, remote, serial_outcome
    ):
        job = remote.submit(REQUEST, page_size=7)
        streamed = list(job.iter_results())
        assert [(r.vertices, r.probability) for r in streamed] == [
            (r.vertices, r.probability) for r in serial_outcome.records
        ]
        job.outcome().assert_matches(serial_outcome)

    def test_status_reflects_completion(self, remote, serial_outcome):
        job = remote.submit(REQUEST)
        status = poll_until(job, JobState.DONE)
        assert status.id == job.id
        assert status.records == len(serial_outcome.records)
        assert status.cliques_emitted == len(serial_outcome.records)
        assert status.error is None

    def test_progress_polls_are_monotonic(self, remote):
        job = remote.submit(REQUEST)
        statuses = [job.status()]
        while statuses[-1].state not in JobState.TERMINAL:
            statuses.append(job.status())
        emitted = [s.records for s in statuses]
        frames = [s.frames_expanded for s in statuses]
        assert emitted == sorted(emitted)
        assert frames == sorted(frames)
        assert all(s.state in codec.JOB_STATES for s in statuses)

    def test_jobs_listing(self, remote):
        first = remote.submit(REQUEST)
        first.wait()
        second = remote.submit(REQUEST)
        second.wait()
        listed = remote.jobs()
        assert [s.id for s in listed] == [first.id, second.id]
        assert all(s.state == JobState.DONE for s in listed)

    def test_stats_exposes_job_counts(self, remote):
        job = remote.submit(REQUEST)
        job.wait()
        jobs = remote.stats()["jobs"]
        assert jobs["done"] == 1
        assert set(jobs) == set(codec.JOB_STATES)


class TestCancellation:
    def test_mid_run_cancel_truncates_deterministically(
        self, remote, serial_outcome
    ):
        """Backpressure parks the unconsumed producer at exactly
        ``PAGE_BUFFER`` records; cancelling there yields a bit-exact
        prefix with ``cancelled`` provenance."""
        job = remote.submit(
            EnumerationRequest(
                algorithm="mule",
                alpha=0.2,
                controls=RunControls(check_every_frames=1),
            ),
            page_size=1,
        )
        deadline = time.monotonic() + DEADLINE
        while job.status().records < PAGE_BUFFER:
            assert time.monotonic() < deadline, "producer never filled buffer"
            time.sleep(0.005)
        assert job.status().state == JobState.RUNNING

        # DELETE acknowledges the request; the cooperative producer may
        # need one more wake-up to settle, so poll for the guarantee.
        status = job.cancel()
        assert status.state in (JobState.RUNNING, JobState.CANCELLED)
        poll_until(job, JobState.CANCELLED)

        streamed = list(job.iter_results())
        assert len(streamed) == PAGE_BUFFER
        outcome = job.outcome()
        assert outcome.stop_reason == StopReason.CANCELLED
        assert outcome.report.cliques_emitted == PAGE_BUFFER
        assert [(r.vertices, r.probability) for r in streamed] == [
            (r.vertices, r.probability)
            for r in serial_outcome.records[:PAGE_BUFFER]
        ]

    def test_cancel_done_job_leaves_it_done(self, remote):
        job = remote.submit(REQUEST)
        job.wait()
        status = job.cancel()
        assert status.state == JobState.DONE

    def test_delete_unknown_job_is_404(self, remote):
        with pytest.raises(JobNotFoundError):
            remote.job("job-999999").cancel()

    def test_status_unknown_job_is_404(self, remote):
        with pytest.raises(JobNotFoundError):
            remote.job("job-999999").status()


class TestCursors:
    def test_cursor_skips_acknowledged_pages(self, remote, serial_outcome):
        job = remote.submit(REQUEST, page_size=7)
        poll_until(job, JobState.DONE)
        job._cursor = 5  # re-attach mid-stream: pages 0–4 already consumed
        tail = list(job.iter_results())
        assert [(r.vertices, r.probability) for r in tail] == [
            (r.vertices, r.probability)
            for r in serial_outcome.records[5 * 7 :]
        ]

    def test_released_cursor_rejected_through_the_wire(self, remote):
        job = remote.submit(REQUEST, page_size=7)
        list(job.iter_results())
        fresh = remote.job(job.id)
        with pytest.raises(JobError, match="released"):
            list(fresh.iter_results())

    def test_malformed_cursor_is_a_format_error(self, server, remote):
        job = remote.submit(REQUEST)
        job.wait()
        with pytest.raises(FormatError):
            remote._open_stream(f"/v2/jobs/{job.id}/results?cursor=abc")
        with pytest.raises(FormatError):
            remote._open_stream(f"/v2/jobs/{job.id}/results?page=3")


class _CannedStreams:
    """A fake ``_HttpClient`` serving canned NDJSON connections.

    Each connection is a list of encoded chunk lines; a ``drop`` marker
    raises mid-iteration like a severed socket.  Connections are handed
    out in order; the cursor of every open is recorded so tests can pin
    the resume sequence.
    """

    DROP = object()

    def __init__(self, connections, states=()):
        self._connections = list(connections)
        self._states = list(states)  # answers to status polls, in order
        self.opened_at = []
        self.status_polls = 0

    def _open_stream(self, path: str, *, timeout: float | None = None):
        self.opened_at.append(int(path.rsplit("cursor=", 1)[1]))
        if not self._connections:
            raise AssertionError("no more canned connections")
        return _CannedResponse(self._connections.pop(0))

    def _get(self, path: str, *, timeout: float | None = None):
        # A status poll; state defaults to running once the canned
        # sequence is exhausted.
        self.status_polls += 1
        state = self._states.pop(0) if self._states else JobState.RUNNING
        return codec.job_status_to_wire(
            codec.JobStatus(
                id=path.rsplit("/", 1)[1],
                state=state,
                cliques_emitted=0,
                frames_expanded=0,
                elapsed_seconds=0.0,
                records=0,
            )
        )


class _CannedResponse:
    def __init__(self, lines):
        self._lines = lines

    def __iter__(self):
        for line in self._lines:
            if line is _CannedStreams.DROP:
                raise OSError("connection dropped")
            yield line

    def close(self):
        pass


def chunk_lines(job_id: str, outcome, page_size: int) -> list[bytes]:
    """Encode an outcome as the NDJSON lines a server would stream."""
    records = outcome.records
    pages = [
        records[i : i + page_size] for i in range(0, len(records), page_size)
    ]
    summary = codec.job_summary_from_wire(codec.job_summary_to_wire(outcome))
    lines = [
        codec.encode(
            codec.job_chunk_to_wire(
                codec.JobChunk(
                    job=job_id, seq=seq, records=tuple(page), final=False
                )
            )
        )
        for seq, page in enumerate(pages)
    ]
    lines.append(
        codec.encode(
            codec.job_chunk_to_wire(
                codec.JobChunk(
                    job=job_id,
                    seq=len(pages),
                    records=(),
                    final=True,
                    summary=summary,
                )
            )
        )
    )
    return lines


class TestClientReconnect:
    """RemoteJob's resume logic against deterministic fake connections."""

    def test_drop_mid_stream_resumes_without_loss(self, serial_outcome):
        lines = chunk_lines("job-000042", serial_outcome, page_size=7)
        fake = _CannedStreams(
            [
                lines[:3] + [_CannedStreams.DROP],  # dies after 3 chunks
                lines[3:],  # resumed connection serves the rest
            ]
        )
        job = RemoteJob(fake, "job-000042")
        streamed = list(job.iter_results())
        assert fake.opened_at == [0, 3]
        assert [(r.vertices, r.probability) for r in streamed] == [
            (r.vertices, r.probability) for r in serial_outcome.records
        ]
        job.outcome().assert_matches(serial_outcome)

    def test_drop_mid_line_does_not_advance_the_cursor(self, serial_outcome):
        lines = chunk_lines("job-000042", serial_outcome, page_size=7)
        truncated = lines[1][: len(lines[1]) // 2]
        fake = _CannedStreams(
            [
                [lines[0], truncated],  # chunk 1 cut off mid-bytes
                lines[1:],
            ]
        )
        job = RemoteJob(fake, "job-000042")
        with pytest.raises(ServiceError, match="malformed"):
            list(job.iter_results())

    def test_stalled_stream_gives_up(self, serial_outcome, monkeypatch):
        monkeypatch.setattr(client_module, "_RECONNECT_BACKOFF_SECONDS", 1e-6)
        fake = _CannedStreams([[_CannedStreams.DROP]] * 10)
        job = RemoteJob(fake, "job-000042")
        with pytest.raises(ServiceError, match="stalled"):
            list(job.iter_results())
        assert len(fake.opened_at) == 5

    def test_queued_job_slow_start_is_not_stalled(
        self, serial_outcome, monkeypatch
    ):
        """A job parked in the submit queue must not burn the stall budget.

        Regression test: the stream of a queued job legitimately closes
        with nothing to deliver — reconnecting used to count each of
        those empty streams as a stall (with zero delay between them), so
        any job queued behind a few seconds of work died with a spurious
        ``stalled`` error before it ever started.
        """
        monkeypatch.setattr(client_module, "_RECONNECT_BACKOFF_SECONDS", 1e-6)
        lines = chunk_lines("job-000042", serial_outcome, page_size=7)
        empty_streams = 2 * client_module._MAX_STALLED_RECONNECTS
        fake = _CannedStreams(
            [[]] * empty_streams + [lines],
            states=[JobState.QUEUED] * empty_streams,
        )
        job = RemoteJob(fake, "job-000042")
        streamed = list(job.iter_results())
        assert fake.status_polls == empty_streams
        assert len(fake.opened_at) == empty_streams + 1
        assert [(r.vertices, r.probability) for r in streamed] == [
            (r.vertices, r.probability) for r in serial_outcome.records
        ]
        job.outcome().assert_matches(serial_outcome)

    def test_stall_budget_starts_once_running_observed(
        self, serial_outcome, monkeypatch
    ):
        """Queued polls are free; the budget starts at the first running."""
        monkeypatch.setattr(client_module, "_RECONNECT_BACKOFF_SECONDS", 1e-6)
        queued = 4
        fake = _CannedStreams(
            [[]] * 20,
            states=[JobState.QUEUED] * queued,  # then running forever
        )
        job = RemoteJob(fake, "job-000042")
        with pytest.raises(ServiceError, match="stalled"):
            list(job.iter_results())
        # 4 free reconnects while queued + the full stall budget after.
        assert len(fake.opened_at) == queued + client_module._MAX_STALLED_RECONNECTS
        # Once running was observed the client stops polling status.
        assert fake.status_polls == queued + 1

    def test_idle_reconnects_back_off_exponentially(
        self, serial_outcome, monkeypatch
    ):
        delays: list[float] = []
        monkeypatch.setattr(client_module.time, "sleep", delays.append)
        fake = _CannedStreams([[_CannedStreams.DROP]] * 10)
        job = RemoteJob(fake, "job-000042")
        with pytest.raises(ServiceError, match="stalled"):
            list(job.iter_results())
        base = client_module._RECONNECT_BACKOFF_SECONDS
        assert delays == [base, base * 2, base * 4, base * 8]

    def test_foreign_chunk_is_rejected(self, serial_outcome):
        lines = chunk_lines("job-000099", serial_outcome, page_size=7)
        fake = _CannedStreams([lines])
        job = RemoteJob(fake, "job-000042")
        with pytest.raises(ServiceError, match="job-000099"):
            list(job.iter_results())


class TestTimeouts:
    """Control-plane calls must not inherit the 300 s data-plane default."""

    @staticmethod
    def spy_timeouts(monkeypatch) -> list:
        """Record the timeout of every request, as the transport applies it.

        Each request takes one connection from the pool, with the timeout
        its socket then runs under.
        """
        captured = []
        real = client_module._POOL.connection

        def spy(origin, timeout):
            captured.append(timeout)
            return real(origin, timeout)

        monkeypatch.setattr(client_module._POOL, "connection", spy)
        return captured

    def test_per_call_timeout_routing(self, server, remote, monkeypatch):
        captured = self.spy_timeouts(monkeypatch)

        remote.health()
        remote.stats()
        job = remote.submit(REQUEST)
        job.status()
        job.wait()
        job.cancel()
        remote.jobs()
        remote.enumerate(REQUEST)

        control, data = DEFAULT_CONTROL_TIMEOUT_SECONDS, DEFAULT_TIMEOUT_SECONDS
        # health, stats, submit, status, cancel, jobs — everything except
        # the result stream and the synchronous enumerate.
        assert captured.count(control) == 6
        assert captured.count(data) == 2
        assert captured[-1] == data

    def test_explicit_timeout_wins(self, server, remote, monkeypatch):
        captured = self.spy_timeouts(monkeypatch)
        remote.health(timeout=1.5)
        remote.stats(timeout=2.5)
        assert captured == [1.5, 2.5]


class TestDrain:
    def test_draining_server_rejects_submissions_with_503(
        self, server, remote
    ):
        done = remote.submit(REQUEST)
        done.wait()
        server.drain()
        assert server.draining

        with pytest.raises(ServiceError, match="draining"):
            remote.submit(REQUEST)
        with pytest.raises(ServiceError, match="draining"):
            remote.enumerate(REQUEST)

        # Read-only endpoints keep answering while the server drains.
        assert remote.health()["status"] == "ok"
        assert done.status().state == JobState.DONE

    def test_close_unparks_blocked_producers(self, graph):
        server = MiningServer(graph, port=0).start()
        remote = RemoteSession(server.url)
        parked = remote.submit(REQUEST, page_size=1)  # parks at the buffer
        deadline = time.monotonic() + DEADLINE
        while parked.status().records < PAGE_BUFFER:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        # close() drains: the parked producer is woken to fail, so this
        # returns instead of deadlocking on scheduler shutdown.
        server.close()
        assert parked.id in repr(parked)
        with pytest.raises(ServiceError):
            remote.health(timeout=2.0)  # the socket really is gone
