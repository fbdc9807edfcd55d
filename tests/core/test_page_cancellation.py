"""Cancellation on the column-block page path.

``run_kernel_blocks`` reads the cancellation token before each clique is
kept: the python kernel's blocks are grouped in Python, reading
``CancellationToken.flag`` per clique, and the native walk reads the same
flag in C before it writes each clique.  So, on either kernel:

* a token cancelled before the run keeps nothing and ends ``cancelled``;
* a cancel after the k-th clique keeps exactly k, the walk writes no
  (k+1)-th (its own emission count stays k), and the counters stand where
  the python kernel's stand when it yields the (k+1)-th clique;
* a cancel between two steps keeps the whole first step.

The check cadence is set out of reach (``check_every_frames=2**40``), so
only the per-clique read can stop these runs.
"""

from __future__ import annotations

import pytest

from repro.api import EnumerationRequest, MiningSession
from repro.core.engine import (
    CancellationToken,
    MuleStrategy,
    RunControls,
    RunReport,
    StopReason,
    compile_graph,
    run_search,
)
from repro.core.engine.backends import native, run_kernel_blocks
from repro.core.result import SearchStatistics

KERNELS = ["python", "vector"]
UNREACHED = RunControls(check_every_frames=2**40)
ALPHA = 0.05


@pytest.fixture
def graph(random_graph_factory):
    """About 300 cliques at α = 0.05: more than one 256-clique block."""
    return random_graph_factory(40, density=0.4, seed=11)


@pytest.fixture
def compiled(graph):
    return compile_graph(graph, alpha=ALPHA)


def _full(compiled):
    """The python kernel's index tuples and probabilities for the whole run."""
    return list(run_search(compiled, ALPHA, MuleStrategy()))


def _at_yield(compiled, index):
    """The python kernel's counters as it yields clique ``index``."""
    statistics = SearchStatistics()
    report = RunReport()
    for seen, _ in enumerate(
        run_search(compiled, ALPHA, MuleStrategy(), statistics=statistics, report=report)
    ):
        if seen == index:
            return statistics, report.frames_expanded, report.cliques_emitted
    raise AssertionError(f"the run has no clique {index}")


def _pairs(blocks):
    """A run's blocks as ``(indices, probability)`` pairs."""
    pairs = []
    for indices, sizes, probabilities in blocks:
        start = 0
        for size, probability in zip(sizes, probabilities):
            pairs.append((tuple(indices[start : start + size]), probability))
            start += size
    return pairs


class TestToken:
    def test_cancel_sets_the_flag(self):
        token = CancellationToken()
        assert token.flag[0] == 0
        token.cancel()
        assert token.flag[0] == 1 and token.cancelled


class TestBlocks:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_pre_cancelled_token_keeps_nothing(self, compiled, kernel):
        token = CancellationToken()
        token.cancel()
        report = RunReport()
        blocks = run_kernel_blocks(
            compiled, ALPHA, MuleStrategy(), kernel=kernel,
            controls=UNREACHED, report=report, cancel=token,
        )
        assert list(blocks) == []
        assert report.stop_reason == StopReason.CANCELLED
        assert report.cliques_emitted == 0

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("kept", [1, 5, 257])
    def test_cancel_after_the_kth_clique_keeps_exactly_k(
        self, monkeypatch, compiled, kernel, kept
    ):
        monkeypatch.setattr(native, "_BATCH_CLIQUES", 1)
        full = _full(compiled)
        assert len(full) > kept + 1
        token = CancellationToken()
        statistics = SearchStatistics()
        report = RunReport()
        blocks = []
        for block in run_kernel_blocks(
            compiled, ALPHA, MuleStrategy(), kernel=kernel, statistics=statistics,
            controls=UNREACHED, report=report, cancel=token,
        ):
            assert len(block[1]) == 1
            blocks.append(block)
            if len(blocks) == kept:
                token.cancel()
        assert _pairs(blocks) == full[:kept]
        assert report.stop_reason == StopReason.CANCELLED
        # The walk counts each clique it writes: none after the cancel.
        assert report.cliques_emitted == kept
        expected, frames, emitted = _at_yield(compiled, kept)
        assert statistics == expected
        assert (report.frames_expanded, report.cliques_emitted) == (frames, emitted)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_cancel_between_steps_keeps_the_first_step(self, compiled, kernel):
        token = CancellationToken()
        report = RunReport()
        blocks = run_kernel_blocks(
            compiled, ALPHA, MuleStrategy(), kernel=kernel,
            controls=UNREACHED, report=report, cancel=token,
        )
        first = next(blocks)
        token.cancel()
        assert list(blocks) == []
        assert _pairs([first]) == _full(compiled)[: len(first[1])]
        assert report.stop_reason == StopReason.CANCELLED
        assert report.cliques_emitted == len(first[1])


class TestPages:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_pre_cancelled_token_keeps_no_page(self, graph, kernel):
        token = CancellationToken()
        token.cancel()
        statistics = SearchStatistics()
        report = RunReport()
        request = EnumerationRequest(alpha=ALPHA, kernel=kernel, controls=UNREACHED)
        session = MiningSession(graph)
        assert list(session._pages(request, statistics, report, token, 1)) == []
        assert report.stop_reason == StopReason.CANCELLED
        assert report.cliques_emitted == 0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_cancel_mid_page_keeps_the_cliques_before_it(
        self, monkeypatch, graph, kernel
    ):
        # Pages of 7 cut from one-clique blocks: a cancel after the 10th
        # clique lands inside the second page, which ends with 3 cliques.
        monkeypatch.setattr(native, "_BATCH_CLIQUES", 1)
        request = EnumerationRequest(alpha=ALPHA, kernel=kernel, controls=UNREACHED)
        session = MiningSession(graph)
        expected = session.enumerate(request).records[:10]
        token = CancellationToken()
        blocks = run_kernel_blocks

        def cancel_after_ten(*args, **kwargs):
            drawn = 0
            for block in blocks(*args, **kwargs):
                drawn += len(block[1])
                if drawn == 10:
                    token.cancel()
                yield block

        import repro.api.session as session_module

        monkeypatch.setattr(session_module, "run_kernel_blocks", cancel_after_ten)
        report = RunReport()
        pages = list(session._pages(request, SearchStatistics(), report, token, 7))
        assert [len(page) for page in pages] == [7, 3]
        records = [record for page in pages for record in page]
        assert records == expected
        assert report.stop_reason == StopReason.CANCELLED
        assert report.cliques_emitted == 10
