"""Cross-backend kernel parity on random graphs (hypothesis).

The vector backend must be observationally indistinguishable from the
python kernel: same emission stream (order included), bit-identical
probabilities, equal :class:`SearchStatistics` and equal
:class:`RunReport` — for every supported algorithm, under run controls,
and under sharding.  The fixed-graph versions of these checks live in
``tests/core/test_backends.py``; here hypothesis supplies the graphs.

All five algorithms are covered: MULE, FAST-MULE and top-k drive the
vector kernel directly (``fast`` shares ``MuleStrategy``), LARGE-MULE
drives ``_drive_large``, and DFS-NOIP pins the *resolution* contract —
``auto`` must route it to the python kernel rather than accelerating the
from-scratch baseline.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import EnumerationRequest, MiningSession
from repro.core.engine import (
    LargeCliqueStrategy,
    MuleStrategy,
    NoIncrementalStrategy,
    RunControls,
    RunReport,
    TopKStrategy,
    compile_graph,
    resolve_kernel,
    run_search,
    run_vector_search,
)
from repro.core.result import SearchStatistics

from .strategies import alphas, uncertain_graphs

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _both(compiled, alpha, strategy_factory, controls=None):
    out = []
    for runner in (run_search, run_vector_search):
        stats = SearchStatistics()
        report = RunReport()
        pairs = list(
            runner(
                compiled,
                alpha,
                strategy_factory(),
                statistics=stats,
                controls=controls,
                report=report,
            )
        )
        out.append((pairs, stats, report))
    return out


def _assert_identical(compiled, alpha, strategy_factory, controls=None):
    py, vec = _both(compiled, alpha, strategy_factory, controls)
    assert vec[0] == py[0]
    assert vec[1] == py[1]
    assert vec[2].stop_reason == py[2].stop_reason
    assert vec[2].cliques_emitted == py[2].cliques_emitted
    assert vec[2].frames_expanded == py[2].frames_expanded


class TestKernelParity:
    @RELAXED
    @given(graph=uncertain_graphs(), alpha=alphas)
    def test_mule(self, graph, alpha):
        _assert_identical(compile_graph(graph, alpha=alpha), alpha, MuleStrategy)

    @RELAXED
    @given(graph=uncertain_graphs(), alpha=alphas)
    def test_mule_unpruned_compile(self, graph, alpha):
        # prune_edges=False: sub-α edges reach the kernels, exercising the
        # root-plan filter instead of the Observation 3 compile filter.
        _assert_identical(compile_graph(graph, alpha=None), alpha, MuleStrategy)

    @RELAXED
    @given(
        graph=uncertain_graphs(),
        alpha=alphas,
        threshold=st.integers(min_value=2, max_value=5),
    )
    def test_large(self, graph, alpha, threshold):
        _assert_identical(
            compile_graph(graph, alpha=alpha),
            alpha,
            lambda: LargeCliqueStrategy(threshold),
        )

    @RELAXED
    @given(
        graph=uncertain_graphs(),
        alpha=alphas,
        min_size=st.integers(min_value=1, max_value=4),
    )
    def test_top_k(self, graph, alpha, min_size):
        _assert_identical(
            compile_graph(graph, alpha=alpha),
            alpha,
            lambda: TopKStrategy(min_size=min_size),
        )

    @RELAXED
    @given(
        graph=uncertain_graphs(),
        alpha=alphas,
        max_cliques=st.integers(min_value=1, max_value=6),
    )
    def test_max_cliques_truncation(self, graph, alpha, max_cliques):
        _assert_identical(
            compile_graph(graph, alpha=alpha),
            alpha,
            MuleStrategy,
            controls=RunControls(max_cliques=max_cliques),
        )

    @RELAXED
    @given(
        graph=uncertain_graphs(),
        alpha=alphas,
        check_every=st.integers(min_value=1, max_value=17),
    )
    def test_expired_time_budget(self, graph, alpha, check_every):
        # budget=0 expires deterministically: both kernels must stop at the
        # same frame for any deadline-check cadence.
        _assert_identical(
            compile_graph(graph, alpha=alpha),
            alpha,
            MuleStrategy,
            controls=RunControls(
                time_budget_seconds=0.0, check_every_frames=check_every
            ),
        )

    @RELAXED
    @given(graph=uncertain_graphs(), alpha=alphas, mask_seed=st.integers())
    def test_sharded_roots(self, graph, alpha, mask_seed):
        compiled = compile_graph(graph, alpha=alpha)
        if compiled.n == 0:
            return
        mask = mask_seed & compiled.all_mask
        shard = compiled.restrict_roots(mask)
        _assert_identical(shard, alpha, MuleStrategy)


class TestSessionParity:
    """The request-level surface: both kernels, serial and sharded."""

    @RELAXED
    @given(graph=uncertain_graphs(min_vertices=1), alpha=alphas)
    def test_request_kernels_agree(self, graph, alpha):
        outcomes = {}
        for kernel in ("python", "vector"):
            for execution, workers in (("serial", 1), ("parallel", 2)):
                request = EnumerationRequest(
                    algorithm="mule",
                    alpha=alpha,
                    execution=execution,
                    workers=workers,
                    backend="inline",
                    kernel=kernel,
                )
                outcome = MiningSession(graph).enumerate(request)
                outcomes[(kernel, execution)] = sorted(
                    (tuple(sorted(r.vertices)), r.probability)
                    for r in outcome.records
                )
        reference = outcomes[("python", "serial")]
        assert all(value == reference for value in outcomes.values())

    def test_noip_resolution_contract(self):
        assert resolve_kernel("auto", NoIncrementalStrategy()) == "python"
        with pytest.raises(Exception):
            EnumerationRequest(algorithm="noip", alpha=0.5, kernel="vector")
