"""The vector kernel: the MULE family fused into loops over Python-int bitmasks.

:func:`run_vector_search` is a drop-in replacement for
:func:`repro.core.engine.kernel.run_search` for the MULE strategy family
(:class:`MuleStrategy`, :class:`TopKStrategy`,
:class:`LargeCliqueStrategy`).  Instead of dispatching through the
strategy protocol once per node, each driver fuses the kernel walk and
the strategy bookkeeping into a single loop over the compiled graph's
masks and two lazy caches it keeps for this kernel:

* **root plans** (:meth:`CompiledGraph.root_plan`) — every depth-1 frame
  (candidate lists, factors, masks, exclusion survivors) is precompiled
  per (graph, α) pair, so root descents charge their counters and jump
  straight into the subtree;
* **side-choosing candidate scans** — per node the driver picks the
  cheapest of three ``GenerateI`` realisations: a scan of the (sorted)
  higher-neighbor list (:meth:`CompiledGraph.higher_neighbors`), a scan
  of the remaining candidate tail, or extraction from the intersection of
  the Python-int candidate and adjacency masks, switching on which side
  is smaller (``_SCAN_CUTOFF``);
* **lazy exclusion sets** — ``GenerateX`` materialises the exclusion
  dictionary only for nodes that are descended into; childless nodes run
  an existence-only survivor probe (the O(1) maximality test needs just
  emptiness);
* **flat frames** — node state lives in locals, pushed as tuples only
  when a child actually has candidates.

Each driver yields one ``(indices, probability)`` pair per clique, as
:func:`~repro.core.engine.kernel.run_search` does: ``indices`` is the
clique's vertex indices as a tuple, in the order the walk added them,
which for these drivers is ascending.

Parity is the contract, not an aspiration: emitted cliques (their index
tuples included), probabilities, stop reasons and **every** statistics
counter are bit-identical to the python backend at every yield point — counter
deltas are flushed immediately before each emission, so streaming
observers cannot tell the backends apart either.  The two drivers
deliberately duplicate their scan code instead of sharing helpers: one
extra function call per node would cost more than the sharing saves
(see ``tests/property/test_property_kernel_parity.py`` for the suite
that enforces the contract).

:class:`NoIncrementalStrategy` is intentionally not implemented here:
DFS-NOIP is the paper's *baseline*, defined by its from-scratch
recomputation — accelerating it would change the experiment.  Requests
resolve it to the python backend (see
:func:`repro.core.engine.backends.resolve_kernel`).
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any
from time import perf_counter

from ....errors import ParameterError
from ...result import SearchStatistics
from ..compiled import CompiledGraph
from ..controls import CancellationToken, RunControls, RunReport, StopReason
from ..strategies import (
    EnumerationStrategy,
    LargeCliqueStrategy,
    MuleStrategy,
    TopKStrategy,
)

__all__ = ["run_vector_search"]

_UNLIMITED = RunControls()

#: Crossover between list scans and bitmask extraction in the candidate
#: generation step.  Below this many elements a plain scan of the shorter
#: side beats building the mask intersection; tuned on the Figure 1 grid.
_SCAN_CUTOFF = 24


def run_vector_search(
    compiled: CompiledGraph,
    alpha: float,
    strategy: EnumerationStrategy,
    *,
    statistics: SearchStatistics | None = None,
    controls: RunControls | None = None,
    report: RunReport | None = None,
    cancel: CancellationToken | None = None,
) -> Iterator[tuple[tuple[int, ...], float]]:
    """Run one enumeration on the vector backend; same contract as ``run_search``.

    Only the MULE strategy family is supported; pass anything else (or an
    instance of a subclass the drivers were not written for) and a
    :class:`~repro.errors.ParameterError` is raised eagerly, at call time.
    Dispatch is on the *exact* strategy type — a user subclass may
    override hooks the fused drivers never call, so this function refuses
    it and :func:`resolve_kernel`'s ``auto`` mode routes it to the python
    kernel instead of silently mis-driving it.
    """
    statistics = statistics if statistics is not None else SearchStatistics()
    report = report if report is not None else RunReport()
    controls = controls if controls is not None else _UNLIMITED
    strategy.bind(compiled, alpha, statistics)
    kind = type(strategy)
    if kind is MuleStrategy:
        return _drive_mule(compiled, alpha, 0, statistics, controls, report, cancel)
    if kind is TopKStrategy:
        return _drive_mule(
            compiled, alpha, strategy.min_size, statistics, controls, report, cancel
        )
    if kind is LargeCliqueStrategy:
        return _drive_large(
            compiled,
            alpha,
            strategy.size_threshold,
            statistics,
            controls,
            report,
            cancel,
        )
    raise ParameterError(
        f"the vector kernel does not support strategy "
        f"{type(strategy).__name__!r}; supported: MuleStrategy, "
        f"TopKStrategy, LargeCliqueStrategy (use kernel='python')"
    )


def _drive_mule(
    compiled: CompiledGraph,
    alpha: float,
    emit_min: int,
    statistics: SearchStatistics,
    controls: RunControls,
    report: RunReport,
    cancel: CancellationToken | None = None,
) -> Iterator[tuple[tuple[int, ...], float]]:
    """The fused MULE walk; ``emit_min`` is the TopK size floor (0 = MULE)."""
    report.stop_reason = StopReason.COMPLETED
    report.cliques_emitted = 0
    report.frames_expanded = 0
    n = compiled.n
    if n == 0:
        return

    plan = compiled.root_plan(alpha)
    plan_cand = plan.cand
    plan_factors = plan.factors
    plan_cand_dict = plan.cand_dict
    plan_cand_mask = plan.cand_mask
    plan_x_factor = plan.x_factor
    plan_x_mask = plan.x_mask
    adj_hi = compiled.higher_neighbors()

    adj_prob = compiled.adjacency_probability
    adj_mask = compiled.adjacency_mask
    higher = compiled.higher_masks
    root_mask = compiled.root_mask
    root_restricted = root_mask != compiled.all_mask
    max_cliques = controls.max_cliques
    deadline = (
        perf_counter() + controls.time_budget_seconds
        if controls.time_budget_seconds is not None
        else None
    )
    check_every = controls.check_every_frames
    check_limits = deadline is not None or cancel is not None

    # Counter deltas live in locals and are flushed immediately before
    # every yield (and on any exit), so callers observing ``statistics``
    # or ``report`` mid-stream see exactly the totals the python backend
    # exposes at the same point.  rc/frames start at 1: the root expand.
    rc = 1
    ce = 0
    pm = 0
    mx = 0
    frames_expanded = 1
    cliques_emitted = 0
    frames_since_check = 0

    def flush() -> None:
        statistics.recursive_calls += rc
        statistics.candidates_examined += ce
        statistics.probability_multiplications += pm
        statistics.maximality_checks += mx
        report.frames_expanded = frames_expanded
        report.cliques_emitted = cliques_emitted

    try:
        clique: list[int] = []
        cappend = clique.append
        cpop = clique.pop
        stack: list[tuple[Any, ...]] = []
        push = stack.append
        pop = stack.pop

        for root in range(n):
            # Shard-skipped roots charge no counters (the python kernel
            # never calls the strategy for them) but do advance the
            # time-budget window; their retirement is already encoded in
            # the plan's exclusion sets.
            if root_restricted and not (root_mask >> root) & 1:
                if check_limits:
                    frames_since_check += 1
                    if frames_since_check >= check_every:
                        frames_since_check = 0
                        if cancel is not None and cancel.cancelled:
                            report.stop_reason = StopReason.CANCELLED
                            return
                        if deadline is not None and perf_counter() >= deadline:
                            report.stop_reason = StopReason.TIME_BUDGET
                            return
                continue

            # Root descend.  The root candidate mask is all_mask (retire
            # never clears candidate bits) and exactly ``root`` vertices
            # are retired so far, so the Lemma 10 charge is 1 + n + root
            # without touching a mask.
            ce += 1
            pm += 1 + n + root
            if check_limits:
                frames_since_check += 1
                if frames_since_check >= check_every:
                    frames_since_check = 0
                    if cancel is not None and cancel.cancelled:
                        report.stop_reason = StopReason.CANCELLED
                        return
                    if deadline is not None and perf_counter() >= deadline:
                        report.stop_reason = StopReason.TIME_BUDGET
                        return

            candidates = plan_cand[root]
            ncand = len(candidates)
            excl_mask = plan_x_mask[root]
            rc += 1
            frames_expanded += 1
            if not ncand:
                # Childless root branch: α-maximal iff the exclusion side
                # is empty too; a singleton always has probability 1.
                if not excl_mask:
                    mx += 1
                    if emit_min <= 1:
                        flush()
                        rc = ce = pm = mx = 0
                        yield (root,), 1.0
                        cliques_emitted += 1
                        if (
                            max_cliques is not None
                            and cliques_emitted >= max_cliques
                        ):
                            report.stop_reason = StopReason.MAX_CLIQUES
                            return
                continue

            cappend(root)
            q0 = 1.0
            factors = plan_factors[root]
            cand_dict = plan_cand_dict[root]
            cand_mask = plan_cand_mask[root]
            # The exclusion dictionary is mutated by retirements below;
            # the plan's copy must stay pristine for the next run.
            excl_factor = plan_x_factor[root].copy()
            index = 0

            while True:
                if index < ncand:
                    u = candidates[index]
                    ce += 1
                    q = q0 * factors[index]
                    pm += 1 + ncand + len(excl_factor)

                    # GenerateI, three ways: scan the higher-neighbor
                    # list, scan the candidate tail, or extract from the
                    # bitmask intersection — whichever side is smaller.
                    child_candidates: list[int] = []
                    new_factors: list[float] = []
                    tail = ncand - index - 1
                    hi = adj_hi[u]
                    nhi = len(hi)
                    if tail and nhi:
                        if nhi <= tail and nhi <= _SCAN_CUTOFF:
                            if cand_dict is None:
                                cand_dict = dict(zip(candidates, factors))
                                if not stack:
                                    # Depth-1 frames are the plan's: keep
                                    # the lookup table for future runs.
                                    plan_cand_dict[root] = cand_dict
                            get = cand_dict.get
                            cc_append = child_candidates.append
                            nf_append = new_factors.append
                            for w, p in hi:
                                f = get(w)
                                if f is not None:
                                    factor = f * p
                                    if q * factor >= alpha:
                                        cc_append(w)
                                        nf_append(factor)
                        elif tail <= _SCAN_CUTOFF:
                            get = adj_prob[u].get
                            cc_append = child_candidates.append
                            nf_append = new_factors.append
                            for j in range(index + 1, ncand):
                                w = candidates[j]
                                p = get(w)
                                if p is not None:
                                    factor = factors[j] * p
                                    if q * factor >= alpha:
                                        cc_append(w)
                                        nf_append(factor)
                        else:
                            if cand_dict is None:
                                cand_dict = dict(zip(candidates, factors))
                                if not stack:
                                    plan_cand_dict[root] = cand_dict
                            aprob = adj_prob[u]
                            cc_append = child_candidates.append
                            nf_append = new_factors.append
                            if cand_mask is None:
                                # Candidate masks are built lazily: most
                                # frames never reach this path, so paying
                                # one |= per survivor at every push would
                                # mostly be wasted (the mask equals the
                                # candidate list either way).
                                cand_mask = 0
                                for w in candidates:
                                    cand_mask |= 1 << w
                            m = cand_mask & adj_mask[u] & higher[u]
                            while m:
                                low = m & -m
                                m ^= low
                                w = low.bit_length() - 1
                                factor = cand_dict[w] * aprob[w]
                                if q * factor >= alpha:
                                    cc_append(w)
                                    nf_append(factor)
                    if check_limits:
                        frames_since_check += 1
                        if frames_since_check >= check_every:
                            frames_since_check = 0
                            if cancel is not None and cancel.cancelled:
                                report.stop_reason = StopReason.CANCELLED
                                return
                            if deadline is not None and perf_counter() >= deadline:
                                report.stop_reason = StopReason.TIME_BUDGET
                                return
                    xmask = excl_mask & adj_mask[u]
                    if child_candidates:
                        # GenerateX in full: the child is descended into,
                        # so its exclusion survivors are really needed.
                        new_excl_factor: dict[int, float] = {}
                        new_excl_mask = 0
                        if xmask:
                            aprob = adj_prob[u]
                            m = xmask
                            while m:
                                low = m & -m
                                m ^= low
                                w = low.bit_length() - 1
                                factor = excl_factor[w] * aprob[w]
                                if q * factor >= alpha:
                                    new_excl_factor[w] = factor
                                    new_excl_mask |= low
                        rc += 1
                        frames_expanded += 1
                        cappend(u)
                        push(
                            (
                                q0,
                                candidates,
                                factors,
                                cand_dict,
                                cand_mask,
                                excl_factor,
                                excl_mask,
                                ncand,
                                index,
                            )
                        )
                        q0 = q
                        candidates = child_candidates
                        factors = new_factors
                        cand_dict = None
                        cand_mask = None
                        excl_factor = new_excl_factor
                        excl_mask = new_excl_mask
                        ncand = len(child_candidates)
                        index = 0
                        continue
                    # Childless node: maximality only needs X-emptiness,
                    # so probe for one surviving exclusion and stop.
                    rc += 1
                    frames_expanded += 1
                    x_alive = False
                    if xmask:
                        aprob = adj_prob[u]
                        m = xmask
                        while m:
                            low = m & -m
                            m ^= low
                            w = low.bit_length() - 1
                            if q * (excl_factor[w] * aprob[w]) >= alpha:
                                x_alive = True
                                break
                    if not x_alive:
                        mx += 1
                        if len(clique) + 1 >= emit_min:
                            flush()
                            rc = ce = pm = mx = 0
                            yield (*clique, u), q
                            cliques_emitted += 1
                            if (
                                max_cliques is not None
                                and cliques_emitted >= max_cliques
                            ):
                                report.stop_reason = StopReason.MAX_CLIQUES
                                return
                    excl_factor[u] = factors[index]
                    excl_mask |= 1 << u
                    index += 1
                    continue
                if not stack:
                    cpop()
                    break
                (
                    q0,
                    candidates,
                    factors,
                    cand_dict,
                    cand_mask,
                    excl_factor,
                    excl_mask,
                    ncand,
                    index,
                ) = pop()
                u = candidates[index]
                excl_factor[u] = factors[index]
                excl_mask |= 1 << u
                index += 1
                cpop()
    finally:
        flush()


def _drive_large(
    compiled: CompiledGraph,
    alpha: float,
    size_threshold: int,
    statistics: SearchStatistics,
    controls: RunControls,
    report: RunReport,
    cancel: CancellationToken | None = None,
) -> Iterator[tuple[tuple[int, ...], float]]:
    """The fused LARGE-MULE walk (Algorithms 5–6 size bound and pruning)."""
    report.stop_reason = StopReason.COMPLETED
    report.cliques_emitted = 0
    report.frames_expanded = 0
    n = compiled.n
    if n == 0:
        return

    plan = compiled.root_plan(alpha)
    plan_cand = plan.cand
    plan_factors = plan.factors
    plan_cand_dict = plan.cand_dict
    plan_cand_mask = plan.cand_mask
    plan_x_factor = plan.x_factor
    plan_x_mask = plan.x_mask
    adj_hi = compiled.higher_neighbors()

    adj_prob = compiled.adjacency_probability
    adj_mask = compiled.adjacency_mask
    higher = compiled.higher_masks
    root_mask = compiled.root_mask
    root_restricted = root_mask != compiled.all_mask
    max_cliques = controls.max_cliques
    deadline = (
        perf_counter() + controls.time_budget_seconds
        if controls.time_budget_seconds is not None
        else None
    )
    check_every = controls.check_every_frames
    check_limits = deadline is not None or cancel is not None

    rc = 1
    ce = 0
    pm = 0
    mx = 0
    pb = 0
    frames_expanded = 1
    cliques_emitted = 0
    frames_since_check = 0

    def flush() -> None:
        statistics.recursive_calls += rc
        statistics.candidates_examined += ce
        statistics.probability_multiplications += pm
        statistics.maximality_checks += mx
        statistics.pruned_branches += pb
        report.frames_expanded = frames_expanded
        report.cliques_emitted = cliques_emitted

    try:
        clique: list[int] = []
        cappend = clique.append
        cpop = clique.pop
        stack: list[tuple[Any, ...]] = []
        push = stack.append
        pop = stack.pop

        for root in range(n):
            if root_restricted and not (root_mask >> root) & 1:
                if check_limits:
                    frames_since_check += 1
                    if frames_since_check >= check_every:
                        frames_since_check = 0
                        if cancel is not None and cancel.cancelled:
                            report.stop_reason = StopReason.CANCELLED
                            return
                        if deadline is not None and perf_counter() >= deadline:
                            report.stop_reason = StopReason.TIME_BUDGET
                            return
                continue

            # Root descend.  LARGE-MULE charges the X-side units only when
            # the branch survives the size bound (the pruned path never
            # reaches GenerateX).
            ce += 1
            pm += 1 + n
            candidates = plan_cand[root]
            ncand = len(candidates)
            if 1 + ncand < size_threshold:
                # Algorithm 6, line 8 at the root: even taking every
                # surviving candidate cannot reach size_threshold.
                pb += 1
                if check_limits:
                    frames_since_check += 1
                    if frames_since_check >= check_every:
                        frames_since_check = 0
                        if cancel is not None and cancel.cancelled:
                            report.stop_reason = StopReason.CANCELLED
                            return
                        if deadline is not None and perf_counter() >= deadline:
                            report.stop_reason = StopReason.TIME_BUDGET
                            return
                continue
            pm += root
            if check_limits:
                frames_since_check += 1
                if frames_since_check >= check_every:
                    frames_since_check = 0
                    if cancel is not None and cancel.cancelled:
                        report.stop_reason = StopReason.CANCELLED
                        return
                    if deadline is not None and perf_counter() >= deadline:
                        report.stop_reason = StopReason.TIME_BUDGET
                        return

            # size_threshold >= 2, so a surviving root branch always has
            # at least one candidate: go straight into the subtree.
            rc += 1
            frames_expanded += 1
            cappend(root)
            q0 = 1.0
            factors = plan_factors[root]
            cand_dict = plan_cand_dict[root]
            cand_mask = plan_cand_mask[root]
            excl_factor = plan_x_factor[root].copy()
            excl_mask = plan_x_mask[root]
            index = 0

            while True:
                if index < ncand:
                    u = candidates[index]
                    ce += 1
                    q = q0 * factors[index]
                    pm += 1 + ncand

                    child_candidates: list[int] = []
                    new_factors: list[float] = []
                    tail = ncand - index - 1
                    hi = adj_hi[u]
                    nhi = len(hi)
                    if tail and nhi:
                        if nhi <= tail and nhi <= _SCAN_CUTOFF:
                            if cand_dict is None:
                                cand_dict = dict(zip(candidates, factors))
                                if not stack:
                                    plan_cand_dict[root] = cand_dict
                            get = cand_dict.get
                            cc_append = child_candidates.append
                            nf_append = new_factors.append
                            for w, p in hi:
                                f = get(w)
                                if f is not None:
                                    factor = f * p
                                    if q * factor >= alpha:
                                        cc_append(w)
                                        nf_append(factor)
                        elif tail <= _SCAN_CUTOFF:
                            get = adj_prob[u].get
                            cc_append = child_candidates.append
                            nf_append = new_factors.append
                            for j in range(index + 1, ncand):
                                w = candidates[j]
                                p = get(w)
                                if p is not None:
                                    factor = factors[j] * p
                                    if q * factor >= alpha:
                                        cc_append(w)
                                        nf_append(factor)
                        else:
                            if cand_dict is None:
                                cand_dict = dict(zip(candidates, factors))
                                if not stack:
                                    plan_cand_dict[root] = cand_dict
                            aprob = adj_prob[u]
                            cc_append = child_candidates.append
                            nf_append = new_factors.append
                            if cand_mask is None:
                                # Candidate masks are built lazily: most
                                # frames never reach this path, so paying
                                # one |= per survivor at every push would
                                # mostly be wasted (the mask equals the
                                # candidate list either way).
                                cand_mask = 0
                                for w in candidates:
                                    cand_mask |= 1 << w
                            m = cand_mask & adj_mask[u] & higher[u]
                            while m:
                                low = m & -m
                                m ^= low
                                w = low.bit_length() - 1
                                factor = cand_dict[w] * aprob[w]
                                if q * factor >= alpha:
                                    cc_append(w)
                                    nf_append(factor)

                    if len(clique) + 1 + len(child_candidates) < size_threshold:
                        # Algorithm 6, line 8: the branch is cut before
                        # the exclusion side is charged or built.
                        pb += 1
                        if check_limits:
                            frames_since_check += 1
                            if frames_since_check >= check_every:
                                frames_since_check = 0
                                if cancel is not None and cancel.cancelled:
                                    report.stop_reason = StopReason.CANCELLED
                                    return
                                if deadline is not None and perf_counter() >= deadline:
                                    report.stop_reason = StopReason.TIME_BUDGET
                                    return
                        excl_factor[u] = factors[index]
                        excl_mask |= 1 << u
                        index += 1
                        continue
                    pm += len(excl_factor)
                    if check_limits:
                        frames_since_check += 1
                        if frames_since_check >= check_every:
                            frames_since_check = 0
                            if cancel is not None and cancel.cancelled:
                                report.stop_reason = StopReason.CANCELLED
                                return
                            if deadline is not None and perf_counter() >= deadline:
                                report.stop_reason = StopReason.TIME_BUDGET
                                return
                    xmask = excl_mask & adj_mask[u]
                    if child_candidates:
                        new_excl_factor: dict[int, float] = {}
                        new_excl_mask = 0
                        if xmask:
                            aprob = adj_prob[u]
                            m = xmask
                            while m:
                                low = m & -m
                                m ^= low
                                w = low.bit_length() - 1
                                factor = excl_factor[w] * aprob[w]
                                if q * factor >= alpha:
                                    new_excl_factor[w] = factor
                                    new_excl_mask |= low
                        rc += 1
                        frames_expanded += 1
                        cappend(u)
                        push(
                            (
                                q0,
                                candidates,
                                factors,
                                cand_dict,
                                cand_mask,
                                excl_factor,
                                excl_mask,
                                ncand,
                                index,
                            )
                        )
                        q0 = q
                        candidates = child_candidates
                        factors = new_factors
                        cand_dict = None
                        cand_mask = None
                        excl_factor = new_excl_factor
                        excl_mask = new_excl_mask
                        ncand = len(child_candidates)
                        index = 0
                        continue
                    rc += 1
                    frames_expanded += 1
                    x_alive = False
                    if xmask:
                        aprob = adj_prob[u]
                        m = xmask
                        while m:
                            low = m & -m
                            m ^= low
                            w = low.bit_length() - 1
                            if q * (excl_factor[w] * aprob[w]) >= alpha:
                                x_alive = True
                                break
                    if not x_alive:
                        mx += 1
                        if len(clique) + 1 >= size_threshold:
                            flush()
                            rc = ce = pm = mx = pb = 0
                            yield (*clique, u), q
                            cliques_emitted += 1
                            if (
                                max_cliques is not None
                                and cliques_emitted >= max_cliques
                            ):
                                report.stop_reason = StopReason.MAX_CLIQUES
                                return
                    excl_factor[u] = factors[index]
                    excl_mask |= 1 << u
                    index += 1
                    continue
                if not stack:
                    cpop()
                    break
                (
                    q0,
                    candidates,
                    factors,
                    cand_dict,
                    cand_mask,
                    excl_factor,
                    excl_mask,
                    ncand,
                    index,
                ) = pop()
                u = candidates[index]
                excl_factor[u] = factors[index]
                excl_mask |= 1 << u
                index += 1
                cpop()
    finally:
        flush()
