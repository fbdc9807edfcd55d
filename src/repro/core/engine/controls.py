"""Run controls for the iterative search kernel.

Production workloads rarely want "enumerate everything, however long it
takes": interactive callers want the first few cliques quickly, batch
pipelines want a wall-clock ceiling per graph, and services want both.
:class:`RunControls` expresses those limits declaratively and
:class:`RunReport` records how a run actually ended, so truncated output is
always distinguishable from complete output.
"""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass

from ...errors import ParameterError

__all__ = [
    "CancellationToken",
    "ProgressSnapshot",
    "RunControls",
    "RunReport",
    "StopReason",
]


class StopReason:
    """How an enumeration run ended (string constants, not an enum, so the
    values serialize naturally in CLI/JSON output)."""

    COMPLETED = "completed"
    MAX_CLIQUES = "max-cliques"
    TIME_BUDGET = "time-budget"
    CANCELLED = "cancelled"


class CancellationToken:
    """Cooperative cancellation signal for a streaming kernel run.

    A token is handed to the kernel alongside :class:`RunControls`; the
    kernel polls it on the same ``check_every_frames`` cadence as the time
    budget, so cancellation latency is bounded by the cost of one check
    window.  When a check observes a cancelled token the run stops with
    :attr:`StopReason.CANCELLED` and the counters flushed to that point —
    the emitted records remain a depth-first prefix of the full
    enumeration, exactly like a ``max_cliques`` truncation.

    ``cancel()`` may be called from any thread and is idempotent.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (thread-safe, idempotent)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._event.is_set()


@dataclass(frozen=True)
class ProgressSnapshot:
    """A point-in-time view of a running enumeration.

    Built by observers (job status polls, progress bars) from the live
    :class:`RunReport` the kernel mutates in place; the kernel only ever
    increments the counters, so successive snapshots of the same run are
    monotonically non-decreasing.
    """

    cliques_emitted: int = 0
    frames_expanded: int = 0
    elapsed_seconds: float = 0.0


def check_integer(name: str, value: object) -> None:
    """Refuse anything but an ``int`` (``bool`` too) for an integer parameter.

    A float would run on the python kernel but not reach the native one,
    so it is refused here, before either kernel, as the wire codec does.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value: object) -> None:
    """Refuse a ``bool`` or a value that is not a real number.

    ``float()`` would take ``True`` as 1.0 and ``"0.5"`` as 0.5; the wire
    codec refuses both, and so do the constructors.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class RunControls:
    """Declarative limits on a single enumeration run.

    Parameters
    ----------
    max_cliques:
        Stop after emitting this many cliques (``None`` = unlimited).  The
        emitted cliques are a prefix of the full enumeration in depth-first
        discovery order; they are all genuinely α-maximal.
    time_budget_seconds:
        Stop once this much wall-clock time has elapsed inside the kernel
        (``None`` = unlimited).  The budget is checked every
        ``check_every_frames`` descent steps, so the overrun is bounded by
        the cost of that many steps.
    check_every_frames:
        How many descent steps (successful *or* pruned) between time-budget
        checks.  Pruned descents count too, so a prune-dominated search
        still honours the budget.  The default keeps the ``perf_counter``
        overhead negligible.
    """

    max_cliques: int | None = None
    time_budget_seconds: float | None = None
    check_every_frames: int = 256

    def __post_init__(self) -> None:
        if self.max_cliques is not None:
            check_integer("max_cliques", self.max_cliques)
        if self.time_budget_seconds is not None:
            check_real("time_budget_seconds", self.time_budget_seconds)
        check_integer("check_every_frames", self.check_every_frames)
        if self.max_cliques is not None and self.max_cliques < 1:
            raise ParameterError(
                f"max_cliques must be positive, got {self.max_cliques}"
            )
        # ``not >= 0`` also rejects NaN, whose deadline would never expire.
        if self.time_budget_seconds is not None and not (self.time_budget_seconds >= 0):
            raise ParameterError(
                f"time_budget_seconds must be non-negative, got {self.time_budget_seconds}"
            )
        if self.check_every_frames < 1:
            raise ParameterError(
                f"check_every_frames must be positive, got {self.check_every_frames}"
            )

    @property
    def unlimited(self) -> bool:
        """True when neither limit is set (the kernel skips all checks)."""
        return self.max_cliques is None and self.time_budget_seconds is None


@dataclass
class RunReport:
    """What actually happened during a kernel run (filled in place).

    Attributes
    ----------
    stop_reason:
        One of the :class:`StopReason` constants.
    cliques_emitted:
        Number of cliques yielded before the run ended.
    frames_expanded:
        Number of search nodes the kernel visited.
    """

    stop_reason: str = StopReason.COMPLETED
    cliques_emitted: int = 0
    frames_expanded: int = 0

    @property
    def truncated(self) -> bool:
        """True when the run stopped before exhausting the search space."""
        return self.stop_reason != StopReason.COMPLETED
