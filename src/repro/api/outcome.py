"""The uniform result model of the session API.

Every session entry point — serial, sharded parallel, top-k, sweeps —
returns :class:`EnumerationOutcome`, so callers never branch on
list-vs-:class:`~repro.core.top_k.TopKResult` shapes: the records, the
search counters, the :class:`~repro.core.engine.controls.RunReport` and the
stop/truncation provenance are always in the same place.  Legacy callers
convert with :meth:`EnumerationOutcome.to_result`, which rebuilds exactly
the :class:`~repro.core.result.EnumerationResult` the free functions have
always returned.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..core.engine.controls import RunReport, StopReason
from ..core.result import (
    CliqueColumns,
    CliqueRecord,
    EnumerationResult,
    SearchStatistics,
)
from .request import EnumerationRequest

__all__ = ["EnumerationOutcome"]


class EnumerationOutcome:
    """What one enumeration produced, uniformly across all algorithms.

    Attributes
    ----------
    algorithm:
        Label of the engine path that ran (``"mule"``, ``"fast-mule"``,
        ``"dfs-noip"``, ``"large-mule"``, ``"top-k"``, ``"parallel-mule"``).
    alpha:
        The effective threshold: the requested α, or — for a top-k
        threshold search — the final α the descent stopped at.
    records:
        The emitted cliques as :class:`CliqueRecord` objects.  Serial runs
        list them in depth-first discovery order (so a truncated run's
        records are a DFS prefix); parallel runs in shard-merge order;
        top-k runs list the ranked top-``k`` (most probable first).  The
        constructor takes a list or a
        :class:`~repro.core.result.CliqueColumns` block (serial and
        parallel runs pass one); from a block the list is built on first
        read and kept.  ``records`` stays
        assignable, and every later reader and encoder sees the assigned
        list.
    statistics:
        Search-effort counters (summed across shards on the parallel path;
        the final pass's counters for a threshold search).
    report:
        The kernel's :class:`~repro.core.engine.controls.RunReport` — stop
        reason and progress counters.
    elapsed_seconds:
        Wall-clock time of the whole dispatch, compile/cache lookup
        included (mirroring the legacy free functions).
    request:
        The request that produced this outcome (``None`` for outcomes
        synthesised outside the dispatch).

    >>> outcome = EnumerationOutcome(algorithm="mule", alpha=0.5)
    >>> outcome.truncated, outcome.num_cliques
    (False, 0)
    """

    def __init__(
        self,
        algorithm: str,
        alpha: float,
        records: "list[CliqueRecord] | CliqueColumns | None" = None,
        statistics: SearchStatistics | None = None,
        report: RunReport | None = None,
        elapsed_seconds: float = 0.0,
        request: EnumerationRequest | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.alpha = alpha
        self.records = [] if records is None else records
        self.statistics = statistics if statistics is not None else SearchStatistics()
        self.report = report if report is not None else RunReport()
        self.elapsed_seconds = elapsed_seconds
        self.request = request

    @property
    def records(self) -> list[CliqueRecord]:
        """The emitted cliques as records, built from the block on first read."""
        if self._records is None:
            self._records = self._columns.records()
        return self._records

    @records.setter
    def records(self, value: "list[CliqueRecord] | CliqueColumns") -> None:
        if isinstance(value, CliqueColumns):
            self._records, self._columns = None, value
        else:
            self._records, self._columns = value, None

    @property
    def clique_columns(self) -> CliqueColumns:
        """The cliques as one column block, for encoders that pack columns.

        The block the outcome was built from while ``records`` has not been
        read; after that the list is the truth (a reader may have changed
        it), and the block is rebuilt from it on every call.
        """
        if self._records is None:
            return self._columns
        return CliqueColumns.from_records(self._records)

    @property
    def stop_reason(self) -> str:
        """How the run ended (a :class:`~repro.core.engine.controls.StopReason`)."""
        return self.report.stop_reason

    @property
    def truncated(self) -> bool:
        """True when run controls stopped the enumeration before completion."""
        return self.stop_reason != StopReason.COMPLETED

    @property
    def num_cliques(self) -> int:
        """Number of records (the paper's "output size")."""
        return len(self)

    def __len__(self) -> int:
        if self._records is None:
            return len(self._columns)
        return len(self._records)

    def __iter__(self) -> Iterator[CliqueRecord]:
        return iter(self.records)

    def vertex_sets(self) -> set[frozenset]:
        """Return the emitted cliques as a set of frozensets."""
        return {record.vertices for record in self.records}

    def records_by_vertices(self) -> dict[frozenset, float]:
        """Return a mapping clique → exact probability (order-insensitive)."""
        return {record.vertices: record.probability for record in self.records}

    def matches(self, other, *, compare_statistics: bool = True) -> bool:
        """True when ``other`` describes the same enumeration output.

        This is the one parity comparison used across the test suites (and
        the remote/local acceptance checks): cliques with their exact
        probabilities, the effective α, the stop reason and — unless
        ``compare_statistics=False`` — the search-effort counters.  The
        algorithm *label* and wall-clock time are deliberately excluded, so
        serial/parallel and local/remote runs of the same search compare
        equal.  ``other`` may be an :class:`EnumerationOutcome` or a legacy
        :class:`~repro.core.result.EnumerationResult`.
        """
        try:
            self.assert_matches(other, compare_statistics=compare_statistics)
        except AssertionError:
            return False
        return True

    def assert_matches(self, other, *, compare_statistics: bool = True) -> None:
        """Like :meth:`matches`, but raise ``AssertionError`` with the diff.

        Intended for tests: a failure names the first disagreeing component
        (cliques, α, stop reason or counters) instead of dumping two whole
        outcomes.
        """
        mine = self.records_by_vertices()
        theirs = {record.vertices: record.probability for record in other}
        if mine != theirs:
            missing = sorted(map(sorted, set(theirs) - set(mine)))
            extra = sorted(map(sorted, set(mine) - set(theirs)))
            drifted = {
                tuple(sorted(v)): (mine[v], theirs[v])
                for v in set(mine) & set(theirs)
                if mine[v] != theirs[v]
            }
            raise AssertionError(
                f"clique sets differ: missing={missing} extra={extra} "
                f"probability-drift={drifted}"
            )
        # Explicit raises, not ``assert`` statements: this is library code
        # (examples and benchmarks gate on it too) and must keep checking
        # under ``python -O``.
        if self.alpha != other.alpha:
            raise AssertionError(f"alpha differs: {self.alpha} != {other.alpha}")
        if self.stop_reason != other.stop_reason:
            raise AssertionError(
                f"stop_reason differs: {self.stop_reason!r} != {other.stop_reason!r}"
            )
        if compare_statistics and self.statistics != other.statistics:
            raise AssertionError(
                f"search counters differ: {self.statistics} != {other.statistics}"
            )

    def _fields(self) -> tuple:
        return (
            self.algorithm,
            self.alpha,
            self.records,
            self.statistics,
            self.report,
            self.elapsed_seconds,
            self.request,
        )

    # Field by field, records included (so comparing builds them); an
    # outcome is unhashable, as the dataclass it was.
    def __eq__(self, other: object) -> bool:
        if isinstance(other, EnumerationOutcome) and other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"EnumerationOutcome(algorithm={self.algorithm!r}, alpha={self.alpha}, "
            f"num_cliques={len(self)}, stop_reason={self.stop_reason!r})"
        )

    def to_result(self) -> EnumerationResult:
        """Convert to the legacy :class:`~repro.core.result.EnumerationResult`.

        The conversion is lossless for everything the legacy type carries:
        records (re-sorted by its usual (size, members) order), statistics,
        elapsed time and stop reason.
        """
        return EnumerationResult(
            algorithm=self.algorithm,
            alpha=self.alpha,
            cliques=self.records,
            statistics=self.statistics,
            elapsed_seconds=self.elapsed_seconds,
            stop_reason=self.stop_reason,
        )
