"""The typed request model of the session API.

:class:`EnumerationRequest` is the single vocabulary every entry point of
:class:`~repro.api.session.MiningSession` speaks: it selects the algorithm
(``mule`` / ``fast`` / ``noip`` / ``large`` / ``top_k``), the threshold α
(or ``k`` for top-k), the preprocessing knobs the legacy config objects
used to carry, the run controls, and the execution mode (serial or sharded
parallel).  Validation happens eagerly at construction, so a malformed
request fails before any graph work starts — with the same exception types
(:class:`~repro.errors.ParameterError`,
:class:`~repro.errors.ProbabilityError`) the legacy free functions raise.

>>> EnumerationRequest(algorithm="mule", alpha=0.5).algorithm
'mule'
>>> EnumerationRequest(algorithm="dfs-noip", alpha=0.5).algorithm  # aliases
'noip'
>>> EnumerationRequest(algorithm="top_k", k=3).k
3
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.engine import KERNELS
from ..core.engine.controls import RunControls
from ..errors import ParameterError
from ..uncertain.graph import validate_probability

__all__ = ["EnumerationRequest", "ALGORITHMS"]

#: Canonical algorithm names accepted by the session dispatch.
ALGORITHMS = ("mule", "fast", "noip", "large", "top_k")

#: Accepted spellings → canonical name (the CLI and the legacy result
#: labels use dashed forms).
_ALIASES = {
    "mule": "mule",
    "fast": "fast",
    "fast-mule": "fast",
    "fast_mule": "fast",
    "noip": "noip",
    "dfs-noip": "noip",
    "dfs_noip": "noip",
    "large": "large",
    "large-mule": "large",
    "large_mule": "large",
    "top_k": "top_k",
    "top-k": "top_k",
    "topk": "top_k",
}

#: Canonical name → label recorded on results (matches the legacy labels).
ALGORITHM_LABELS = {
    "mule": "mule",
    "fast": "fast-mule",
    "noip": "dfs-noip",
    "large": "large-mule",
    "top_k": "top-k",
}

_EXECUTIONS = ("auto", "serial", "parallel")
_BACKENDS = ("auto", "process", "inline")


@dataclass(frozen=True)
class EnumerationRequest:
    """One enumeration job, fully described.

    Parameters
    ----------
    algorithm:
        ``"mule"``, ``"fast"``, ``"noip"``, ``"large"`` or ``"top_k"``
        (dashed aliases like ``"dfs-noip"`` are normalised).
    alpha:
        The probability threshold in ``(0, 1]``.  Required for every
        algorithm except ``top_k``, where omitting it selects the
        threshold-descent search.
    k:
        Number of cliques to rank (``top_k`` only).
    size_threshold:
        Minimum clique size ``t ≥ 2`` (``large`` only).
    min_size:
        Minimum clique size considered by ``top_k`` (default 2 — singletons
        trivially have probability 1 and would dominate any ranking).
    prune_edges:
        Apply the Observation 3 preprocessing (drop edges with ``p(e) < α``
        at compile time).  Mirrors ``MuleConfig.prune_edges``.
    shared_neighborhood_filtering:
        Apply the Modani–Dey pre-filter (``large`` only).  Mirrors
        ``LargeMuleConfig.shared_neighborhood_filtering``.
    controls:
        Optional :class:`~repro.core.engine.controls.RunControls` bounding
        the run.
    workers:
        Worker processes for the sharded parallel path.  ``1`` (default)
        runs serially; ``None`` means "the machine's usable CPU count";
        values above 1 select the parallel path (``mule``/``fast`` only).
    num_shards, backend:
        Sharding knobs forwarded to :mod:`repro.parallel` on the parallel
        path.
    execution:
        ``"auto"`` (parallel iff ``workers`` is ``None`` or > 1),
        ``"serial"``, or ``"parallel"`` (force the shard/merge path even at
        ``workers=1`` — what :func:`repro.parallel.parallel_mule` does, so
        its ``workers=1`` results keep the ``parallel-mule`` label and
        shard-merge semantics).
    root_shard:
        Optional tuple of vertex *labels* confining the search to the
        depth-first subtrees rooted at those vertices
        (:meth:`~repro.core.engine.compiled.CompiledGraph.restrict_roots`).
        This is the wire-level sharding handle of the distributed
        coordinator (:mod:`repro.distributed`): the union of outcomes over
        a root partition is exactly the serial clique set.  ``mule``/
        ``fast`` only, serial execution only; labels must exist in the
        session's graph (unknown labels fail at run time with
        :class:`~repro.errors.ParameterError`).
    kernel:
        Engine kernel backend running the enumeration hot path:
        ``"python"`` (the reference strategy-protocol kernel),
        ``"vector"`` (the native C kernel that inlines the MULE-family
        strategy hooks into one walk; MULE family only), or
        ``"auto"`` (vector where supported and available, python
        otherwise — the default).  Independent of ``backend``, which picks where parallel
        shards *run*; this picks how each shard's inner loop runs.  Both
        kernels are bit-identical, so the choice never changes results.
    """

    algorithm: str = "mule"
    alpha: float | None = None
    k: int | None = None
    size_threshold: int | None = None
    min_size: int = 2
    prune_edges: bool = True
    shared_neighborhood_filtering: bool = True
    controls: RunControls | None = None
    workers: int | None = 1
    num_shards: int | None = None
    backend: str = "auto"
    execution: str = "auto"
    kernel: str = "auto"
    root_shard: tuple | None = None

    def __post_init__(self) -> None:
        canonical = _ALIASES.get(self.algorithm)
        if canonical is None:
            raise ParameterError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        object.__setattr__(self, "algorithm", canonical)

        if self.alpha is not None:
            object.__setattr__(
                self, "alpha", validate_probability(self.alpha, what="alpha")
            )
        if canonical != "top_k" and self.alpha is None:
            raise ParameterError(f"algorithm {canonical!r} requires alpha")

        if canonical == "top_k":
            if self.k is None:
                raise ParameterError("algorithm 'top_k' requires k")
            if self.k <= 0:
                raise ParameterError(f"k must be positive, got {self.k}")
            if self.min_size <= 0:
                raise ParameterError(f"min_size must be positive, got {self.min_size}")
        elif self.k is not None:
            raise ParameterError(f"k is only meaningful for top_k, got algorithm {canonical!r}")

        if canonical == "large":
            if self.size_threshold is None:
                raise ParameterError("algorithm 'large' requires size_threshold")
            if self.size_threshold < 2:
                raise ParameterError(
                    f"size_threshold must be at least 2, got {self.size_threshold}"
                )
        elif self.size_threshold is not None:
            raise ParameterError(
                f"size_threshold is only meaningful for large, got algorithm {canonical!r}"
            )

        if self.workers is not None and self.workers < 1:
            raise ParameterError(f"workers must be positive, got {self.workers}")
        if self.execution not in _EXECUTIONS:
            raise ParameterError(
                f"unknown execution {self.execution!r}; expected one of {_EXECUTIONS}"
            )
        if self.backend not in _BACKENDS:
            raise ParameterError(
                f"unknown backend {self.backend!r}; expected one of {_BACKENDS}"
            )
        if self.kernel not in KERNELS:
            raise ParameterError(
                f"unknown kernel {self.kernel!r}; expected one of {KERNELS}"
            )
        if self.kernel == "vector" and canonical == "noip":
            # DFS-NOIP is the from-scratch baseline; running it on the
            # fused kernel would change what the experiment measures.
            # 'auto' quietly resolves to the python kernel instead.
            raise ParameterError(
                "algorithm 'noip' (DFS-NOIP) only runs on the python "
                "kernel; use kernel='python' or 'auto'"
            )
        if self.num_shards is not None and self.num_shards < 1:
            raise ParameterError(f"num_shards must be positive, got {self.num_shards}")

        if self.execution == "serial" and self.workers is not None and self.workers > 1:
            raise ParameterError("execution='serial' cannot use workers > 1")
        if self.parallel and canonical not in ("mule", "fast"):
            raise ParameterError(
                f"parallel execution is only supported for mule/fast, got {canonical!r}"
            )

        if self.root_shard is not None:
            shard = tuple(self.root_shard)
            if not shard:
                raise ParameterError("root_shard must name at least one root vertex")
            if len(set(shard)) != len(shard):
                raise ParameterError("root_shard contains duplicate vertices")
            object.__setattr__(self, "root_shard", shard)
            if canonical not in ("mule", "fast"):
                raise ParameterError(
                    f"root_shard is only supported for mule/fast, got {canonical!r}"
                )
            if self.parallel:
                raise ParameterError(
                    "root_shard cannot be combined with parallel execution "
                    "(shard fan-out already owns the root partition)"
                )

    @property
    def parallel(self) -> bool:
        """True when this request runs on the sharded parallel path."""
        if self.execution == "parallel":
            return True
        if self.execution == "serial":
            return False
        return self.workers is None or self.workers > 1

    @property
    def label(self) -> str:
        """Result label this request produces (``parallel-mule`` when sharded)."""
        if self.parallel:
            return "parallel-mule"
        return ALGORITHM_LABELS[self.algorithm]

    def compile_alpha(self) -> float | None:
        """The α the compile stage prunes at (``None`` = no edge pruning)."""
        return self.alpha if self.prune_edges else None

    def compile_size_threshold(self) -> int | None:
        """The shared-neighborhood-filter threshold of the compile stage."""
        if self.algorithm == "large" and self.shared_neighborhood_filtering:
            return self.size_threshold
        return None

    def with_alpha(self, alpha: float) -> "EnumerationRequest":
        """Return a copy of this request at a different threshold.

        >>> EnumerationRequest(algorithm="mule", alpha=0.5).with_alpha(0.25).alpha
        0.25
        """
        return replace(self, alpha=alpha)
