"""The vector kernel: the fused MULE-family walk in C, built on first use.

:func:`run_vector_search` is a drop-in replacement for
:func:`repro.core.engine.kernel.run_search` for the MULE strategy family
(:class:`MuleStrategy`, :class:`TopKStrategy`,
:class:`LargeCliqueStrategy`), and :func:`run_vector_blocks` hands the
same run over as column blocks.  The walk itself is ``_mule.c``, next to
this module: one depth-first loop that inlines the strategy hooks, with the
TopK size floor and the LARGE-MULE size bound as modes.

Build
    The first kernel resolution (never ``import repro``) compiles
    ``_mule.c`` with the system ``cc`` and the flags in :data:`FLAGS` into
    the user's cache directory (``$XDG_CACHE_HOME/repro-mule``, by default
    ``~/.cache/repro-mule``).  The library is named by the SHA-256 of the
    source, the compile command and the machine, written to a temporary
    file and moved into place with ``os.replace``, so concurrent first
    builds never load a half-written file.  The loaded file is code: a
    cache directory or library that another user owns, or that is group-
    or world-writable, is refused.  Whether the kernel is available is
    decided once per process; :func:`unavailable_reason` says why not.
Drive
    Each run is one heap-allocated walk in C, advanced one step at a time
    with the GIL released by one stepping loop.  A step returns at every
    check point (each ``check_every_frames`` steps of the walk, limits or
    not, so ``close()``, Ctrl-C and cancellation stay responsive) and when
    its output buffers are full.  The deadline and the cancellation token
    are polled here, at the check points, in the python kernel's order; C
    reads no clock.
Steps and blocks
    The unit of transfer is a step's output: :func:`run_vector_blocks`
    copies each step's flat vertex indices, sizes and probabilities out of
    the buffers in bulk, as one block of three arrays, and sets
    :class:`SearchStatistics` and :class:`RunReport` once per step from
    the walk's totals.  :func:`run_vector_search` is a per-clique view over
    the same steps: with each clique C also writes the cumulative counters
    at its emission, and the view sets the counters from that row before
    the yield, so streaming observers see exactly what the python kernel
    shows at the same point.
The cancel flag
    The block path hands the walk the address of the token's one-byte
    ``flag``.  The walk reads it before it writes each clique and, once it
    is set, ends with its own status, the counters standing where the
    python kernel's stand when it yields that clique; the run stops
    ``cancelled`` with exactly the cliques written before.  The per-clique
    view passes no flag, so its cancellation stays at the check points,
    as the python kernel's does.

Parity is the contract: emitted cliques (their index tuples included, in
ascending order), probabilities, stop reasons and every statistics counter
are bit-identical to the python kernel at every yield point of the
per-clique view (``tests/property/test_property_kernel_parity.py``
enforces it) and at the end of a block run
(``tests/property/test_property_page_path.py``).

:class:`NoIncrementalStrategy` is intentionally not implemented: DFS-NOIP
is the paper's *baseline*, defined by its from-scratch recomputation, and
accelerating it would change the experiment.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from array import array
from collections.abc import Generator, Iterator
from pathlib import Path
from time import perf_counter
from typing import TypeAlias

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

__all__ = [
    "FLAGS",
    "SOURCE",
    "available",
    "run_vector_blocks",
    "run_vector_search",
    "unavailable_reason",
]

#: The kernel's C source, shipped as package data.
SOURCE = Path(__file__).with_name("_mule.c")

#: Production compile flags.  No ``-ffast-math``, ``-Ofast`` or
#: ``-march=native``: products must round exactly as Python's do, and
#: ``-ffp-contract=off`` keeps FMA-capable targets from fusing them.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_COMPILE_TIMEOUT_SECONDS = 300.0

# mule_step's return codes (see _mule.c).
_DONE, _CHECK, _BATCH, _LIMIT, _CANCEL = 0, 1, 2, 3, 4

#: Cliques, and labels beyond one clique, per step's output.
_BATCH_CLIQUES = 256
_BATCH_LABELS = 4096

_UNLIMITED = RunControls()

_INT64_CAP = 2**62

_P = ctypes.c_void_p
_I = ctypes.c_int
_I64 = ctypes.c_int64

# A block (flat indices, sizes, probabilities), and a step: a block and
# the walk's counter columns.
_Block: TypeAlias = "tuple[array[int], array[int], array[float]]"
_Step: TypeAlias = "tuple[array[int], array[int], array[float], array[int]]"


class _Unavailable(Exception):
    """Why the kernel cannot be built or loaded here."""


def _compiler() -> str | None:
    """The system C compiler, or None."""
    return shutil.which("cc")


def _cache_directory() -> Path:
    """``$XDG_CACHE_HOME/repro-mule``, created ``0700`` and checked."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    directory = Path(base) / "repro-mule"
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError as exc:
        raise _Unavailable(f"cannot create the kernel cache {directory}: {exc}") from exc
    _refuse_unsafe(directory)
    return directory


def _refuse_unsafe(path: Path) -> None:
    """Refuse a path another user owns or others may write."""
    info = path.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise _Unavailable(
            f"unsafe kernel cache: {path} is not owned by this user or is "
            f"group- or world-writable"
        )


def _build() -> Path:
    """Compile the kernel into the cache unless it is there; return its path."""
    compiler = _compiler()
    if compiler is None:
        raise _Unavailable("no C compiler: cc is not on PATH")
    command = [compiler, *FLAGS]
    try:
        source = SOURCE.read_bytes()
    except OSError as exc:
        raise _Unavailable(f"the kernel source is missing: {exc}") from exc
    digest = hashlib.sha256(source)
    digest.update("\0".join([*command, platform.machine()]).encode())
    directory = _cache_directory()
    library = directory / f"mule-{digest.hexdigest()[:32]}.so"
    if not library.exists():
        handle, temporary = tempfile.mkstemp(prefix=".mule-", suffix=".so", dir=directory)
        os.close(handle)
        try:
            try:
                done = subprocess.run(
                    [*command, "-o", temporary, str(SOURCE)],
                    capture_output=True,
                    text=True,
                    timeout=_COMPILE_TIMEOUT_SECONDS,
                )
            except (OSError, subprocess.SubprocessError) as exc:
                raise _Unavailable(f"the C compiler did not run: {exc}") from exc
            if done.returncode != 0:
                tail = (done.stderr or done.stdout).strip()[-600:]
                raise _Unavailable(f"the C compiler failed: {tail}")
            os.chmod(temporary, 0o700)
            os.replace(temporary, library)
        finally:
            if os.path.exists(temporary):
                os.unlink(temporary)
    _refuse_unsafe(library)
    return library


class _Kernel:
    """The loaded library, with its functions typed."""

    def __init__(self, path: Path) -> None:
        try:
            library = ctypes.CDLL(str(path))
        except OSError as exc:
            raise _Unavailable(f"cannot load {path}: {exc}") from exc
        self.new = library.mule_new
        self.new.restype = _P
        self.new.argtypes = [
            _I, _I, _P, _P, _P, _P, _I64, _P,  # graph
            ctypes.c_double, _I, _I, _I64, _I64, _P, _P,  # run
            _I, _I, _P, _P, _P, _P, _P, _P,  # output
        ]
        self.step = library.mule_step
        self.step.restype = _I
        self.step.argtypes = [_P]
        self.free = library.mule_free
        self.free.restype = None
        self.free.argtypes = [_P]
        self.fill_bits = library.mule_fill_bits
        self.fill_bits.restype = None
        self.fill_bits.argtypes = [_I, _P, _P, _I64, _P]


class _Library:
    """This process's kernel: built and loaded at most once, thread-safely."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._decided = False
        self._kernel: _Kernel | None = None
        self._reason: str | None = None

    def get(self) -> tuple[_Kernel | None, str | None]:
        """The kernel, or None and why not."""
        if not self._decided:
            with self._lock:
                if not self._decided:
                    try:
                        self._kernel = _Kernel(_build())
                    except _Unavailable as exc:
                        self._reason = str(exc)
                    self._decided = True
        return self._kernel, self._reason


_LIBRARY = _Library()


def available() -> bool:
    """Whether the vector kernel runs in this process (builds it once)."""
    return _LIBRARY.get()[0] is not None


def unavailable_reason() -> str | None:
    """Why the vector kernel is unavailable, or None when it is available."""
    return _LIBRARY.get()[1]


def _address(buffer: "array[int] | array[float]") -> int:
    return buffer.buffer_info()[0]


class _NativeGraph:
    """The kernel's form of one compiled graph, built in bulk once.

    Sorted CSR rows (``offsets``, ``nbrs``, ``probs``) give ``p(u, w)`` by
    binary search; one adjacency bitset row per vertex (``bits``,
    ``rowbytes`` bytes each) answers adjacency in one test.  ``maxdeg``
    sizes the walk's buffers: no clique has more than ``maxdeg + 1``
    members.
    """

    __slots__ = ("n", "maxdeg", "rowbytes", "offsets", "nbrs", "probs", "bits")

    def __init__(self, kernel: _Kernel, compiled: CompiledGraph) -> None:
        rows = compiled.adjacency_probability
        nbrs: list[int] = []
        probs: list[float] = []
        offsets = [0]
        for row in rows:
            keys = sorted(row)
            nbrs += keys
            probs += map(row.__getitem__, keys)
            offsets.append(len(nbrs))
        # The C walk indexes its bitsets with these: refuse what would
        # take it out of bounds.
        n = compiled.n
        if len(rows) != n or (nbrs and not 0 <= min(nbrs) <= max(nbrs) < n):
            raise ParameterError(
                "the compiled graph's adjacency does not index its vertices"
            )
        self.n = n
        self.maxdeg = max(map(len, rows), default=0)
        self.rowbytes = (self.n + 7) // 8
        self.offsets = array("i", offsets)
        self.nbrs = array("i", nbrs)
        self.probs = array("d", probs)
        self.bits = array("B", bytes(self.n * self.rowbytes))
        kernel.fill_bits(
            self.n,
            _address(self.offsets),
            _address(self.nbrs),
            self.rowbytes,
            _address(self.bits),
        )


def _native_graph(kernel: _Kernel, compiled: CompiledGraph) -> _NativeGraph:
    """The native form cached on the artifact (and its shard views).

    No lock: the form is a pure function of the artifact, so a race only
    builds it twice, and each run keeps the one it read.
    """
    caches = compiled._kernel_caches
    graph = caches.native
    if not isinstance(graph, _NativeGraph):
        graph = caches.native = _NativeGraph(kernel, compiled)
    return graph


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
    """Run one enumeration on the vector kernel; same contract as ``run_search``.

    Only the MULE strategy family is supported; pass anything else (or an
    instance of a subclass the walk was not written for) and a
    :class:`~repro.errors.ParameterError` is raised eagerly, at call time,
    as it is when the kernel is unavailable here.  Dispatch is on the
    *exact* strategy type: a user subclass may override hooks the walk
    never calls, so this function refuses it and :func:`resolve_kernel`'s
    ``auto`` mode routes it to the python kernel instead.

    The pairs are a view over the steps :func:`run_vector_blocks` hands
    over as blocks: before each yield the counters are set from the row C
    wrote with that clique, so a streaming observer sees what the python
    kernel shows at the same point.  ``cancel`` is polled at the check
    points only, as the python kernel polls it.
    """
    statistics = statistics if statistics is not None else SearchStatistics()
    report = report if report is not None else RunReport()
    steps = _start(compiled, alpha, strategy, statistics, controls, report, cancel, None)
    return _cliques(steps, statistics, report)


def run_vector_blocks(
    compiled: CompiledGraph,
    alpha: float,
    strategy: EnumerationStrategy,
    *,
    statistics: SearchStatistics | None = None,
    controls: RunControls | None = None,
    report: RunReport | None = None,
    cancel: CancellationToken | None = None,
) -> Generator[_Block, None, None]:
    """Run one enumeration on the vector kernel; yield one block per C step.

    A block is ``(indices, sizes, probabilities)``: the step's cliques as
    their flat vertex indices, one size and one probability per clique,
    each a new array the caller may keep.  No block is empty.  The counters
    are set once per step, from the walk's totals, before its block is
    yielded, and stand bit-identical to the python kernel's when the run
    ends.  The walk reads ``cancel.flag`` before it writes each clique:
    once the flag is set the run ends there, with
    :attr:`StopReason.CANCELLED` and the counters the python kernel shows
    at that clique, so the blocks hold exactly the cliques produced before
    the cancel.  Unsupported strategies raise as :func:`run_vector_search`
    does.
    """
    statistics = statistics if statistics is not None else SearchStatistics()
    report = report if report is not None else RunReport()
    flag = cancel.flag if cancel is not None else None
    steps = _start(compiled, alpha, strategy, statistics, controls, report, cancel, flag)
    return _blocks(steps)


def _start(
    compiled: CompiledGraph,
    alpha: float,
    strategy: EnumerationStrategy,
    statistics: SearchStatistics,
    controls: RunControls | None,
    report: RunReport,
    cancel: CancellationToken | None,
    flag: "array[int] | None",
) -> Generator[_Step, None, None]:
    """Check the strategy and the kernel, bind, and return the walk's steps."""
    if type(strategy) is MuleStrategy:
        large, min_size = False, 0
    elif type(strategy) is TopKStrategy:
        large, min_size = False, strategy.min_size
    elif type(strategy) is LargeCliqueStrategy:
        large, min_size = True, strategy.size_threshold
    else:
        raise ParameterError(
            f"the vector kernel does not support strategy "
            f"{type(strategy).__name__!r}; supported: MuleStrategy, "
            f"TopKStrategy, LargeCliqueStrategy (use kernel='python')"
        )
    kernel, reason = _LIBRARY.get()
    if kernel is None:
        raise ParameterError(f"the vector kernel is unavailable: {reason}")
    strategy.bind(compiled, alpha, statistics)
    return _steps(
        kernel, compiled, alpha, large, min_size, statistics,
        controls if controls is not None else _UNLIMITED, report, cancel, flag,
    )


def _cliques(
    steps: Generator[_Step, None, None],
    statistics: SearchStatistics,
    report: RunReport,
) -> Iterator[tuple[tuple[int, ...], float]]:
    """The walk's cliques one at a time, each with the counters of its row."""
    emitted = 0
    try:
        for indices, sizes, probabilities, counters in steps:
            labels = tuple(indices)
            count = len(sizes)
            batch = len(counters) // 6
            start = 0
            for size, probability, rc, ce, pm, mx, pb, frames in zip(
                sizes,
                probabilities,
                counters[:count],
                counters[batch : batch + count],
                counters[2 * batch : 2 * batch + count],
                counters[3 * batch : 3 * batch + count],
                counters[4 * batch : 4 * batch + count],
                counters[5 * batch : 5 * batch + count],
            ):
                statistics.recursive_calls = rc
                statistics.candidates_examined = ce
                statistics.probability_multiplications = pm
                statistics.maximality_checks = mx
                statistics.pruned_branches = pb
                report.frames_expanded = frames
                report.cliques_emitted = emitted
                end = start + size
                yield labels[start:end], probability
                emitted += 1
                start = end
    finally:
        steps.close()


def _blocks(
    steps: Generator[_Step, None, None],
) -> Generator[_Block, None, None]:
    """The walk's cliques one step at a time."""
    try:
        for indices, sizes, probabilities, _ in steps:
            yield indices, sizes, probabilities
    finally:
        steps.close()


def _set_counters(
    statistics: SearchStatistics, report: RunReport, totals: array[int]
) -> None:
    (
        statistics.recursive_calls,
        statistics.candidates_examined,
        statistics.probability_multiplications,
        statistics.maximality_checks,
        statistics.pruned_branches,
        report.frames_expanded,
        report.cliques_emitted,
    ) = totals


def _steps(
    kernel: _Kernel,
    compiled: CompiledGraph,
    alpha: float,
    large: bool,
    min_size: int,
    statistics: SearchStatistics,
    controls: RunControls,
    report: RunReport,
    cancel: CancellationToken | None,
    flag: "array[int] | None",
) -> Generator[_Step, None, None]:
    """Step one C walk: the native kernel's one driver.

    Yields ``(indices, sizes, probabilities, counters)`` for each step that
    wrote cliques: the first three are copies, the caller's to keep;
    ``counters`` is the live buffer of six columns (``rc``, ``ce``, ``pm``,
    ``mx``, ``pb``, ``frames``) of ``len(counters) // 6`` rows, one row per
    clique, read before the next step.  The counters are set from the
    walk's totals after each step and when the walk ends.  ``min_size`` is
    the size floor; ``flag``, when given, is read by the walk before each
    clique.
    """
    report.stop_reason = StopReason.COMPLETED
    report.cliques_emitted = 0
    report.frames_expanded = 0
    n = compiled.n
    if n == 0:
        return
    graph = _native_graph(kernel, compiled)
    deadline = (
        perf_counter() + controls.time_budget_seconds
        if controls.time_budget_seconds is not None
        else None
    )
    check_limits = deadline is not None or cancel is not None

    roots: array[int] | None = None
    if compiled.root_mask != compiled.all_mask:
        roots = array("B", compiled.root_mask.to_bytes(graph.rowbytes, "little"))
    batch = _BATCH_CLIQUES
    out_ind = array("i", [0]) * (_BATCH_LABELS + graph.maxdeg + 1)
    out_sizes = array("i", [0]) * batch
    out_probs = array("d", [0.0]) * batch
    # Six counter columns (rc, ce, pm, mx, pb, frames), one row per clique.
    out_counters = array("q", [0]) * (6 * batch)
    totals = array("q", [0]) * 7
    info = array("i", [0, 0])
    base = array(
        "q",
        [
            statistics.recursive_calls,
            statistics.candidates_examined,
            statistics.probability_multiplications,
            statistics.maximality_checks,
            statistics.pruned_branches,
        ],
    )
    run = kernel.new(
        n, graph.maxdeg, _address(graph.offsets), _address(graph.nbrs),
        _address(graph.probs), _address(graph.bits), graph.rowbytes,
        None if roots is None else _address(roots),
        # ctypes truncates what does not fit: no clique has more than n
        # members, and no run reaches 2**62 steps or cliques.
        alpha, large, min(min_size, n + 1),
        min(controls.check_every_frames, _INT64_CAP),
        min(controls.max_cliques or 0, _INT64_CAP), _address(base),
        None if flag is None else _address(flag),
        batch, len(out_ind), _address(out_ind), _address(out_sizes),
        _address(out_probs), _address(out_counters), _address(totals),
        _address(info),
    )
    if not run:
        raise MemoryError("the vector kernel could not allocate its walk")
    step = kernel.step
    try:
        while True:
            status = step(run)
            if status < 0:
                raise MemoryError("the vector kernel could not allocate its walk")
            _set_counters(statistics, report, totals)
            count = info[0]
            if count:
                yield out_ind[: info[1]], out_sizes[:count], out_probs[:count], out_counters
            if status == _CHECK:
                if not check_limits:
                    continue
                # Cancellation first, so a token cancelled before an
                # expired deadline is seen still wins in the same window.
                if cancel is not None and cancel.cancelled:
                    report.stop_reason = StopReason.CANCELLED
                    break
                if deadline is not None and perf_counter() >= deadline:
                    report.stop_reason = StopReason.TIME_BUDGET
                    break
            elif status == _LIMIT:
                report.stop_reason = StopReason.MAX_CLIQUES
                break
            elif status == _CANCEL:
                report.stop_reason = StopReason.CANCELLED
                break
            elif status == _DONE:
                break
        _set_counters(statistics, report, totals)
    finally:
        kernel.free(run)
