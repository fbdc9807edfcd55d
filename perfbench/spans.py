"""Span recording for the traced benchmark run, and the wrappers that feed it.

The benchmark measures layers from the outside: :func:`install` replaces a
fixed set of the stack's public functions (plus one optional private hook)
with thin wrappers that open a span around each call.  The same installer
runs in the load-generator process and, through ``serve_worker.py``, in every
``repro-mule serve`` process the benchmark starts, so one run yields spans
from both sides of the wire.

Spans nest per thread.  A span's *self* time is its duration minus the time
charged by its direct children; a child normally charges its duration, the
kernel span charges only the time spent inside the kernel iterator (its
*busy* time), so the consumer's work between two emitted cliques stays with
the caller.  Timestamps are :func:`time.perf_counter` readings, which on
Linux come from ``CLOCK_MONOTONIC`` and are therefore comparable between the
load generator and the servers.

Recording is off until :attr:`Recorder.enabled` is set, and a disabled
wrapper calls straight through, so the same processes can alternate between
traced and untraced blocks of work.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
from time import perf_counter

__all__ = ["RECORDER", "Recorder", "chrome_trace", "install"]


class _Span:
    __slots__ = (
        "name", "start", "end", "children", "busy", "parent", "path", "op", "args",
    )

    def __init__(self, name: str, parent: "_Span | None") -> None:
        self.name = name
        self.parent = parent
        self.path = () if parent is None else parent.path + (parent.name,)
        self.op = None if parent is None else parent.op
        self.args: dict = {}
        self.children = 0.0
        self.busy: float | None = None
        self.start = 0.0
        self.end = 0.0


class Recorder:
    """Per-thread span stacks feeding one list of finished span records.

    A finished record is a plain dict (``name``, ``start``, ``end``,
    ``self``, ``charge``, ``path``, ``op``, ``tid``, ``pid``, ``args``), so the
    records of a server process can be written as JSON and merged with the
    load generator's.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.records: list[dict] = []
        self._local = threading.local()
        self._ops = 0
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> "_Span | None":
        """Open a span on this thread (``None`` while recording is off)."""
        if not self.enabled:
            return None
        stack = self._stack()
        span = _Span(name, stack[-1] if stack else None)
        if name == "op":
            with self._lock:
                self._ops += 1
                span.op = self._ops
        stack.append(span)
        span.start = perf_counter()
        return span

    def detach(self, span: _Span) -> None:
        """Take an open span off this thread's stack without closing it."""
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is span:
                del stack[index]
                return

    def attach(self, span: _Span) -> None:
        """Put a detached open span back on top of this thread's stack."""
        self._stack().append(span)

    def close(self, span: _Span) -> None:
        """Close a span, charge its parent and keep its record."""
        span.end = perf_counter()
        self.detach(span)
        duration = span.end - span.start
        charge = duration if span.busy is None else span.busy
        if span.parent is not None:
            span.parent.children += charge
        self.records.append(
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "self": charge - span.children,
                "charge": charge,
                "path": span.path,
                "op": span.op,
                "tid": threading.get_native_id(),
                "pid": os.getpid(),
                "args": span.args,
            }
        )


#: The process-wide recorder every wrapper reports to.
RECORDER = Recorder()


def _timed(name, function, annotate=None):
    """Wrap ``function`` so each call is one span named ``name``.

    ``annotate(span, args, kwargs, result)`` may add attributes (a codec
    kind, a byte count, a job id) once the call returned.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span = RECORDER.open(name)
        if span is None:
            return function(*args, **kwargs)
        try:
            result = function(*args, **kwargs)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result
        finally:
            RECORDER.close(span)

    return wrapper


def _kernel(function):
    """Wrap ``run_kernel_search``: busy time is spent inside the iterator.

    The span opens at the call and closes when the stream is exhausted or
    closed; it is on the thread's stack only while the kernel itself runs,
    and it records the run's frame, clique and pruning counts.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span = RECORDER.open("run_kernel_search")
        if span is None:
            return function(*args, **kwargs)
        started = span.start
        try:
            inner = function(*args, **kwargs)
        except BaseException:
            RECORDER.close(span)
            raise
        span.busy = perf_counter() - started
        RECORDER.detach(span)
        return _kernel_stream(inner, span, kwargs.get("statistics"), kwargs.get("report"))

    return wrapper


def _kernel_stream(inner, span, statistics, report):
    cliques = 0
    try:
        while True:
            RECORDER.attach(span)
            started = perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                span.busy += perf_counter() - started
                RECORDER.detach(span)
            cliques += 1
            yield item
    finally:
        inner.close()
        frames = 0
        if report is not None and report.frames_expanded:
            frames = report.frames_expanded
        elif statistics is not None:
            frames = statistics.recursive_calls
        span.args.update(
            cliques=cliques,
            frames=frames,
            pruned=statistics.pruned_branches if statistics is not None else 0,
        )
        RECORDER.close(span)


def _window(name, function):
    """Wrap a method returning a lazy stream: the span covers its drain.

    The span stays on the thread's stack from the first pull to the end of
    the stream, so the consumer's per-item work between pulls counts as
    time spent in the stream's layer.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        inner = function(*args, **kwargs)
        if not RECORDER.enabled:
            return inner
        return _window_stream(name, inner)

    return wrapper


def _window_stream(name, inner):
    span = RECORDER.open(name)
    try:
        yield from inner
    finally:
        inner.close()
        if span is not None:
            RECORDER.close(span)


def _codec_kind_of_payload(span, args, kwargs, result):
    payload = args[0] if args else kwargs.get("payload")
    if isinstance(payload, dict):
        span.args["kind"] = payload.get("kind")
    span.args["bytes"] = len(result)


def _codec_kind_of_result(span, args, kwargs, result):
    if isinstance(result, dict):
        span.args["kind"] = result.get("kind")
    data = args[0] if args else kwargs.get("data")
    span.args["bytes"] = len(data) if data is not None else 0


def _chunk_finality(span, args, kwargs, result):
    span.args["final"] = bool(args[0].final)


def _job_of_result(span, args, kwargs, result):
    span.args["job"] = result.id
    if span.parent is not None and span.parent.name == "EnumerationScheduler.run":
        span.parent.args["job"] = result.id


def _job_of_argument(span, args, kwargs, result):
    span.args["job"] = args[2].id


def _shard_count(span, args, kwargs, result):
    span.args["shards"] = len(result)


def _patch_function(module, name, wrap) -> None:
    """Replace ``module.name`` everywhere it was imported by name."""
    original = getattr(module, name)
    wrapped = wrap(original)
    for loaded in list(sys.modules.values()):
        namespace = getattr(loaded, "__dict__", None)
        if namespace is not None and namespace.get(name) is original:
            setattr(loaded, name, wrapped)


def _patch_method(cls, name, wrap, *, required: bool = True) -> None:
    original = cls.__dict__.get(name)
    if original is None:
        if required:
            raise AttributeError(f"{cls.__name__}.{name} is missing")
        print(
            f"perfbench: {cls.__name__}.{name} not found; the metrics derived "
            f"from it read 0",
            file=sys.stderr,
        )
        return
    setattr(cls, name, wrap(original))


def install() -> None:
    """Install every wrapper into the already-importable ``repro`` package.

    Call once per process: a second call would wrap the wrappers.
    """
    import repro.cli.main  # noqa: F401  (loads every layer before patching)
    from repro.api.cache import CompiledGraphCache
    from repro.api.session import MiningSession
    from repro.api.store import GraphStore
    from repro.core.engine import backends, compiled
    from repro.distributed.coordinator import DistributedSession
    from repro.parallel.planner import ShardPlanner
    from repro.service import codec
    from repro.service.client import RemoteJob, RemoteSession, RemoteStore
    from repro.service.scheduler import EnumerationScheduler

    # engine
    _patch_function(compiled, "compile_graph", lambda f: _timed("compile_graph", f))
    _patch_function(backends, "run_kernel_search", _kernel)
    for method in ("restrict_probability", "restrict_roots"):
        _patch_method(
            compiled.CompiledGraph, method,
            lambda f, m=method: _timed(f"CompiledGraph.{m}", f),
        )
    # api
    _patch_method(MiningSession, "enumerate", lambda f: _timed("MiningSession.enumerate", f))
    _patch_method(MiningSession, "stream", lambda f: _window("MiningSession.stream", f))
    for method in ("get", "discard"):
        _patch_method(
            CompiledGraphCache, method,
            lambda f, m=method: _timed(f"CompiledGraphCache.{m}", f),
        )
    _patch_method(GraphStore, "add", lambda f: _timed("GraphStore.add", f))
    # codec
    _patch_function(codec, "encode", lambda f: _timed("codec.encode", f, _codec_kind_of_payload))
    _patch_function(codec, "decode", lambda f: _timed("codec.decode", f, _codec_kind_of_result))
    for function in (
        "outcome_to_wire", "outcome_from_wire", "upload_to_wire", "upload_from_wire",
        "graph_to_wire", "graph_from_wire", "job_chunk_from_wire",
    ):
        _patch_function(codec, function, lambda f, n=function: _timed(f"codec.{n}", f))
    _patch_function(
        codec, "job_chunk_to_wire",
        lambda f: _timed("codec.job_chunk_to_wire", f, _chunk_finality),
    )
    # jobs (the job body is a private hook: optional, so a rename degrades
    # jobs.handoff_s to 0 instead of breaking the traced run)
    _patch_method(
        EnumerationScheduler, "submit_job",
        lambda f: _timed("EnumerationScheduler.submit_job", f, _job_of_result),
    )
    _patch_method(EnumerationScheduler, "run", lambda f: _timed("EnumerationScheduler.run", f))
    _patch_method(
        EnumerationScheduler, "_run_job",
        lambda f: _timed("EnumerationScheduler._run_job", f, _job_of_argument),
        required=False,
    )
    # http clients
    for cls, method in (
        (RemoteSession, "enumerate"), (RemoteSession, "submit"),
        (RemoteStore, "add"), (RemoteJob, "wait"),
    ):
        _patch_method(cls, method, lambda f, n=f"{cls.__name__}.{method}": _timed(n, f))
    # distributed
    _patch_method(
        DistributedSession, "enumerate", lambda f: _timed("DistributedSession.enumerate", f)
    )
    _patch_method(
        ShardPlanner, "plan", lambda f: _timed("ShardPlanner.plan", f, _shard_count)
    )


def chrome_trace(records: list[dict], process_names: dict[int, str]) -> dict:
    """Span records as a Chrome trace-event document.

    The same shape ``repro.obs`` exports (complete ``X`` events in
    microseconds under ``traceEvents``), plus one ``process_name`` metadata
    event per process so the load generator and each server are labelled.
    """
    events = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": label}}
        for pid, label in sorted(process_names.items())
    ]
    for record in records:
        event = {
            "name": record["name"],
            "ph": "X",
            "ts": round(record["start"] * 1e6, 3),
            "dur": round((record["end"] - record["start"]) * 1e6, 3),
            "pid": record["pid"],
            "tid": record["tid"],
        }
        args = {key: str(value) for key, value in record["args"].items()}
        args["self_us"] = str(round(record["self"] * 1e6, 3))
        event["args"] = args
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
