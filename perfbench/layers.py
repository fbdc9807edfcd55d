"""Per-layer metrics of a traced run, from spans and metric deltas.

Inputs are the span records of every process (see ``spans.py``), the
deltas of the ``repro.obs`` metrics of every process over the traced blocks,
and the load generator's own tallies.  Times are reported per op (seconds
per op), counts per op, and the rest as ratios; the names and units are the
``per_layer`` entries of ``BENCHMARK.json``.

Attribution rules:

* a layer's time is the total duration of its outermost spans (a span of
  the same layer nested in another one is not counted twice);
* a layer's *self* time is the part of its spans not covered by child
  spans; the kernel span charges its parent only the time spent inside the
  kernel iterator;
* a codec span is classified by the wire kind it encoded or decoded.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

__all__ = ["add_delta", "compute", "metric_delta"]

API_SPANS = ("MiningSession.enumerate", "MiningSession.stream")
CLIENT_CALLS = (
    "RemoteSession.enumerate", "RemoteSession.submit", "RemoteStore.add", "RemoteJob.wait",
)
#: Endpoints the benchmark itself polls; they are not part of any op.
IGNORED_ENDPOINTS = ("/v1/metrics", "/v1/health")

_OUTCOME = ("codec.outcome_to_wire", "codec.outcome_from_wire")
_GRAPH = (
    "codec.upload_to_wire", "codec.upload_from_wire", "codec.graph_to_wire",
    "codec.graph_from_wire",
)
_CHUNK = ("codec.job_chunk_to_wire", "codec.job_chunk_from_wire")


# ---------------------------------------------------------------------- #
# Metric snapshots
# ---------------------------------------------------------------------- #
def _parse_key(key: str) -> tuple[str, dict[str, str]]:
    """``name{a=1,b=x}`` -> (``name``, {a: 1, b: x})."""
    name, brace, inner = key.partition("{")
    labels = {}
    if brace:
        for part in inner[:-1].split(","):
            label, _, value = part.partition("=")
            labels[label] = value
    return name, labels


def metric_delta(before: dict, after: dict) -> dict:
    """Counter and histogram (sum, count) increments between two snapshots."""
    counters = {
        key: value - before["counters"].get(key, 0.0)
        for key, value in after["counters"].items()
    }
    histograms = {}
    for key, data in after["histograms"].items():
        old = before["histograms"].get(key, {"sum": 0.0, "count": 0})
        histograms[key] = (data["sum"] - old["sum"], data["count"] - old["count"])
    return {"counters": counters, "histograms": histograms}


def add_delta(total: dict, delta: dict) -> None:
    """Accumulate ``delta`` into ``total`` (both as from :func:`metric_delta`)."""
    for key, value in delta["counters"].items():
        total["counters"][key] = total["counters"].get(key, 0.0) + value
    for key, (value, count) in delta["histograms"].items():
        old_sum, old_count = total["histograms"].get(key, (0.0, 0))
        total["histograms"][key] = (old_sum + value, old_count + count)


def _counter_total(deltas: dict, name: str, keep=lambda labels: True) -> float:
    total = 0.0
    for key, value in deltas["counters"].items():
        metric, labels = _parse_key(key)
        if metric == name and keep(labels):
            total += value
    return total


def _histogram_sum(deltas: dict, name: str, keep=lambda labels: True) -> float:
    total = 0.0
    for key, (value, _) in deltas["histograms"].items():
        metric, labels = _parse_key(key)
        if metric == name and keep(labels):
            total += value
    return total


def _served(labels: dict) -> bool:
    return labels.get("endpoint") not in IGNORED_ENDPOINTS


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
def _duration(record: dict) -> float:
    return record["end"] - record["start"]


def _outermost(records: list[dict], names) -> list[dict]:
    return [
        r for r in records
        if r["name"] in names and not any(step in names for step in r["path"])
    ]


def _under(records: list[dict], name: str, ancestor: str) -> list[dict]:
    return [r for r in records if r["name"] == name and ancestor in r["path"]]


def _codec_category(record: dict) -> str:
    name, kind = record["name"], record["args"].get("kind")
    if name in _OUTCOME or kind == "enumeration-outcome":
        return "outcome"
    if name in _GRAPH or kind in ("graph-upload", "graph"):
        return "graph"
    if name in _CHUNK or kind == "job-result-chunk":
        return "chunk"
    return "other"


def _codec_direction(record: dict) -> str:
    name = record["name"]
    return "encode" if name == "codec.encode" or name.endswith("_to_wire") else "decode"


def _handoff(records: list[dict]) -> float:
    """Queueing plus thread handoff of every scheduler job.

    For each job: from ``submit_job`` to the start of the job body, plus,
    for a synchronous ``run``, from the end of the body to ``run``
    returning.
    """
    submitted, bodies, runs = {}, {}, {}
    for r in records:
        job = r["args"].get("job")
        if job is None:
            continue
        if r["name"] == "EnumerationScheduler.submit_job":
            submitted[(r["pid"], job)] = r
        elif r["name"] == "EnumerationScheduler._run_job":
            bodies[(r["pid"], job)] = r
        elif r["name"] == "EnumerationScheduler.run":
            runs[(r["pid"], job)] = r
    total = 0.0
    for key, body in bodies.items():
        submit = submitted.get(key)
        if submit is None:
            continue
        total += body["start"] - submit["start"]
        run = runs.get(key)
        if run is not None:
            total += run["end"] - body["end"]
    return total


def _straggler(records: list[dict]) -> float:
    """Per op: slowest shard wait minus the median shard wait, summed."""
    waits = defaultdict(list)
    for r in records:
        if r["name"] == "RemoteJob.wait" and r["op"] is not None:
            waits[r["op"]].append(_duration(r))
    return sum(max(ws) - statistics.median(ws) for ws in waits.values())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------- #
# The per-layer table
# ---------------------------------------------------------------------- #
def compute(
    records: list[dict],
    loadgen_pid: int,
    deltas: dict,
    *,
    ops: int,
    cliques: int,
    traced_rate: float,
    untraced_rate: float,
) -> dict[str, float]:
    """Every per-layer metric, keyed by its ``BENCHMARK.json`` name.

    ``ops`` and ``cliques`` are the ops completed and cliques delivered in
    the traced blocks; the two rates are cliques per second in the traced
    and untraced blocks.
    """
    # The benchmark's own metric polls are not part of any op.
    records = [r for r in records if r["args"].get("kind") != "metrics"]
    named = defaultdict(list)
    for r in records:
        named[r["name"]].append(r)

    def total(name: str) -> float:
        return sum(_duration(r) for r in named[name])

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    m: dict[str, float] = {}

    # engine
    kernel = named["run_kernel_search"]
    kernel_s = sum(r["charge"] for r in kernel)
    frames = sum(r["args"].get("frames", 0) for r in kernel)
    pruned = sum(r["args"].get("pruned", 0) for r in kernel)
    m["engine.kernel_s"] = per_op(kernel_s)
    m["engine.compile_s"] = per_op(total("compile_graph"))
    m["engine.derive_s"] = per_op(
        total("CompiledGraph.restrict_probability") + total("CompiledGraph.restrict_roots")
    )
    m["engine.frames"] = per_op(frames)
    m["engine.cliques"] = per_op(sum(r["args"].get("cliques", 0) for r in kernel))
    m["engine.ns_per_frame"] = _ratio(kernel_s * 1e9, frames)
    m["engine.prune_frac"] = _ratio(pruned, frames + pruned)

    # api
    lookups = _counter_total(deltas, "cache_lookups_total")
    hits = _counter_total(deltas, "cache_lookups_total", lambda l: l.get("outcome") == "hit")
    m["api.enumerate_s"] = per_op(sum(_duration(r) for r in _outermost(records, API_SPANS)))
    m["api.session_self_s"] = per_op(sum(r["self"] for n in API_SPANS for r in named[n]))
    m["api.cache_get_s"] = per_op(total("CompiledGraphCache.get"))
    m["api.cache_hit_frac"] = _ratio(hits, lookups)
    m["api.store_add_s"] = per_op(total("GraphStore.add"))
    m["api.evictions"] = per_op(len(_under(records, "CompiledGraphCache.discard", "GraphStore.add")))

    # codec
    codec = [
        r for r in records
        if r["name"].startswith("codec.") and not any(s.startswith("codec.") for s in r["path"])
    ]
    split = defaultdict(float)
    for r in codec:
        split[(_codec_category(r), _codec_direction(r))] += _duration(r)
    for category in ("outcome", "graph", "chunk"):
        for direction in ("encode", "decode"):
            m[f"codec.{category}_{direction}_s"] = per_op(split[(category, direction)])
    m["codec.ns_per_clique"] = _ratio(sum(_duration(r) for r in codec) * 1e9, cliques)
    response_bytes = sum(
        r["args"].get("bytes", 0) for r in codec
        if r["pid"] == loadgen_pid and r["name"] == "codec.decode"
        and r["args"].get("kind") in ("enumeration-outcome", "job-result-chunk")
    )
    m["codec.bytes_per_clique"] = _ratio(response_bytes, cliques)

    # jobs
    async_jobs = [
        r for r in named["EnumerationScheduler.submit_job"]
        if "EnumerationScheduler.run" not in r["path"]
    ]
    pages = [r for r in named["codec.job_chunk_to_wire"] if r["args"].get("final") is False]
    m["jobs.handoff_s"] = per_op(_handoff(records))
    m["jobs.park_s"] = per_op(_histogram_sum(deltas, "jobs_backpressure_park_seconds"))
    m["jobs.pages_per_job"] = _ratio(len(pages), len(async_jobs))

    # http
    server_s = _histogram_sum(deltas, "http_request_seconds", _served)
    client_calls = _outermost(records, CLIENT_CALLS)
    client_codec = sum(
        _duration(r) for r in codec
        if r["pid"] == loadgen_pid and any(step in CLIENT_CALLS for step in r["path"])
    )
    m["http.server_s"] = per_op(server_s)
    m["http.transport_s"] = per_op(
        sum(_duration(r) for r in client_calls) - server_s - client_codec
    )
    m["http.requests"] = per_op(_counter_total(deltas, "http_requests_total", _served))
    m["http.errors"] = per_op(
        _counter_total(
            deltas, "http_requests_total",
            lambda l: _served(l) and int(l.get("status", "0")) >= 400,
        )
    )

    # dist
    coordinator = "DistributedSession.enumerate"
    shards = sum(r["args"].get("shards", 0) for r in _under(records, "ShardPlanner.plan", coordinator))
    m["dist.enumerate_s"] = per_op(total(coordinator))
    m["dist.plan_s"] = per_op(
        sum(_duration(r) for r in _under(records, "ShardPlanner.plan", coordinator))
        + sum(_duration(r) for r in _under(records, "CompiledGraphCache.get", coordinator))
    )
    m["dist.upload_s"] = per_op(sum(_duration(r) for r in _under(records, "RemoteStore.add", coordinator)))
    m["dist.shard_wait_s"] = per_op(total("RemoteJob.wait"))
    m["dist.straggler_s"] = per_op(_straggler(records))
    m["dist.merge_s"] = per_op(sum(r["self"] for r in named[coordinator]))
    m["dist.attempts_per_shard"] = _ratio(_counter_total(deltas, "dist_shard_attempts_total"), shards)

    # trace
    op_spans = named["op"]
    op_wall = sum(_duration(r) for r in op_spans)
    m["trace.coverage_frac"] = _ratio(op_wall - sum(r["self"] for r in op_spans), op_wall)
    m["trace.overhead_frac"] = _ratio(untraced_rate, traced_rate) - 1.0 if traced_rate else 0.0
    return m


def span_table(records: list[dict]) -> dict[str, dict[str, float]]:
    """Count, total and self seconds per span name (the layer ledger)."""
    table: dict[str, dict[str, float]] = {}
    for r in records:
        row = table.setdefault(r["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += _duration(r)
        row["self_s"] += r["self"]
    return dict(sorted(table.items()))
