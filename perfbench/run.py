"""The repository benchmark: MULE through the library, the service and a fleet.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig1-remote --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Workloads (closed loop, load from this one process):

``fig1-library``  one caller, warm ``MiningSession.enumerate`` over the
                  Figure 1 grid (4 dataset analogs x 4 alpha).
``fig1-remote``   the same grid through ``RemoteSession.enumerate`` against
                  one ``repro-mule serve`` process, from two client threads.
``fleet-churn``   a fresh wiki-vote analog per op through
                  ``DistributedSession`` over two ``serve`` workers that
                  evict on almost every upload.

``BENCHMARK.json`` lists ``fig1-remote`` and ``fleet-churn``.  ``fig1-library``
stays runnable by name: on a noisy 2-core host its run-to-run spread of
``latency_p50_ms`` exceeded the largest bound the benchmark may set.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``: set-up time (median of several full set-ups), verified
cliques per second, op latency p50/p90, the share of ops that succeeded and
the summed peak RSS of every process.  With ``--trace 1`` it alternates
untraced and traced blocks of ops and reports the per-layer metrics; it also
writes ``perfbench/out/<workload>-trace.json`` (Chrome trace events, open in
``chrome://tracing``) and ``perfbench/out/<workload>-layers.json``.

Every op is checked against a reference outcome computed during set-up on
the python kernel; a mismatch counts as a failed op.  Before timing, the
workload's entry point must agree with the brute-force oracle on small
graphs, or the run exits with status 3.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"

#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Blocks of a traced run, alternating untraced and traced.
TRACE_BLOCKS = 6

#: Pause after switching tracing in the servers, so the signal lands first.
TOGGLE_SETTLE_SECONDS = 0.05


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-every", type=int, default=0, metavar="N",
        help="drop a record from every Nth op's outcome before checking it "
             "(self-test of the verifier; 0 = off)",
    )
    return parser.parse_args(argv)


class Tally:
    """What a block of ops did."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.cliques = 0
        self.errors: list[str] = []

    def add(self, other: "Tally") -> None:
        self.wall += other.wall
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatched += other.mismatched
        self.cliques += other.cliques
        self.errors += other.errors


def _client(workload, thread, cursors, deadline, corrupt_every, tally) -> None:
    from spans import RECORDER
    from workloads import matches

    while perf_counter() < deadline:
        index = cursors[thread]
        cursors[thread] += 1
        span = RECORDER.open("op")
        started = perf_counter()
        try:
            outcome, reference = workload.call(thread, index)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            outcome = None
            tally.errors.append(f"op {index}: {type(exc).__name__}: {exc}")
        tally.latencies.append(perf_counter() - started)
        if span is not None:
            RECORDER.close(span)
        tally.attempted += 1
        if outcome is None:
            tally.failed += 1
            continue
        if corrupt_every and index % corrupt_every == 0:
            outcome.records = outcome.records[1:]
        if matches(outcome, reference):
            tally.cliques += len(outcome.records)
        else:
            tally.failed += 1
            tally.mismatched += 1
            tally.errors.append(f"op {index}: outcome differs from its reference")


def run_block(workload, seconds: float, cursors: list[int], corrupt_every: int) -> Tally:
    """Run closed-loop clients for ``seconds``; each finishes its last op."""
    tallies = [Tally() for _ in range(workload.threads)]
    started = perf_counter()
    deadline = started + seconds
    threads = [
        threading.Thread(
            target=_client,
            args=(workload, thread, cursors, deadline, corrupt_every, tallies[thread]),
        )
        for thread in range(1, workload.threads)
    ]
    for thread in threads:
        thread.start()
    _client(workload, 0, cursors, deadline, corrupt_every, tallies[0])
    for thread in threads:
        thread.join()
    total = Tally()
    for tally in tallies:
        total.add(tally)
    total.wall = perf_counter() - started
    return total


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_context(name: str, args: argparse.Namespace) -> dict:
    from workloads import DATASET_SCALE, DATASET_SEED

    return {
        "workload": name,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "dataset_scale": DATASET_SCALE,
        "dataset_seed": DATASET_SEED,
    }


def _report_errors(name: str, tally: Tally) -> None:
    for line in tally.errors[:5]:
        print(f"perfbench: {name}: {line}", file=sys.stderr)
    if len(tally.errors) > 5:
        print(f"perfbench: {name}: ... {len(tally.errors) - 5} more", file=sys.stderr)


def measure_untraced(name: str, args: argparse.Namespace) -> tuple[dict, Tally]:
    from workloads import make_workload, vmhwm_mb

    setup_times = []
    workload = None
    try:
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.teardown()
            workload = make_workload(name, args.seed, OUT, traced=False)
            started = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - started)
        workload.preflight()
        tally = run_block(workload, args.seconds, [0] * workload.threads, args.corrupt_every)
        rss = vmhwm_mb() + sum(vmhwm_mb(server.pid) for server in workload.servers)
    finally:
        if workload is not None:
            workload.teardown()
    latencies = sorted(tally.latencies)
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    beyond = sum(1 for latency in latencies if latency > p90)
    if beyond < 10:
        print(
            f"perfbench: {name}: only {beyond} ops above p90; run longer",
            file=sys.stderr,
        )
    metrics = {
        "setup_s": statistics.median(setup_times),
        "cliques_per_s": tally.cliques / tally.wall,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "rss_peak_mb": rss,
    }
    return metrics, tally


def _snapshots(workload) -> list[dict]:
    from repro.obs import registry
    from repro.service.client import RemoteSession

    return [registry().snapshot()] + [
        RemoteSession(url).metrics() for url in workload.server_urls()
    ]


def measure_traced(name: str, args: argparse.Namespace, context: dict) -> tuple[dict, Tally]:
    import layers
    import spans
    from workloads import make_workload

    spans.install()
    recorder = spans.RECORDER
    workload = make_workload(name, args.seed, OUT, traced=True)
    traced, untraced, everything = Tally(), Tally(), Tally()
    deltas = {"counters": {}, "histograms": {}}
    cursors = [0] * workload.threads
    try:
        workload.setup()
        workload.preflight()
        for block in range(TRACE_BLOCKS):
            tracing = block % 2 == 1
            if tracing:
                before = _snapshots(workload)
                workload.set_tracing(True)
                time.sleep(TOGGLE_SETTLE_SECONDS)
                recorder.enabled = True
            tally = run_block(workload, args.seconds / TRACE_BLOCKS, cursors, args.corrupt_every)
            if tracing:
                recorder.enabled = False
                workload.set_tracing(False)
                time.sleep(TOGGLE_SETTLE_SECONDS)
                for old, new in zip(before, _snapshots(workload)):
                    layers.add_delta(deltas, layers.metric_delta(old, new))
            (traced if tracing else untraced).add(tally)
            everything.add(tally)
    finally:
        workload.teardown()
    records = list(recorder.records)
    names = {os.getpid(): "load generator"}
    for index, server in enumerate(workload.servers):
        names[server.pid] = f"serve {index}"
        records += json.loads(server.trace_out.read_text(encoding="utf-8"))
    metrics = layers.compute(
        records,
        os.getpid(),
        deltas,
        ops=traced.attempted,
        cliques=traced.cliques,
        traced_rate=traced.cliques / traced.wall,
        untraced_rate=untraced.cliques / untraced.wall,
    )
    (OUT / f"{name}-trace.json").write_text(
        json.dumps(spans.chrome_trace(records, names)), encoding="utf-8"
    )
    table = {"context": context, "metrics": metrics, "spans": layers.span_table(records)}
    (OUT / f"{name}-layers.json").write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return metrics, everything


def run_workload(name: str, args: argparse.Namespace, spec: dict) -> dict:
    context = run_context(name, args)
    print("context: " + json.dumps(context, sort_keys=True), flush=True)
    if args.trace:
        values, tally = measure_traced(name, args, context)
        wanted = spec["per_layer"]
    else:
        values, tally = measure_untraced(name, args)
        wanted = spec["end_to_end"]
    _report_errors(name, tally)
    units = {entry["name"]: entry["unit"] for entry in wanted}
    if set(values) != set(units):
        raise RuntimeError(
            f"computed metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}"
        )
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
    listing = "  ".join(f"{key}={entry['value']:.6g} {entry['unit']}" for key, entry in metrics.items())
    print(f"{name}: ops={tally.attempted} failed={tally.failed}  {listing}", flush=True)
    result = {
        "correct": tally.mismatched == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, **result}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return result


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SOURCE) + (os.pathsep + inherited if inherited else "")

    from workloads import WORKLOADS, OracleError

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    try:
        results = {name: run_workload(name, args, spec) for name in names}
    except OracleError as exc:
        print(f"perfbench: oracle pre-flight failed: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{key}": entry
                for name, result in results.items()
                for key, entry in result["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
