"""The three benchmark workloads, their servers, references and oracle.

Every workload drives MULE (``algorithm="mule"``, default kernel) through one
entry point of the stack and offers the same small interface:

``setup()``
    Generate the inputs, compute a reference outcome per input with a
    serial ``MiningSession`` on the python kernel, start and health-check
    the servers, upload the graphs and run one verified warm-up pass.
``preflight()``
    Run the oracle graphs through the workload's entry point and compare
    with ``brute_force_alpha_maximal_cliques``; raise :class:`OracleError`
    on any disagreement.
``call(thread, index)``
    One op for client thread ``thread``; returns ``(outcome, reference)``.
``teardown()``
    Stop every server the workload started, even after a failure.

Inputs depend only on the workload seed: the Figure 1 grid is fixed (the
seed picks the cell the clients start at), the fleet graphs are generated
with ``seed + op index``.
"""

from __future__ import annotations

import random
import re
import signal
import subprocess
import sys
import threading
import time
from math import nextafter
from pathlib import Path

from repro.api.request import EnumerationRequest
from repro.api.session import MiningSession
from repro.core.brute_force import brute_force_alpha_maximal_cliques
from repro.datasets.registry import load_dataset
from repro.distributed import DistributedSession, WorkerPool
from repro.errors import ReproError
from repro.service.client import RemoteSession, RemoteStore
from repro.uncertain.graph import UncertainGraph

__all__ = [
    "ALPHAS", "DATASETS", "DATASET_SCALE", "DATASET_SEED", "FLEET_ALPHA",
    "OracleError", "WORKLOADS", "make_workload", "matches", "vmhwm_mb",
]

#: The Figure 1 grid: four dataset analogs at one scale and seed, four α.
DATASETS = ("wiki-vote", "ba5000", "ca-grqc", "ppi")
ALPHAS = (0.9, 0.8, 0.0005, 0.0001)
DATASET_SCALE = 0.05
DATASET_SEED = 2015

#: fleet-churn: one wiki-vote analog per op at this α, cycling through this
#: many graphs, on two workers that keep this many graphs resident (the
#: pinned seed graph plus one upload, so every upload evicts).
FLEET_ALPHA = 0.8
FLEET_GRAPHS = 48
FLEET_WORKERS = 2
FLEET_MAX_GRAPHS = 2

#: Socket timeout of every client call: an op that takes longer fails.
CLIENT_TIMEOUT_SECONDS = 30.0

#: How long a server may take to print its URL and answer its health check.
SERVER_START_SECONDS = 60.0


class OracleError(RuntimeError):
    """An entry point disagreed with the brute-force oracle."""


def _request(alpha: float, **options: object) -> EnumerationRequest:
    return EnumerationRequest(algorithm="mule", alpha=alpha, **options)


class Reference:
    """A serial python-kernel outcome, indexed for cheap comparison."""

    def __init__(self, graph: UncertainGraph, alpha: float) -> None:
        self.outcome = MiningSession(graph).enumerate(_request(alpha, kernel="python"))
        self.by_vertices = self.outcome.records_by_vertices()


def matches(outcome, reference: Reference) -> bool:
    """``EnumerationOutcome.matches`` against a pre-indexed reference.

    Same checks — cliques with exact probabilities, α, stop reason and the
    search counters — and additionally no duplicated record.
    """
    expected = reference.outcome
    if (
        outcome.alpha != expected.alpha
        or outcome.stop_reason != expected.stop_reason
        or outcome.statistics != expected.statistics
    ):
        return False
    actual = {record.vertices: record.probability for record in outcome.records}
    return len(actual) == len(outcome.records) and actual == reference.by_vertices


def vmhwm_mb(pid: "int | str" = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# ---------------------------------------------------------------------- #
# Oracle pre-flight
# ---------------------------------------------------------------------- #
def oracle_cases(seed: int) -> list[tuple[str, UncertainGraph, float]]:
    """Small graphs (at most 12 vertices) with exactly representable products.

    Every probability is a multiple of 1/4, so clique probabilities are
    exact in binary floating point and the brute-force oracle and MULE must
    agree bit for bit, including at a threshold equal to a clique's
    probability and one ulp above it.
    """
    triangle = UncertainGraph(
        edges=[(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5), (2, 3, 0.5), (3, 4, 1.0)]
    )
    labelled = UncertainGraph(
        edges=[("a", "b", 0.75), ("b", "c", 0.75), ("a", "c", 1.0), ("c", "d", 0.25)],
        vertices=["e"],
    )
    rng = random.Random(seed)
    dense = UncertainGraph(vertices=range(12))
    for u in range(12):
        for v in range(u + 1, 12):
            if rng.random() < 0.5:
                dense.add_edge(u, v, rng.choice((0.25, 0.5, 0.75, 1.0)))
    return [
        ("empty", UncertainGraph(), 0.5),
        ("singleton", UncertainGraph(vertices=[0]), 0.5),
        ("clique-at-alpha", triangle, 0.125),
        ("clique-one-ulp-below-alpha", triangle, nextafter(0.125, 1.0)),
        ("string-labels", labelled, 0.5),
        ("random-12-a", dense, 0.5),
        ("random-12-b", dense, 0.125),
        ("random-12-c", dense, 0.03125),
    ]


def check_oracle(run, seed: int, entry_point: str) -> None:
    """Compare ``run(label, graph, alpha)`` with the oracle on every case."""
    for label, graph, alpha in oracle_cases(seed):
        expected = {
            record.vertices: record.probability
            for record in brute_force_alpha_maximal_cliques(graph, alpha).cliques
        }
        outcome = run(label, graph, alpha)
        actual = {record.vertices: record.probability for record in outcome.records}
        if actual != expected or len(outcome.records) != len(expected):
            missing = sorted(map(sorted, set(expected) - set(actual)))
            extra = sorted(map(sorted, set(actual) - set(expected)))
            raise OracleError(
                f"{entry_point} disagrees with brute_force_alpha_maximal_cliques "
                f"on oracle case {label!r} (alpha={alpha!r}): missing={missing} "
                f"extra={extra}"
            )


# ---------------------------------------------------------------------- #
# Server processes
# ---------------------------------------------------------------------- #
class Server:
    """One ``repro-mule serve --port 0 --quiet`` subprocess.

    Started through ``serve_worker.py``, which installs the span wrappers
    when ``trace_out`` is given.  The constructor only spawns the process;
    :meth:`wait_ready` parses the printed URL and waits for ``/v1/health``,
    and :meth:`stop` always reaps the process.
    """

    def __init__(self, out_dir: Path, serve_args: list[str], trace_out: Path | None) -> None:
        self.trace_out = trace_out
        self.url = ""
        command = [sys.executable, str(Path(__file__).with_name("serve_worker.py"))]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", "--port", "0", "--quiet", *serve_args]
        self._log = open(out_dir / "server.log", "ab")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, text=True
        )

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_ready(self) -> None:
        self.url = self._read_url()
        self._wait_healthy()

    def _read_url(self) -> str:
        watchdog = threading.Timer(SERVER_START_SECONDS, self.process.kill)
        watchdog.start()
        try:
            for line in self.process.stdout:
                found = re.search(r" at (http://\S+:\d+)", line)
                if found:
                    return found.group(1)
        finally:
            watchdog.cancel()
        raise RuntimeError(
            f"server exited with code {self.process.wait()} before printing its URL"
        )

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + SERVER_START_SECONDS
        client = RemoteSession(self.url)
        while True:
            try:
                if client.health(timeout=2.0).get("status") == "ok":
                    return
            except ReproError:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.02)

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)

    def stop(self) -> None:
        """Ask the server to shut down, then reap it (killing if needed)."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


def _seed_graph(out_dir: Path) -> Path:
    """A two-vertex edge list: ``serve`` needs one graph before uploads."""
    path = out_dir / "seed.edges"
    path.write_text("0 1 0.5\n", encoding="ascii")
    return path


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
class _Workload:
    name = ""
    threads = 1

    def __init__(self, seed: int, out_dir: Path, traced: bool) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.traced = traced
        self.servers: list[Server] = []

    def _spawn_servers(self, count: int, serve_args: list[str]) -> None:
        """Start ``count`` servers; they boot while set-up goes on."""
        for _ in range(count):
            index = len(self.servers)
            trace_out = (
                self.out_dir / f"{self.name}-server{index}-spans.json" if self.traced else None
            )
            self.servers.append(Server(self.out_dir, serve_args, trace_out))

    def _await_servers(self) -> None:
        for server in self.servers:
            server.wait_ready()

    def set_tracing(self, enabled: bool) -> None:
        """Switch span recording in every server (no-op when untraced)."""
        if self.traced:
            for server in self.servers:
                server.signal(signal.SIGUSR1 if enabled else signal.SIGUSR2)

    def teardown(self) -> None:
        for server in self.servers:
            server.stop()

    def server_urls(self) -> list[str]:
        return [server.url for server in self.servers]


class _Fig1(_Workload):
    """Shared setup of the two Figure 1 workloads."""

    def _grid(self) -> None:
        self.graphs = {
            name: load_dataset(name, scale=DATASET_SCALE, seed=DATASET_SEED)
            for name in DATASETS
        }
        self.cells = [(name, alpha) for name in DATASETS for alpha in ALPHAS]
        self.references = {
            (name, alpha): Reference(self.graphs[name], alpha) for name, alpha in self.cells
        }

    def _warm_up(self) -> None:
        for index in range(len(self.cells)):
            outcome, reference = self.call(0, index)
            if not matches(outcome, reference):
                raise RuntimeError(f"{self.name}: warm-up outcome {index} is wrong")

    def cell(self, thread: int, index: int) -> tuple[str, float]:
        """Clients start at different cells and walk the grid in order."""
        start = self.seed + thread * len(self.cells) // self.threads
        return self.cells[(start + index) % len(self.cells)]


class Fig1Library(_Fig1):
    name = "fig1-library"

    def setup(self) -> None:
        self._grid()
        self.sessions = {name: MiningSession(graph) for name, graph in self.graphs.items()}
        self._warm_up()

    def call(self, thread: int, index: int):
        name, alpha = self.cell(thread, index)
        outcome = self.sessions[name].enumerate(_request(alpha))
        return outcome, self.references[(name, alpha)]

    def preflight(self) -> None:
        check_oracle(
            lambda label, graph, alpha: MiningSession(graph).enumerate(_request(alpha)),
            self.seed, "MiningSession.enumerate",
        )


class Fig1Remote(_Fig1):
    name = "fig1-remote"
    threads = 2

    def setup(self) -> None:
        self._spawn_servers(1, ["--graph", str(_seed_graph(self.out_dir))])
        self._grid()
        self._await_servers()
        url = self.servers[0].url
        store = RemoteStore(url, timeout=CLIENT_TIMEOUT_SECONDS)
        for name, graph in self.graphs.items():
            store.add(graph, name=name)
        self.sessions = {
            name: RemoteSession(url, graph=name, timeout=CLIENT_TIMEOUT_SECONDS)
            for name in DATASETS
        }
        self._warm_up()

    def call(self, thread: int, index: int):
        name, alpha = self.cell(thread, index)
        outcome = self.sessions[name].enumerate(_request(alpha))
        return outcome, self.references[(name, alpha)]

    def preflight(self) -> None:
        url = self.servers[0].url
        store = RemoteStore(url, timeout=CLIENT_TIMEOUT_SECONDS)

        def run(label, graph, alpha):
            store.add(graph, name=f"oracle-{label}")
            try:
                return RemoteSession(
                    url, graph=f"oracle-{label}", timeout=CLIENT_TIMEOUT_SECONDS
                ).enumerate(_request(alpha))
            finally:
                store.remove(f"oracle-{label}")

        check_oracle(run, self.seed, "RemoteSession.enumerate")


class FleetChurn(_Workload):
    name = "fleet-churn"

    #: Graphs used only by the warm-up pass, so the measured ones stay cold.
    WARM_UP_GRAPHS = 2

    def setup(self) -> None:
        self._spawn_servers(
            FLEET_WORKERS,
            ["--graph", str(_seed_graph(self.out_dir)), "--max-graphs", str(FLEET_MAX_GRAPHS)],
        )
        count = FLEET_GRAPHS + self.WARM_UP_GRAPHS
        self.graphs = [
            load_dataset("wiki-vote", scale=DATASET_SCALE, seed=self.seed + index)
            for index in range(count)
        ]
        self.references = [Reference(graph, FLEET_ALPHA) for graph in self.graphs]
        self._await_servers()
        self.pool = WorkerPool(self.server_urls())
        for index in range(FLEET_GRAPHS, count):
            outcome, reference = self._run(index)
            if not matches(outcome, reference):
                raise RuntimeError(f"{self.name}: warm-up outcome {index} is wrong")

    def _run(self, index: int):
        with DistributedSession(
            self.graphs[index], self.pool, timeout=CLIENT_TIMEOUT_SECONDS
        ) as session:
            outcome = session.enumerate(_request(FLEET_ALPHA))
        return outcome, self.references[index]

    def call(self, thread: int, index: int):
        return self._run(index % FLEET_GRAPHS)

    def preflight(self) -> None:
        def run(label, graph, alpha):
            with DistributedSession(graph, self.pool, timeout=CLIENT_TIMEOUT_SECONDS) as session:
                return session.enumerate(_request(alpha))

        check_oracle(run, self.seed, "DistributedSession.enumerate")

    def teardown(self) -> None:
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.close()
        super().teardown()


WORKLOADS = {cls.name: cls for cls in (Fig1Library, Fig1Remote, FleetChurn)}


def make_workload(name: str, seed: int, out_dir: Path, traced: bool) -> _Workload:
    return WORKLOADS[name](seed, out_dir, traced)
