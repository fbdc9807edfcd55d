"""The native vector kernel: its build, its fallback, its cache and its steps.

``repro.core.engine.backends.native`` compiles ``_mule.c`` on the first
kernel resolution into ``$XDG_CACHE_HOME/repro-mule`` and drives it one
step at a time.  These tests pin the edges of that machinery:

* the build happens at the first resolution, never at ``import repro``;
* without a compiler (or with a broken one, or an unsafe cache) ``auto``
  resolves to the python kernel and an explicit ``vector`` request is a
  :class:`ParameterError` naming the cause;
* concurrent first builds leave one loadable library, and concurrent runs
  on one compiled graph stay bit-identical to a serial run;
* every yield shows the python kernel's counters, across step and batch
  boundaries and when the stream is closed mid-batch.

Kernel parity on fixed and random graphs lives in ``test_backends.py`` and
``tests/property/test_property_kernel_parity.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.api import EnumerationRequest, MiningSession
from repro.core.engine import (
    LargeCliqueStrategy,
    MuleStrategy,
    RunControls,
    RunReport,
    TopKStrategy,
    compile_graph,
    resolve_kernel,
    run_search,
    run_vector_search,
)
from repro.core.engine.backends import native
from repro.core.result import SearchStatistics
from repro.errors import ParameterError
from repro.uncertain.graph import UncertainGraph

SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture
def fresh_library(monkeypatch, tmp_path):
    """A process state that has not decided availability, over an empty cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_LIBRARY", native._Library())
    return tmp_path / "repro-mule"


@pytest.fixture
def no_compiler(fresh_library, monkeypatch):
    monkeypatch.setattr(native, "_compiler", lambda: None)
    return fresh_library


def _libraries(cache: Path) -> list[str]:
    return sorted(path.name for path in cache.iterdir() if path.suffix == ".so")


def _triangles(count: int) -> UncertainGraph:
    """Disjoint triangles: one emission each at α = 0.3, many per batch."""
    graph = UncertainGraph()
    for c in range(count):
        a, b, d = 3 * c, 3 * c + 1, 3 * c + 2
        for u, v in ((a, b), (a, d), (b, d)):
            graph.add_edge(u, v, 0.5 + 0.5 * ((u + v) % 3) / 3)
    return graph


def _dense(random_graph_factory, n):
    """A random graph compiled at α = 0.05: about 300 (n = 40) or 1,300
    (n = 60) cliques, several output batches' worth."""
    return compile_graph(random_graph_factory(n, density=0.4, seed=11), alpha=0.05)


def _snapshots(runner, compiled, alpha, strategy, controls=None, take=None):
    """Each yield with the statistics and report the caller sees at it."""
    statistics = SearchStatistics()
    report = RunReport()
    stream = runner(
        compiled, alpha, strategy,
        statistics=statistics, controls=controls, report=report,
    )
    seen = []
    for pair in stream:
        seen.append(
            (pair, SearchStatistics(**vars(statistics)), report.frames_expanded,
             report.cliques_emitted)
        )
        if take is not None and len(seen) == take:
            stream.close()
            break
    return seen, statistics, report


class TestLazyBuild:
    def test_import_builds_nothing_and_resolution_builds(self, tmp_path):
        script = (
            "import repro, os, sys\n"
            "cache = os.path.join(sys.argv[1], 'repro-mule')\n"
            "assert not os.path.exists(cache), os.listdir(cache)\n"
            "from repro.core.engine import MuleStrategy, resolve_kernel\n"
            "assert resolve_kernel('auto', MuleStrategy()) == 'vector'\n"
            "print(sorted(os.listdir(cache)))\n"
        )
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert _libraries(tmp_path / "repro-mule") != []
        assert oct((tmp_path / "repro-mule").stat().st_mode & 0o777) == "0o700"

    def test_python_resolution_builds_nothing(self, fresh_library):
        assert resolve_kernel("python", MuleStrategy()) == "python"
        assert not fresh_library.exists()


class TestUnavailable:
    def test_auto_resolves_to_python(self, no_compiler):
        assert resolve_kernel("auto", MuleStrategy()) == "python"
        assert resolve_kernel("auto", LargeCliqueStrategy(3)) == "python"
        assert not native.available()

    def test_explicit_vector_names_the_cause(self, no_compiler):
        with pytest.raises(ParameterError, match="no C compiler"):
            resolve_kernel("vector", MuleStrategy())
        with pytest.raises(ParameterError, match="no C compiler"):
            run_vector_search(
                compile_graph(UncertainGraph(vertices=[1])), 0.5, MuleStrategy()
            )

    def test_mule_request_still_returns_the_python_outcome(
        self, no_compiler, two_cliques
    ):
        session = MiningSession(two_cliques)
        auto = session.enumerate(EnumerationRequest(algorithm="mule", alpha=0.3))
        python = session.enumerate(
            EnumerationRequest(algorithm="mule", alpha=0.3, kernel="python")
        )
        assert auto.records and auto.records == python.records
        assert [r.probability for r in auto.records] == [
            r.probability for r in python.records
        ]
        assert auto.statistics == python.statistics
        assert auto.stop_reason == python.stop_reason
        with pytest.raises(ParameterError, match="unavailable"):
            session.enumerate(
                EnumerationRequest(algorithm="mule", alpha=0.3, kernel="vector")
            )

    def test_availability_is_decided_once(self, fresh_library, monkeypatch):
        assert native.available()
        monkeypatch.setattr(native, "_compiler", lambda: None)
        assert native.available()
        assert resolve_kernel("auto", MuleStrategy()) == "vector"

    def test_compiler_error_tail_is_the_reason(
        self, fresh_library, monkeypatch, tmp_path
    ):
        broken = tmp_path / "broken.c"
        broken.write_text("int mule_step(void) { return undeclared_name; }\n")
        monkeypatch.setattr(native, "SOURCE", broken)
        assert resolve_kernel("auto", MuleStrategy()) == "python"
        with pytest.raises(
            ParameterError, match="(?s)C compiler failed.*undeclared_name"
        ):
            resolve_kernel("vector", MuleStrategy())
        assert _libraries(fresh_library) == []
        leftovers = [p for p in fresh_library.iterdir() if p.name.startswith(".mule-")]
        assert leftovers == []


class TestUnsafeCache:
    def test_world_writable_directory_is_refused(self, fresh_library):
        fresh_library.mkdir(mode=0o700)
        fresh_library.chmod(0o777)
        assert not native.available()
        assert "unsafe kernel cache" in native.unavailable_reason()
        assert _libraries(fresh_library) == []

    def test_group_writable_library_is_refused(self, fresh_library, monkeypatch):
        assert native.available()
        (library,) = _libraries(fresh_library)
        (fresh_library / library).chmod(0o770)
        monkeypatch.setattr(native, "_LIBRARY", native._Library())
        assert not native.available()
        assert "unsafe kernel cache" in native.unavailable_reason()
        with pytest.raises(ParameterError, match="unsafe kernel cache"):
            resolve_kernel("vector", TopKStrategy())


class TestConcurrency:
    def test_concurrent_first_builds_leave_one_loadable_library(self, tmp_path):
        # Two fleet workers starting on one machine: two processes build at
        # once into one empty cache.
        script = (
            "from repro.core.engine.backends import native\n"
            "assert native.available(), native.unavailable_reason()\n"
        )
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", script], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        for process in processes:
            _, err = process.communicate(timeout=300)
            assert process.returncode == 0, err
        cache = tmp_path / "repro-mule"
        assert len(_libraries(cache)) == 1
        assert sorted(path.name for path in cache.iterdir()) == _libraries(cache)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr

    def test_concurrent_runs_match_a_serial_run(self, random_graph_factory):
        compiled = _dense(random_graph_factory, 60)
        serial = _snapshots(run_vector_search, compiled, 0.05, MuleStrategy())
        assert len(serial[0]) > native._BATCH_CLIQUES
        results: list = [None] * 4
        barrier = threading.Barrier(4)

        def run(k):
            barrier.wait(timeout=10)
            results[k] = _snapshots(run_vector_search, compiled, 0.05, MuleStrategy())

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        for seen, statistics, report in results:
            assert seen == serial[0]
            assert statistics == serial[1]
            assert report == serial[2]


class TestSteps:
    @pytest.mark.parametrize(
        "strategy",
        [
            MuleStrategy,
            lambda: TopKStrategy(min_size=3),
            lambda: LargeCliqueStrategy(3),
        ],
    )
    @pytest.mark.parametrize("check_every", [1, 7, 256])
    def test_counters_at_every_yield(self, strategy, check_every):
        # 300 emissions fill more than one 256-clique batch, and the tight
        # check windows split the walk into many steps.
        compiled = compile_graph(_triangles(300), alpha=0.3)
        controls = RunControls(check_every_frames=check_every)
        python = _snapshots(run_search, compiled, 0.3, strategy(), controls)
        vector = _snapshots(run_vector_search, compiled, 0.3, strategy(), controls)
        assert vector[0] == python[0]
        assert vector[1] == python[1]
        assert vector[2] == python[2]

    @pytest.mark.parametrize(
        "cliques, labels", [(256, 4096), (4, 64), (256, 5), (1, 0)]
    )
    def test_output_buffer_boundaries(
        self, monkeypatch, random_graph_factory, cliques, labels
    ):
        # A step ends when its next clique might not fit, by count or by
        # labels: the default buffers fill five times over 1,300 cliques,
        # and shrunken ones make every such boundary frequent.
        monkeypatch.setattr(native, "_BATCH_CLIQUES", cliques)
        monkeypatch.setattr(native, "_BATCH_LABELS", labels)
        compiled = _dense(random_graph_factory, 60)
        python = _snapshots(run_search, compiled, 0.05, MuleStrategy())
        vector = _snapshots(run_vector_search, compiled, 0.05, MuleStrategy())
        assert len(python[0]) > 4 * 256
        assert vector == python

    @pytest.mark.parametrize(
        "strategy, controls",
        [
            (lambda: TopKStrategy(min_size=2**40), None),
            (lambda: LargeCliqueStrategy(2**33), None),
            (MuleStrategy, RunControls(max_cliques=2**70)),
            (
                MuleStrategy,
                RunControls(time_budget_seconds=0.0, check_every_frames=2**40),
            ),
        ],
    )
    def test_limits_beyond_the_c_integer_range(
        self, random_graph_factory, strategy, controls
    ):
        # Values a C int cannot hold must keep their meaning, not wrap.
        compiled = _dense(random_graph_factory, 40)
        python = _snapshots(run_search, compiled, 0.05, strategy(), controls)
        vector = _snapshots(run_vector_search, compiled, 0.05, strategy(), controls)
        assert vector == python

    def test_a_clique_of_maximum_degree_plus_one(self):
        # The output buffers are sized from the graph: the largest possible
        # clique (every vertex of a complete graph) must fit.
        graph = UncertainGraph()
        for u in range(40):
            for v in range(u + 1, 40):
                graph.add_edge(u, v, 1.0)
        compiled = compile_graph(graph, alpha=0.5)
        controls = RunControls(max_cliques=1)
        python = _snapshots(run_search, compiled, 0.5, MuleStrategy(), controls)
        vector = _snapshots(run_vector_search, compiled, 0.5, MuleStrategy(), controls)
        assert vector == python
        assert vector[0][0][0] == (tuple(range(40)), 1.0)

    @pytest.mark.parametrize("take", [1, 5, 300])
    def test_closed_mid_batch_keeps_the_counters_of_the_last_yield(
        self, random_graph_factory, take
    ):
        compiled = _dense(random_graph_factory, 60)
        python = _snapshots(run_search, compiled, 0.05, MuleStrategy(), take=take)
        vector = _snapshots(
            run_vector_search, compiled, 0.05, MuleStrategy(), take=take
        )
        assert vector == python
        assert vector[2].cliques_emitted == take - 1
