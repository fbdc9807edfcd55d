"""Tests for the ``repro-mule`` command-line interface."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli.main import build_parser, main
from repro.core.engine import KERNELS
from repro.uncertain.graph import UncertainGraph
from repro.uncertain.io import write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    graph = UncertainGraph(
        edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9), (3, 4, 0.4)]
    )
    path = tmp_path / "toy.edges"
    write_edge_list(graph, path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_enumerate_requires_alpha(self, graph_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["enumerate", "--input", str(graph_file)])

    def test_input_and_dataset_mutually_exclusive(self, graph_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stats", "--input", str(graph_file), "--dataset", "ppi"]
            )

    def test_every_kernel_flag_offers_the_engine_kernels(self):
        parser = build_parser()
        (subcommands,) = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        flags = {
            name: action.choices
            for name, subparser in subcommands.choices.items()
            for action in subparser._actions
            if "--kernel" in action.option_strings
        }
        assert set(flags) == {"enumerate", "compare"}
        assert all(tuple(choices) == KERNELS for choices in flags.values())


class TestEnumerateCommand:
    def test_basic_run(self, graph_file, capsys):
        exit_code = main(["enumerate", "--input", str(graph_file), "--alpha", "0.5"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "2 alpha-maximal cliques" in out
        assert "1,2,3" in out

    def test_quiet_suppresses_listing(self, graph_file, capsys):
        main(["enumerate", "--input", str(graph_file), "--alpha", "0.5", "--quiet"])
        out = capsys.readouterr().out
        assert "1,2,3" not in out

    def test_json_output(self, graph_file, tmp_path, capsys):
        output = tmp_path / "cliques.json"
        main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--quiet",
                "--output",
                str(output),
            ]
        )
        payload = json.loads(output.read_text(encoding="utf-8"))
        assert payload["num_cliques"] == 2
        assert sorted(payload["cliques"][0]["vertices"]) == payload["cliques"][0]["vertices"]

    @pytest.mark.parametrize("kernel", ["auto", "python", "vector"])
    def test_kernel_flag_runs_identically(self, graph_file, capsys, kernel):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--kernel",
                kernel,
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "2 alpha-maximal cliques" in out
        assert "1,2,3" in out

    def test_vector_kernel_rejected_for_dfs_noip(self, graph_file, capsys):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--algorithm",
                "dfs-noip",
                "--kernel",
                "vector",
            ]
        )
        assert exit_code == 2
        assert "--kernel=vector" in capsys.readouterr().err

    def test_unknown_kernel_rejected_by_parser(self, graph_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "enumerate",
                    "--input",
                    str(graph_file),
                    "--alpha",
                    "0.5",
                    "--kernel",
                    "simd",
                ]
            )

    def test_dfs_noip_algorithm(self, graph_file, capsys):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--algorithm",
                "dfs-noip",
                "--quiet",
            ]
        )
        assert exit_code == 0
        assert "dfs-noip" in capsys.readouterr().out

    def test_max_cliques_truncates_output(self, graph_file, capsys):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--max-cliques",
                "1",
                "--quiet",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "1 alpha-maximal cliques" in out
        assert "truncated" in out
        assert "max-cliques" in out

    def test_time_budget_flag_accepted(self, graph_file, capsys):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--time-budget",
                "60",
                "--quiet",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "2 alpha-maximal cliques" in out
        assert "truncated" not in out

    @pytest.mark.parametrize("budget", ["-1", "nan"])
    def test_invalid_time_budget_rejected(self, graph_file, capsys, budget):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--time-budget",
                budget,
            ]
        )
        assert exit_code == 1
        assert "time_budget_seconds must be non-negative" in capsys.readouterr().err

    def test_stop_reason_in_json_output(self, graph_file, tmp_path):
        output = tmp_path / "truncated.json"
        main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--max-cliques",
                "1",
                "--quiet",
                "--output",
                str(output),
            ]
        )
        payload = json.loads(output.read_text(encoding="utf-8"))
        assert payload["stop_reason"] == "max-cliques"
        assert payload["num_cliques"] == 1

    def test_large_mule_requires_min_size(self, graph_file, capsys):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--algorithm",
                "large-mule",
            ]
        )
        assert exit_code == 2
        assert "min-size" in capsys.readouterr().err

    def test_large_mule_with_min_size(self, graph_file, capsys):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--algorithm",
                "large-mule",
                "--min-size",
                "3",
                "--quiet",
            ]
        )
        assert exit_code == 0
        assert "1 alpha-maximal cliques" in capsys.readouterr().out

    def test_invalid_alpha_reports_error(self, graph_file, capsys):
        exit_code = main(["enumerate", "--input", str(graph_file), "--alpha", "0"])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_dataset_input(self, capsys):
        exit_code = main(
            [
                "enumerate",
                "--dataset",
                "ba5000",
                "--scale",
                "0.01",
                "--alpha",
                "0.5",
                "--quiet",
            ]
        )
        assert exit_code == 0


class TestCompareCommand:
    def test_compare_agreement(self, graph_file, capsys):
        exit_code = main(["compare", "--input", str(graph_file), "--alpha", "0.5"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "MULE:" in out
        assert "DFS-NOIP:" in out
        assert "outputs agree" in out

    def test_compare_on_dataset(self, capsys):
        exit_code = main(
            ["compare", "--dataset", "ba5000", "--scale", "0.01", "--alpha", "0.1"]
        )
        assert exit_code == 0
        assert "speed-up" in capsys.readouterr().out

    def test_compare_with_vector_kernel(self, graph_file, capsys):
        # --kernel steers the MULE side only; DFS-NOIP stays on the python
        # kernel and the outputs must still agree.
        exit_code = main(
            [
                "compare",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--kernel",
                "vector",
            ]
        )
        assert exit_code == 0
        assert "outputs agree" in capsys.readouterr().out


class TestCoreCommand:
    def test_core_decomposition_output(self, graph_file, capsys):
        exit_code = main(["core", "--input", str(graph_file), "--eta", "0.5"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "core decomposition" in out
        assert "core number" in out

    def test_core_requires_valid_eta(self, graph_file, capsys):
        exit_code = main(["core", "--input", str(graph_file), "--eta", "0"])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_fast_mule_algorithm_choice(self, graph_file, capsys):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--algorithm",
                "fast-mule",
                "--quiet",
            ]
        )
        assert exit_code == 0
        assert "fast-mule" in capsys.readouterr().out


class TestOtherCommands:
    def test_stats(self, graph_file, capsys):
        assert main(["stats", "--input", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "vertices:" in out and "edges:" in out
        assert "expected edges:" in out

    def test_generate(self, tmp_path, capsys):
        output = tmp_path / "generated.edges"
        exit_code = main(
            [
                "generate",
                "--dataset",
                "ba5000",
                "--scale",
                "0.01",
                "--seed",
                "7",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        assert output.exists()
        assert "n=" in capsys.readouterr().out

    def test_bound(self, capsys):
        assert main(["bound", "--vertices", "6"]) == 0
        out = capsys.readouterr().out
        assert "9" in out  # Moon–Moser for n = 6
        assert "20" in out  # C(6, 3)

    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "ppi" in out
        assert "ba10000" in out


class TestServeCommand:
    def test_parser_defaults(self, graph_file):
        args = build_parser().parse_args(["serve", "--input", str(graph_file)])
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.max_workers is None
        assert not args.quiet

    def test_invalid_max_workers_rejected(self, graph_file, capsys):
        exit_code = main(
            ["serve", "--input", str(graph_file), "--max-workers", "0"]
        )
        assert exit_code == 2
        assert "--max-workers" in capsys.readouterr().err

    def test_serve_starts_and_answers(self, graph_file, monkeypatch, capsys):
        # Swap the blocking serve loop for a single remote round-trip so the
        # command path (graph load → server construction → close) runs end
        # to end inside the test process.
        import importlib

        from repro.api import EnumerationRequest
        from repro.service import RemoteSession

        # ``repro.cli.main`` the module is shadowed by ``repro.cli.main``
        # the function on attribute access, so resolve it explicitly.
        cli_main = importlib.import_module("repro.cli.main")

        outcomes = []

        def probe_instead_of_blocking(server):
            server.start()
            remote = RemoteSession(server.url)
            outcomes.append(
                remote.enumerate(EnumerationRequest(algorithm="mule", alpha=0.5))
            )

        monkeypatch.setattr(
            cli_main.MiningServer, "serve_forever", probe_instead_of_blocking
        )
        exit_code = main(
            ["serve", "--input", str(graph_file), "--port", "0", "--quiet"]
        )
        assert exit_code == 0
        assert outcomes[0].num_cliques == 2
        out = capsys.readouterr().out
        assert "serving 1 graph(s)" in out
        assert "/v1/enumerate" in out

    def test_serve_names_every_route_in_the_table(self, graph_file, monkeypatch, capsys):
        # The banner is read from the route table, so it names every route
        # with the query parameters it reads, as docs/service.md does.
        import importlib
        import re

        from repro.service import server as server_module

        cli_main = importlib.import_module("repro.cli.main")
        monkeypatch.setattr(cli_main.MiningServer, "serve_forever", lambda server: None)
        assert main(["serve", "--input", str(graph_file), "--port", "0", "--quiet"]) == 0
        (line,) = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("endpoints: ")
        ]
        entries = line.removeprefix("endpoints: ").removesuffix("  (Ctrl-C to stop)")
        entries = entries.split("  ")
        routes = server_module._ROUTES
        assert len(entries) == len(routes) == 16
        for entry, route in zip(entries, routes):
            head, _, query = entry.partition("[")
            assert head == f"{route.method} {route.template}"
            assert re.findall(r"[?&](\w+)=", query) == list(route.query)
        assert "GET /v1/metrics[?format=]" in entries


class TestMultiGraphServe:
    def test_serve_two_datasets_one_process(self, monkeypatch, capsys):
        """The acceptance command shape: serve --dataset ppi --dataset dblp
        (alias of dblp10), both answerable over v2 by name."""
        import importlib

        from repro.api import EnumerationRequest, MiningSession
        from repro.datasets.registry import load_dataset
        from repro.service import connect

        cli_main = importlib.import_module("repro.cli.main")
        checked = []

        def probe_instead_of_blocking(server):
            server.start()
            remote = connect(server.url)
            names = {info.name for info in remote.list()}
            assert names == {"ppi", "dblp10"}
            for name, scale in (("ppi", 0.01), ("dblp10", 0.00005)):
                outcome = remote.session(name).enumerate(
                    EnumerationRequest(algorithm="mule", alpha=0.5)
                )
                local = MiningSession(
                    load_dataset(name, scale=scale, seed=2015)
                ).enumerate(EnumerationRequest(algorithm="mule", alpha=0.5))
                outcome.assert_matches(local)
            checked.append(True)

        monkeypatch.setattr(
            cli_main.MiningServer, "serve_forever", probe_instead_of_blocking
        )
        exit_code = main(
            [
                "serve",
                "--dataset",
                "ppi:0.01",
                "--dataset",
                "dblp:0.00005",
                "--port",
                "0",
                "--quiet",
            ]
        )
        assert exit_code == 0
        assert checked
        out = capsys.readouterr().out
        assert "serving 2 graph(s)" in out
        assert "default graph (v1 surface): ppi" in out

    def test_serve_requires_a_source(self, capsys):
        exit_code = main(["serve", "--port", "0"])
        assert exit_code == 2
        assert "nothing to serve" in capsys.readouterr().err

    def test_serve_rejects_bad_dataset_scale(self, capsys):
        exit_code = main(["serve", "--dataset", "ppi:huge", "--port", "0"])
        assert exit_code == 1
        assert "invalid dataset scale" in capsys.readouterr().err


class TestRemoteCommands:
    @pytest.fixture()
    def server(self, graph_file):
        from repro.service import MiningServer
        from repro.uncertain.io import read_edge_list

        graph = read_edge_list(graph_file, vertex_type=str)
        store_graph = UncertainGraph(edges=[("p", "q", 0.9), ("q", "r", 0.8)])
        from repro.api import GraphStore

        store = GraphStore()
        store.add(graph, name="toy", pin=True)
        store.add(store_graph, name="other", pin=True)
        with MiningServer(store, port=0) as srv:
            yield srv

    def test_enumerate_remote_default_graph(self, server, capsys):
        exit_code = main(
            ["enumerate", "--remote", server.url, "--alpha", "0.5", "--quiet"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "2 alpha-maximal cliques" in out
        assert "n=4, m=4" in out

    def test_enumerate_remote_named_graph(self, server, capsys):
        exit_code = main(
            [
                "enumerate",
                "--remote",
                server.url,
                "--graph",
                "other",
                "--alpha",
                "0.5",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "n=3, m=2" in out

    def test_compare_remote(self, server, capsys):
        exit_code = main(
            ["compare", "--remote", server.url, "--graph", "toy", "--alpha", "0.5"]
        )
        assert exit_code == 0
        assert "outputs agree" in capsys.readouterr().out

    def test_remote_conflicts_with_local_input(self, server, graph_file, capsys):
        exit_code = main(
            [
                "enumerate",
                "--remote",
                server.url,
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
            ]
        )
        assert exit_code == 2
        assert "--remote cannot be combined" in capsys.readouterr().err

    def test_graph_flag_requires_remote(self, graph_file, capsys):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--graph",
                "toy",
                "--alpha",
                "0.5",
            ]
        )
        assert exit_code == 2
        assert "--graph NAME requires --remote" in capsys.readouterr().err

    def test_enumerate_requires_some_source(self, capsys):
        exit_code = main(["enumerate", "--alpha", "0.5"])
        assert exit_code == 2
        assert "one of --input, --dataset or --remote" in capsys.readouterr().err


class TestParallelEnumeration:
    def test_workers_flag_runs_parallel_mule(self, graph_file, capsys):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--workers",
                "2",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "parallel-mule: 2 alpha-maximal cliques" in out
        assert "1,2,3" in out

    def test_workers_one_stays_serial(self, graph_file, capsys):
        exit_code = main(
            ["enumerate", "--input", str(graph_file), "--alpha", "0.5", "--workers", "1"]
        )
        assert exit_code == 0
        assert "mule: 2 alpha-maximal cliques" in capsys.readouterr().out

    def test_workers_rejected_for_unsupported_algorithm(self, graph_file, capsys):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--algorithm",
                "dfs-noip",
                "--workers",
                "2",
            ]
        )
        assert exit_code == 2
        assert "--workers" in capsys.readouterr().err

    def test_non_positive_workers_rejected(self, graph_file, capsys):
        exit_code = main(
            ["enumerate", "--input", str(graph_file), "--alpha", "0.5", "--workers", "0"]
        )
        assert exit_code == 2
        assert "--workers" in capsys.readouterr().err

    def test_num_shards_requires_workers_url(self, graph_file, capsys):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--num-shards",
                "4",
            ]
        )
        assert exit_code == 2
        assert "--num-shards requires --workers-url" in capsys.readouterr().err

    def test_workers_with_run_controls(self, graph_file, capsys):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--workers",
                "2",
                "--max-cliques",
                "1",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "1 alpha-maximal cliques" in out
        assert "truncated (max-cliques)" in out


@pytest.fixture
def worker_fleet():
    """Two empty in-process servers for --workers-url / fleet tests."""
    from repro.api import GraphStore
    from repro.service import MiningServer

    servers = [
        MiningServer(GraphStore(), port=0, quiet=True).start() for _ in range(2)
    ]
    yield servers
    for server in servers:
        server.close()


class TestDistributedEnumeration:
    def fan_out_flags(self, fleet):
        flags = []
        for server in fleet:
            flags += ["--workers-url", server.url]
        return flags

    def test_workers_url_fans_out(self, worker_fleet, graph_file, capsys):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                *self.fan_out_flags(worker_fleet),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "distributed-mule: 2 alpha-maximal cliques" in out
        assert "1,2,3" in out

    def test_workers_url_with_num_shards(self, worker_fleet, graph_file, capsys):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--num-shards",
                "3",
                "--quiet",
                *self.fan_out_flags(worker_fleet),
            ]
        )
        assert exit_code == 0
        assert "distributed-mule: 2 alpha" in capsys.readouterr().out

    def test_workers_url_conflicts_with_remote(
        self, worker_fleet, graph_file, capsys
    ):
        exit_code = main(
            [
                "enumerate",
                "--remote",
                worker_fleet[0].url,
                "--alpha",
                "0.5",
                "--workers-url",
                worker_fleet[1].url,
            ]
        )
        assert exit_code == 2
        assert "--workers-url cannot be combined" in capsys.readouterr().err

    def test_workers_url_conflicts_with_workers(self, graph_file, capsys):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--workers",
                "2",
                "--workers-url",
                "http://127.0.0.1:1",
            ]
        )
        assert exit_code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_workers_url_rejected_for_unsupported_algorithm(
        self, graph_file, capsys
    ):
        exit_code = main(
            [
                "enumerate",
                "--input",
                str(graph_file),
                "--alpha",
                "0.5",
                "--algorithm",
                "dfs-noip",
                "--workers-url",
                "http://127.0.0.1:1",
            ]
        )
        assert exit_code == 2
        assert "--workers-url" in capsys.readouterr().err

    def test_workers_url_requires_local_source(self, capsys):
        exit_code = main(
            [
                "enumerate",
                "--alpha",
                "0.5",
                "--workers-url",
                "http://127.0.0.1:1",
            ]
        )
        assert exit_code == 2
        assert "requires a local --input or --dataset" in capsys.readouterr().err


class TestFleetCommand:
    def test_fleet_requires_a_worker(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet"])

    def test_fleet_reports_healthy_workers(self, worker_fleet, capsys):
        args = ["fleet"]
        for server in worker_fleet:
            args += ["--workers-url", server.url]
        exit_code = main(args)
        assert exit_code == 0
        out = capsys.readouterr().out
        # Only the worker lines: the fleet counters below them carry
        # process-wide series (worker transitions among them) that other
        # in-process fleets moved too.
        lines = {line.split()[0]: line.split() for line in out.splitlines() if line}
        for server in worker_fleet:
            assert lines[server.url][1] == "healthy"
        assert "2/2 worker(s) usable" in out

    def test_fleet_flags_unreachable_worker(self, worker_fleet, capsys):
        exit_code = main(
            [
                "fleet",
                "--workers-url",
                worker_fleet[0].url,
                "--workers-url",
                "http://127.0.0.1:1",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "healthy" in out
        assert "dead" in out
        assert "1/2 worker(s) usable" in out

    def test_fleet_with_no_usable_worker_fails(self, capsys):
        exit_code = main(["fleet", "--workers-url", "http://127.0.0.1:1"])
        assert exit_code == 1
        assert "0/1 worker(s) usable" in capsys.readouterr().out

    def test_fleet_sums_counters_across_workers(self, worker_fleet, capsys):
        args = ["fleet"]
        for server in worker_fleet:
            args += ["--workers-url", server.url]
        exit_code = main(args)
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "fleet counters (summed across usable workers):" in out
        # The fleet probe itself hits every worker at least once.
        assert "http_requests_total" in out

    def test_fleet_totals_are_per_worker_sums(self, worker_fleet, capsys):
        from repro.api import EnumerationRequest
        from repro.uncertain.graph import UncertainGraph

        triangle = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9)])
        for _ in range(3):
            worker_fleet[0].scheduler.run(
                EnumerationRequest(algorithm="mule", alpha=0.5), graph=triangle
            )
        args = ["fleet"]
        for server in worker_fleet:
            args += ["--workers-url", server.url]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  sched_jobs_submitted_total = 3" in lines


class TestMetricsCommand:
    def test_metrics_requires_a_url(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metrics"])

    def test_metrics_json(self, worker_fleet, capsys):
        exit_code = main(["metrics", worker_fleet[0].url])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"counters", "gauges", "histograms"}

    def test_metrics_prometheus(self, worker_fleet, capsys):
        exit_code = main(
            ["metrics", worker_fleet[0].url, "--format", "prometheus"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "# TYPE http_requests_total counter" in out

    def test_metrics_unreachable_server_fails(self, capsys):
        exit_code = main(["metrics", "http://127.0.0.1:1"])
        assert exit_code == 1
