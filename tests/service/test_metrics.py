"""Observability integration tests: ``/v1/metrics``, parity, determinism.

Each server publishes its scheduler, job, cache-lookup and HTTP series on
its own registry, so those are asserted absolutely on a fresh server.
The process-wide series (``engine_*``, ``cache_compile_seconds``,
``dist_*``) accumulate across every test in the process, so assertions
on them are written against *deltas* (snapshot before, act, snapshot
after) or against structural invariants — never against absolute totals.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import EnumerationRequest, GraphStore, MiningSession
from repro.errors import FormatError
from repro.generators.erdos_renyi import random_uncertain_graph
from repro.obs import registry as obs_registry
from repro.service import MiningServer, RemoteSession, RemoteStore, codec
from repro.tools.check.rules.metrics_discipline import _LAYER_PREFIXES, _NAME_RE

REQUEST = EnumerationRequest(algorithm="mule", alpha=0.5)


@pytest.fixture(scope="module")
def graph():
    return random_uncertain_graph(14, 0.5, rng=random.Random(21))


@pytest.fixture()
def server(graph):
    with MiningServer(graph, port=0) as srv:
        yield srv


@pytest.fixture()
def remote(server):
    return RemoteSession(server.url)


def settle(server, received: int) -> None:
    """Wait until ``received`` POST/DELETE requests are counted.

    A request is counted once its response is written, so a client can
    see the response a moment before the server counts it.
    """
    deadline = time.monotonic() + 10.0
    while server.stats_payload()["http"]["received"] < received:
        assert time.monotonic() < deadline, "requests were never counted"
        time.sleep(0.001)


def get_raw(server, path: str):
    """GET raw bytes, returning (status, content-type, body)."""
    try:
        with urllib.request.urlopen(server.url + path, timeout=30) as response:
            return response.status, response.headers["Content-Type"], response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers["Content-Type"], exc.read()


class TestMetricsEndpoint:
    def test_json_payload_shape(self, server, remote):
        remote.enumerate(EnumerationRequest(algorithm="mule", alpha=0.5))
        status, content_type, body = get_raw(server, "/v1/metrics")
        assert status == 200
        assert content_type.startswith("application/json")
        payload = json.loads(body)
        assert payload["kind"] == "metrics"
        snapshot = codec.metrics_from_wire(payload)
        counters = snapshot["counters"]
        assert any(key.startswith("engine_runs_total") for key in counters)
        assert any(key.startswith("cache_lookups_total{") for key in counters)
        assert any(key.startswith("http_requests_total{") for key in counters)
        assert "sched_queue_depth" in snapshot["gauges"]
        enumerate_series = [
            data
            for key, data in snapshot["histograms"].items()
            if key.startswith("http_request_seconds{")
            and "endpoint=/v1/enumerate" in key
        ]
        assert enumerate_series, sorted(snapshot["histograms"])
        (series,) = enumerate_series
        assert series["count"] >= 1
        assert series["p50"] <= series["p99"]
        assert len(series["counts"]) == len(series["bounds"]) + 1

    def test_cache_lookups_are_the_cache_counters(self, graph, server, remote):
        remote.sweep([0.2, 0.3, 0.4])
        counters = remote.metrics()["counters"]
        info = server.scheduler.cache_info()
        assert info.compilations >= 1
        assert counters["cache_lookups_total{outcome=hit}"] == info.hits
        assert counters["cache_lookups_total{outcome=derive}"] == info.derivations
        assert counters["cache_lookups_total{outcome=compile}"] == info.compilations
        # Per-graph lookups live in /v1/stats, which drops an evicted graph.
        per_graph = remote.stats()["graphs"][graph.fingerprint()]["cache"]
        assert per_graph["compilations"] == info.compilations

    def test_prometheus_format(self, server, remote):
        remote.enumerate(EnumerationRequest(algorithm="mule", alpha=0.5))
        status, content_type, body = get_raw(server, "/v1/metrics?format=prometheus")
        assert status == 200
        assert content_type.startswith("text/plain")
        text = body.decode("utf-8")
        assert "# TYPE engine_runs_total counter" in text
        assert "# TYPE sched_queue_depth gauge" in text
        assert "# TYPE http_request_seconds histogram" in text
        assert 'le="+Inf"' in text

    def test_explicit_json_format(self, server):
        status, _, body = get_raw(server, "/v1/metrics?format=json")
        assert status == 200
        assert json.loads(body)["kind"] == "metrics"

    def test_unknown_format_is_a_400(self, server):
        status, _, body = get_raw(server, "/v1/metrics?format=xml")
        assert status == 400
        payload = json.loads(body)
        assert payload["type"] == "FormatError"
        assert "expected 'json' or 'prometheus'" in payload["message"]

    def test_unknown_query_parameter_is_a_400(self, server):
        status, _, _ = get_raw(server, "/v1/metrics?fmt=json")
        assert status == 400

    def test_client_rejects_bad_format_clientside(self, remote):
        with pytest.raises(FormatError):
            remote._get("/v1/metrics?format=xml")


class TestRemoteLocalParity:
    def test_remote_metrics_match_the_registry(self, server, remote):
        remote.enumerate(EnumerationRequest(algorithm="mule", alpha=0.5))
        over_the_wire = remote.metrics()
        local = server.scheduler.metrics.snapshot()
        # /v1/metrics serves the server's registry; only the http_* series
        # may drift (the /v1/metrics request itself is recorded after its
        # response is written).
        stable = lambda d: {  # noqa: E731
            k: v for k, v in d.items() if not k.startswith("http_")
        }
        assert stable(over_the_wire["counters"]) == stable(local["counters"])
        assert over_the_wire["gauges"] == local["gauges"]
        assert stable(over_the_wire["histograms"]) == stable(local["histograms"])

    def test_prometheus_text_mirrors_the_json_series(self, remote):
        remote.enumerate(EnumerationRequest(algorithm="mule", alpha=0.5))
        snapshot = remote.metrics()
        text = remote.metrics_text()
        for flat in snapshot["counters"]:
            name = flat.partition("{")[0]
            assert f"# TYPE {name} counter" in text


class TestEnumerationDeterminism:
    def test_identical_runs_move_identical_counters(self, graph):
        request = EnumerationRequest(algorithm="mule", alpha=0.4)

        def engine_delta():
            before = {
                key: value
                for key, value in obs_registry().snapshot()["counters"].items()
                if key.startswith("engine_")
            }
            outcome = MiningSession(graph).enumerate(request)
            after = obs_registry().snapshot()["counters"]
            return outcome, {
                key: after.get(key, 0.0) - before.get(key, 0.0)
                for key in after
                if key.startswith("engine_")
            }

        first_outcome, first_delta = engine_delta()
        second_outcome, second_delta = engine_delta()
        second_outcome.assert_matches(first_outcome)
        assert first_delta == second_delta
        assert first_delta["engine_runs_total"] == 1.0
        assert first_delta["engine_cliques_emitted_total"] == float(
            first_outcome.num_cliques
        )

    def test_output_is_bit_identical_with_metrics_disabled(self, graph):
        request = EnumerationRequest(algorithm="mule", alpha=0.4)
        enabled = MiningSession(graph).enumerate(request)
        reg = obs_registry()
        reg.set_enabled(False)
        try:
            disabled = MiningSession(graph).enumerate(request)
        finally:
            reg.set_enabled(True)
        disabled.assert_matches(enabled)


class TestServerScope:
    def test_two_servers_report_only_their_own_traffic(self, graph):
        with MiningServer(graph, port=0) as mine, MiningServer(graph, port=0) as theirs:
            remote = RemoteSession(mine.url)
            for _ in range(3):
                remote.enumerate(REQUEST)
            settle(mine, 3)
            counters = mine.scheduler.metrics.snapshot()["counters"]
            served = (
                "http_requests_total{endpoint=/v1/enumerate,method=POST,status=200}"
            )
            assert counters[served] == 3.0
            assert counters["sched_jobs_submitted_total"] == 3.0

            other = RemoteSession(theirs.url).metrics()["counters"]
            assert not any(key.startswith("http_requests_total") for key in other)
            assert other["sched_jobs_submitted_total"] == 0.0
            for outcome in ("hit", "derive", "compile"):
                assert other[f"cache_lookups_total{{outcome={outcome}}}"] == 0.0
            stats = theirs.stats_payload()
            assert stats["http"]["received"] == 0
            assert stats["scheduler"]["submitted"] == 0

    def test_stats_and_metrics_read_the_same_owners(self, graph):
        with MiningServer(graph, port=0) as server:
            remote = RemoteSession(server.url)
            remote.enumerate(REQUEST)
            remote.sweep([0.2, 0.3])
            remote.submit(REQUEST).wait()
            with pytest.raises(FormatError):
                remote._post("/v1/enumerate", {"schema": 1})
            settle(server, 4)
            stats = server.stats_payload()
            snapshot = server.scheduler.metrics.snapshot()
        counters, gauges = snapshot["counters"], snapshot["gauges"]
        scheduler = stats["scheduler"]
        assert counters["sched_jobs_submitted_total"] == scheduler["submitted"] == 4
        assert gauges["sched_queue_depth"] == scheduler["queued"] == 0
        assert gauges["sched_inflight_jobs"] == scheduler["inflight"] == 0
        assert (
            counters["sched_single_flight_waits_total"]
            == scheduler["single_flight_waits"]
        )
        assert scheduler["completed"] == scheduler["done"] + scheduler["cancelled"]
        for state in ("done", "failed", "cancelled"):
            assert counters[f"jobs_transitions_total{{state={state}}}"] == (
                stats["jobs"][state]
            )
            assert stats["jobs"][state] == scheduler[state]
        assert counters["jobs_transitions_total{state=running}"] == 4
        cache = stats["cache"]
        assert counters["cache_lookups_total{outcome=hit}"] == cache["hits"]
        assert counters["cache_lookups_total{outcome=derive}"] == cache["derivations"]
        assert (
            counters["cache_lookups_total{outcome=compile}"] == cache["compilations"]
        )
        mutating = {
            key: value
            for key, value in counters.items()
            if key.startswith("http_requests_total")
            and ("method=POST" in key or "method=DELETE" in key)
        }
        failed = {key: value for key, value in mutating.items() if "status=4" in key}
        assert stats["http"]["received"] == sum(mutating.values()) == 4
        assert stats["http"]["failed"] == sum(failed.values()) == 1

    def test_churned_graphs_leave_no_series_behind(self):
        with MiningServer(GraphStore(max_graphs=2), port=0) as server:
            store = RemoteStore(server.url)
            for seed in range(20):
                graph = random_uncertain_graph(8, 0.5, rng=random.Random(seed))
                info = store.add(graph)
                store.session(info.fingerprint).enumerate(REQUEST)
            counters = RemoteSession(server.url).metrics()["counters"]
        lookups = [key for key in counters if key.startswith("cache_lookups_total")]
        assert sorted(lookups) == [
            "cache_lookups_total{outcome=compile}",
            "cache_lookups_total{outcome=derive}",
            "cache_lookups_total{outcome=hit}",
        ]
        assert counters["cache_lookups_total{outcome=compile}"] >= 20

    def test_every_series_has_a_layer_prefix(self, server, remote):
        remote.enumerate(REQUEST)
        # Every registered name, including series with no values yet.
        names = {
            instrument.name for instrument in server.scheduler.metrics.instruments()
        }
        assert {"sched_queue_depth", "jobs_transitions_total"} <= names
        assert {"http_requests_total", "engine_runs_total"} <= names
        for name in names:
            assert name.startswith(_LAYER_PREFIXES) and _NAME_RE.match(name), name


class TestStatsTearResistance:
    def test_per_graph_counters_never_exceed_aggregate_under_churn(self, graph):
        """Regression for the stats tear: components snapshotted under
        separate locks let per-graph sums race past the aggregate."""
        with MiningServer(graph, port=0) as server:
            remote = RemoteSession(server.url)
            stop = threading.Event()
            errors: list[Exception] = []
            calls: list[int] = []

            def churn():
                alphas = [0.2, 0.3, 0.4, 0.5, 0.6]
                i = 0
                while not stop.is_set():
                    try:
                        remote.enumerate(
                            EnumerationRequest(
                                algorithm="mule", alpha=alphas[i % len(alphas)]
                            )
                        )
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return
                    i += 1
                calls.append(i)

            workers = [threading.Thread(target=churn) for _ in range(3)]
            for worker in workers:
                worker.start()
            try:
                for _ in range(50):
                    payload = server.stats_payload()
                    aggregate = payload["cache"]
                    for field in ("hits", "misses", "compilations", "derivations"):
                        total = sum(
                            entry["cache"][field]
                            for entry in payload["graphs"].values()
                        )
                        assert total <= aggregate[field], (field, payload)
                    # Within one atomic snapshot the taxonomy holds too.
                    assert (
                        aggregate["misses"]
                        == aggregate["compilations"] + aggregate["derivations"]
                    )
            finally:
                stop.set()
                for worker in workers:
                    worker.join()
            assert errors == []
            # No answered request is lost between concurrent handlers.
            settle(server, sum(calls))
            assert server.stats_payload()["http"]["received"] == sum(calls)


class TestTraceDir:
    def test_each_request_writes_a_chrome_trace(self, graph, tmp_path):
        trace_dir = tmp_path / "traces"
        with MiningServer(graph, port=0, trace_dir=trace_dir) as server:
            remote = RemoteSession(server.url)
            remote.health()
            remote.enumerate(EnumerationRequest(algorithm="mule", alpha=0.5))
        files = sorted(trace_dir.glob("request-*.json"))
        assert len(files) == 2
        payload = json.loads(files[-1].read_text(encoding="utf-8"))
        names = [event["name"] for event in payload["traceEvents"]]
        assert names[0] == "http.request"
        args = payload["traceEvents"][0]["args"]
        assert args["endpoint"] == "/v1/enumerate"
        assert args["method"] == "POST"


class TestAccessLog:
    def test_access_line_has_status_and_duration(self, graph, capfd):
        with MiningServer(graph, port=0, quiet=False) as server:
            RemoteSession(server.url).health()
        err = capfd.readouterr().err
        (line,) = [l for l in err.splitlines() if "/v1/health" in l]
        assert '"GET /v1/health HTTP/1.1" 200 ' in line
        assert line.rstrip().endswith("s")

    def test_quiet_server_logs_nothing(self, graph, capfd):
        with MiningServer(graph, port=0, quiet=True) as server:
            RemoteSession(server.url).health()
        assert capfd.readouterr().err == ""
