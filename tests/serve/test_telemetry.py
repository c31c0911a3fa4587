"""Serving telemetry: correlation IDs, access log, Prometheus, SLO."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import engine
from repro.obs import metrics as _metrics
from repro.obs.prometheus import assert_valid_exposition
from repro.obs.slo import SloPolicy
from repro.serve import AnalysisServer, ServeConfig


@pytest.fixture(autouse=True)
def _clean_process_state():
    engine.disable_result_cache()
    _metrics.GLOBAL_REGISTRY.reset()
    yield
    engine.disable_result_cache()
    _metrics.GLOBAL_REGISTRY.reset()


def _fetch(url, doc=None, headers=None, timeout=10):
    data = json.dumps(doc).encode() if doc is not None else None
    request = urllib.request.Request(url, data=data,
                                     headers=dict(headers or {}))
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


@pytest.fixture
def logged_server(tmp_path):
    instance = AnalysisServer(ServeConfig(
        port=0, batch_window_s=0.002,
        access_log=str(tmp_path / "access.jsonl"),
    ))
    instance.start()
    yield instance, tmp_path / "access.jsonl"
    instance.stop()


class TestRequestCorrelation:
    def test_inbound_request_id_round_trips(self, logged_server):
        server, _ = logged_server
        _, _, headers = _fetch(
            server.base_url + "/v1/analyze",
            {"cell": "LPAA 1", "width": 4},
            headers={"X-Request-Id": "req-test-abc"},
        )
        assert headers["X-Request-Id"] == "req-test-abc"

    def test_server_mints_an_id_when_absent(self, logged_server):
        server, _ = logged_server
        _, _, headers = _fetch(server.base_url + "/healthz")
        assert headers["X-Request-Id"].startswith("req-")

    def test_error_responses_carry_the_id_too(self, logged_server):
        server, _ = logged_server
        status, _, headers = _fetch(
            server.base_url + "/nope",
            headers={"X-Request-Id": "req-404"})
        assert status == 404
        assert headers["X-Request-Id"] == "req-404"

    def test_access_log_correlates_requests(self, logged_server):
        server, log_path = logged_server
        _fetch(server.base_url + "/v1/analyze",
               {"cell": "LPAA 1", "width": 4},
               headers={"X-Request-Id": "req-logged"})
        _fetch(server.base_url + "/nope")
        events = [json.loads(line)
                  for line in log_path.read_text().splitlines()]
        by_id = {e.get("request_id"): e for e in events}
        record = by_id["req-logged"]
        assert record["event"] == "serve.request"
        assert record["method"] == "POST"
        assert record["path"] == "/v1/analyze"
        assert record["status"] == 200
        assert record["duration_ms"] >= 0
        assert any(e["status"] == 404 for e in events)


class TestPrometheusNegotiation:
    def test_default_metrics_stay_json(self, logged_server):
        server, _ = logged_server
        status, body, headers = _fetch(server.base_url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        assert json.loads(body)["format"] == "sealpaa-metrics-v1"

    def test_accept_text_plain_serves_prometheus(self, logged_server):
        server, _ = logged_server
        _fetch(server.base_url + "/v1/analyze",
               {"cell": "LPAA 1", "width": 4})
        status, body, headers = _fetch(
            server.base_url + "/metrics",
            headers={"Accept": "text/plain"})
        assert status == 200
        assert headers["Content-Type"].startswith(
            "text/plain; version=0.0.4")
        text = body.decode()
        assert_valid_exposition(text)
        assert "sealpaa_serve_http_analyze_seconds_bucket" in text
        assert "sealpaa_serve_enqueued_total" in text

    def test_query_parameter_forces_prometheus(self, logged_server):
        server, _ = logged_server
        status, body, headers = _fetch(
            server.base_url + "/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert_valid_exposition(body.decode())


class TestHealthzSlo:
    def test_healthz_embeds_the_slo_verdict(self, logged_server):
        server, _ = logged_server
        status, body, _ = _fetch(server.base_url + "/healthz")
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        names = {c["name"] for c in doc["slo"]["checks"]}
        assert names >= {"latency_p50", "latency_p99", "shed_rate"}

    def test_blown_slo_reports_degraded_but_stays_200(self, tmp_path):
        # A threshold below any real request latency forces a failing
        # latency check; /healthz must say degraded while remaining an
        # HTTP 200 -- liveness probes should not restart a slow pod.
        server = AnalysisServer(ServeConfig(
            port=0, batch_window_s=0.002,
            slo=SloPolicy(max_p50_s=1e-9),
        ))
        server.start()
        try:
            _fetch(server.base_url + "/v1/analyze",
                   {"cell": "LPAA 1", "width": 4})
            status, body, _ = _fetch(server.base_url + "/healthz")
        finally:
            server.stop()
        doc = json.loads(body)
        assert status == 200
        assert doc["status"] == "degraded"
        by_name = {c["name"]: c for c in doc["slo"]["checks"]}
        assert by_name["latency_p50"]["status"] == "fail"

    def test_service_stats_expose_recent_shed_rate(self, logged_server):
        server, _ = logged_server
        _fetch(server.base_url + "/v1/analyze",
               {"cell": "LPAA 1", "width": 4})
        _, body, _ = _fetch(server.base_url + "/metrics")
        stats = json.loads(body)["service"]
        assert stats["recent_shed_rate"] == 0.0

    def test_batch_occupancy_histogram_is_recorded(self, logged_server):
        server, _ = logged_server
        _fetch(server.base_url + "/v1/analyze_batch",
               {"requests": [{"cell": "LPAA 1", "width": 4},
                             {"cell": "LPAA 2", "width": 4}]})
        _, body, _ = _fetch(server.base_url + "/metrics")
        hist = json.loads(body)["histograms"]["serve.batch_occupancy"]
        assert hist["count"] >= 1
        assert hist["max"] >= 1

    def test_idle_dispatch_records_a_zero_batch_window(self, logged_server):
        server, _ = logged_server
        _fetch(server.base_url + "/v1/analyze",
               {"cell": "LPAA 1", "width": 4})
        _, body, _ = _fetch(server.base_url + "/metrics")
        hist = json.loads(body)["histograms"]["serve.batch_window_seconds"]
        # One lone request found the service idle: dispatched at once.
        assert hist["count"] == 1
        assert hist["max"] == 0.0
        _, body, _ = _fetch(server.base_url + "/metrics",
                            headers={"Accept": "text/plain"})
        text = body.decode()
        assert_valid_exposition(text)
        assert "sealpaa_serve_batch_window_seconds_count 1" in text
