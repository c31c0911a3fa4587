"""HTTP front-end over real sockets: routes, errors, shedding, drain."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import engine
from repro.obs import metrics as _metrics
from repro.serve import AnalysisServer, ServeConfig


@pytest.fixture(autouse=True)
def _clean_process_state():
    # The server writes to the process-global metrics registry; start
    # each test from zero so counter assertions are exact.
    engine.disable_result_cache()
    _metrics.GLOBAL_REGISTRY.reset()
    yield
    engine.disable_result_cache()
    _metrics.GLOBAL_REGISTRY.reset()


@pytest.fixture
def server():
    """A fresh background-thread server on a free port per test."""
    instance = AnalysisServer(ServeConfig(port=0, batch_window_s=0.002))
    instance.start()
    yield instance
    instance.stop()


def _fetch(url, doc=None, timeout=10):
    """(status, parsed body, headers) for one GET/POST."""
    data = json.dumps(doc).encode() if doc is not None else None
    request = urllib.request.Request(url, data=data)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


class TestEndpoints:
    def test_healthz_reports_ok(self, server):
        status, doc, _ = _fetch(server.base_url + "/healthz")
        assert status == 200
        assert doc["status"] == "ok"

    def test_analyze_matches_the_engine(self, server):
        status, doc, _ = _fetch(
            server.base_url + "/v1/analyze",
            {"cell": "LPAA 1", "width": 8, "p_a": 0.3},
        )
        assert status == 200
        request = engine.AnalysisRequest.chain("LPAA 1", 8, p_a=0.3)
        assert doc["p_error"] == engine.run_batch([request])[0].p_error
        assert doc["cells"] == ["LPAA 1"] * 8
        assert doc["exact"] is True

    def test_analyze_batch_mixes_answers_and_item_errors(self, server):
        status, doc, _ = _fetch(
            server.base_url + "/v1/analyze_batch",
            {"requests": [
                {"cell": "LPAA 2", "width": 4},
                {"cell": "LPAA 2"},                 # missing width -> 400
                {"spec": "LPAA7:2, LPAA1:2"},
            ]},
        )
        assert status == 200
        results = doc["results"]
        assert results[0]["p_error"] > 0
        assert results[1]["error"]["code"] == 400
        assert results[2]["width"] == 4

    def test_metrics_exposes_serve_counters_and_stats(self, server):
        _fetch(server.base_url + "/v1/analyze",
               {"cell": "LPAA 3", "width": 4})
        status, doc, _ = _fetch(server.base_url + "/metrics")
        assert status == 200
        assert doc["format"] == "sealpaa-metrics-v1"
        assert doc["counters"]["serve.enqueued"] >= 1
        assert doc["counters"]["serve.http.analyze.requests"] == 1
        assert doc["service"]["served"] >= 1

    def test_result_cache_stats_surface_in_metrics(self, tmp_path):
        server = AnalysisServer(ServeConfig(
            port=0, batch_window_s=0.002, cache_dir=str(tmp_path)
        ))
        server.start()
        try:
            for _ in range(2):
                _fetch(server.base_url + "/v1/analyze",
                       {"cell": "LPAA 1", "width": 4})
            _, doc, _ = _fetch(server.base_url + "/metrics")
            cache = doc["service"]["result_cache"]
            assert cache["disk"]["writes"] == 1
            assert cache["memory"]["hits"] >= 1
        finally:
            server.stop()


class TestHttpErrors:
    def test_unknown_path_is_404(self, server):
        status, doc, _ = _fetch(server.base_url + "/nope")
        assert status == 404 and doc["error"]["code"] == 404

    def test_wrong_method_is_405(self, server):
        status, _, _ = _fetch(server.base_url + "/v1/analyze")  # GET
        assert status == 405

    def test_invalid_json_body_is_400(self, server):
        request = urllib.request.Request(
            server.base_url + "/v1/analyze", data=b"{not json"
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=10)
        assert exc_info.value.code == 400

    def test_malformed_analysis_doc_is_400(self, server):
        status, doc, _ = _fetch(server.base_url + "/v1/analyze",
                                {"cell": "LPAA 1", "width": 4, "junk": 1})
        assert status == 400
        assert "unknown" in doc["error"]["message"]

    def test_batch_without_requests_list_is_400(self, server):
        status, _, _ = _fetch(server.base_url + "/v1/analyze_batch",
                              {"cell": "LPAA 1", "width": 4})
        assert status == 400

    def test_oversized_batch_is_413(self):
        server = AnalysisServer(ServeConfig(port=0, queue_limit=4))
        server.start()
        try:
            status, _, _ = _fetch(
                server.base_url + "/v1/analyze_batch",
                {"requests": [{"cell": "LPAA 1", "width": 2}] * 5},
            )
            assert status == 413
        finally:
            server.stop()


class TestRefusals:
    """A typed refusal is a 422 with its message, never a 500, and never
    a strike against the engine circuit breaker."""

    #: No rung of the zoo ladder serves a PMF kind past the sampler's
    #: 62-bit lanes, so the router refuses it.
    UNSERVABLE = {"adder": "aca1:63:4", "kind": "med"}

    @pytest.fixture
    def strict_server(self):
        # One counted failure would open this breaker.
        instance = AnalysisServer(ServeConfig(
            port=0, batch_window_s=0.002, breaker_failures=1))
        instance.start()
        yield instance
        instance.stop()

    def test_analyze_maps_the_refusal_to_422(self, strict_server):
        status, doc, _ = _fetch(strict_server.base_url + "/v1/analyze",
                                self.UNSERVABLE)
        assert status == 422
        assert doc["error"]["code"] == 422
        assert "no engine serves 'med' at width 63" \
            in doc["error"]["message"]
        assert strict_server.service.breaker.state == "closed"
        status, _, _ = _fetch(strict_server.base_url + "/v1/analyze",
                              {"cell": "LPAA 1", "width": 8})
        assert status == 200

    def test_batch_maps_the_refusal_to_422_per_item(self, strict_server):
        status, doc, _ = _fetch(
            strict_server.base_url + "/v1/analyze_batch",
            {"requests": [self.UNSERVABLE, {"cell": "LPAA 2", "width": 4}]},
        )
        assert status == 200
        refused, answered = doc["results"]
        assert refused["error"]["code"] == 422
        assert answered["p_error"] > 0
        assert strict_server.service.breaker.state == "closed"

    def test_support_limit_error_is_422(self, strict_server, monkeypatch):
        from repro.core.exceptions import SupportLimitError

        def outgrown(*args, **kwargs):
            raise SupportLimitError("support outgrew its guard", width=12)

        monkeypatch.setattr(engine, "run_batch", outgrown)
        status, doc, _ = _fetch(strict_server.base_url + "/v1/analyze",
                                {"cell": "LPAA 3", "width": 12,
                                 "kind": "mred"})
        assert status == 422
        assert doc["error"]["message"] == "support outgrew its guard"
        assert strict_server.service.breaker.state == "closed"


class TestLoadShedding:
    def test_overload_sheds_with_429_and_retry_after(self, monkeypatch):
        real_run_batch = engine.run_batch

        def slow_run_batch(requests, *args, **kwargs):
            time.sleep(0.4)
            return real_run_batch(requests, *args, **kwargs)

        monkeypatch.setattr(engine, "run_batch", slow_run_batch)
        server = AnalysisServer(ServeConfig(
            port=0, max_batch=1, batch_window_s=0.0, queue_limit=1,
            retry_after_s=0.25,
        ))
        server.start()
        try:
            def post(i):
                return _fetch(server.base_url + "/v1/analyze",
                              {"cell": "LPAA 1", "width": 4, "p_a": i / 16})
            with ThreadPoolExecutor(8) as pool:
                outcomes = list(pool.map(post, range(1, 9)))
        finally:
            server.stop()
        statuses = [status for status, _, _ in outcomes]
        assert 200 in statuses, "the server must still answer someone"
        shed = [(status, headers) for status, _, headers in outcomes
                if status == 429]
        assert shed, "a 1-deep queue under 8 clients must shed"
        for _, headers in shed:
            assert headers.get("Retry-After") == "0.250"


class TestBatchingOverHttp:
    def test_concurrent_clients_share_engine_batches(self, monkeypatch):
        server = AnalysisServer(ServeConfig(
            port=0, max_batch=32, batch_window_s=0.05
        ))
        server.start()
        try:
            def post(i):
                return _fetch(server.base_url + "/v1/analyze",
                              {"cell": "LPAA 1", "width": 6, "p_a": i / 20})
            with ThreadPoolExecutor(10) as pool:
                outcomes = list(pool.map(post, range(1, 11)))
            assert all(status == 200 for status, _, _ in outcomes)
            _, doc, _ = _fetch(server.base_url + "/metrics")
            service = doc["service"]
        finally:
            server.stop()
        assert service["served"] == 10
        assert service["batches"] < 10


class TestLifecycle:
    def test_stop_is_idempotent(self):
        server = AnalysisServer(ServeConfig(port=0))
        server.start()
        server.stop()
        server.stop()  # second stop is a no-op

    def test_port_zero_resolves_to_a_real_port(self, server):
        assert server.port > 0
        assert str(server.port) in server.base_url

    def test_server_refuses_double_start(self, server):
        with pytest.raises(RuntimeError, match="already started"):
            server.start()

    def test_stopped_server_refuses_connections(self):
        server = AnalysisServer(ServeConfig(port=0))
        url = server.start()
        server.stop()
        with pytest.raises((urllib.error.URLError, ConnectionError)):
            urllib.request.urlopen(url + "/healthz", timeout=2)
