"""Self-tests of the benchmark: generators, load accounting, statistics,
spans, the oracle and the metric table.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402


def _stream_bytes(workload: str, seed: int) -> bytes:
    if workload == "serve_chain_open":
        return json.dumps(gen.chain_open_schedule(seed, 4.0)).encode()
    if workload == "serve_magnitude_closed":
        docs = gen.magnitude_docs(seed, 20.0)
    elif workload == "serve_cached_repeat":
        docs = list(islice(gen.cached_stream(seed), 300))
    else:
        docs = [{"design": d} for d in islice(gen.sweep_designs(seed), 100)]
        docs.append({"grid": gen.sweep_grid(seed)})
    return b"\n".join(gen.doc_bytes(doc) for doc in docs)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    assert _stream_bytes(workload, 7) == _stream_bytes(workload, 7)
    assert _stream_bytes(workload, 7) != _stream_bytes(workload, 8)


def test_open_schedule_is_sorted_and_fills_the_window():
    schedule = gen.chain_open_schedule(3, 4.0)
    dues = [due for due, _ in schedule]
    assert len(dues) == gen.OPEN_RATE_RPS * 4
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] < 4.0
    for _, doc in schedule:
        width = doc.get("width") or sum(
            int(part.split(":")[1]) for part in doc["spec"].split(","))
        assert len(doc["p_a"]) == len(doc["p_b"]) == width


def test_magnitude_run_keeps_the_known_defects():
    docs = gen.magnitude_docs(1, 20.0)
    assert len(docs) == 2 + 3 * 65
    slow = [d for d in docs if d.get("width") == 12 and d["kind"] == "mred"]
    assert [d["cell"] for d in slow] == ["LPAA 4", "LPAA 1"]
    assert docs[0] == slow[0]
    assert all(d["deadline_s"] == 1 for d in docs)
    assert sum("adder" in d for d in docs) == 3 * 32
    first = [d for d in docs[:67] if d not in slow]
    assert first == docs[67:132] == docs[132:]


def test_cached_stream_one_off_share_is_fixed():
    docs = list(islice(gen.cached_stream(5), 1000))
    one_offs = [d for d in docs if isinstance(d["p_a"], list)]
    assert len(one_offs) == 1000 // gen.CACHED_ONE_OFF_EVERY
    levels = {(d["p_a"], d["p_b"]) for d in docs if d not in one_offs}
    assert len(levels) <= gen.CACHED_P_LEVELS


class _SlowHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    seen: list = []

    def do_POST(self):  # noqa: N802 - http.server naming
        doc = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        time.sleep(doc["sleep"])
        _SlowHandler.seen.append(doc)
        body = b'{"ok": true}'
        self.send_response(doc.get("status", 200))
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def slow_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)


def test_open_loop_counts_latency_from_the_due_time(slow_server):
    # Both connections stall on the first two requests, so the third is
    # sent late; its latency must include that wait.
    schedule = [(0.0, {"sleep": 0.3}), (0.0, {"sleep": 0.3}),
                (0.05, {"sleep": 0.0})]
    records, _ = measure.open_loop(slow_server, schedule, gen.doc_bytes)
    third = records[2]
    assert third.end - third.start < 0.1
    assert third.latency_s >= 0.2
    assert third.late < 0.05  # the generator itself was on time


def test_closed_loop_stops_at_the_end_of_a_finite_stream(slow_server):
    docs = iter([{"sleep": 0.0}] * 5)
    records, wall = measure.closed_loop(slow_server, docs, None,
                                        gen.doc_bytes)
    assert [r.index for r in records] == list(range(5))
    assert all(r.status == 200 for r in records) and wall > 0


def test_closed_loop_drains_after_a_failure(slow_server):
    _SlowHandler.seen.clear()
    docs = iter([{"sleep": 0.0, "status": 504}, {"sleep": 0.0}])
    drain = {"sleep": 0.0, "drain": True}
    records, _ = measure.closed_loop(slow_server, docs, None, gen.doc_bytes,
                                     clients=1, drain=drain)
    assert [(r.status, r.drain) for r in records] == [
        (504, False), (200, True), (200, False)]
    assert [d.get("drain", False) for d in _SlowHandler.seen] == [
        False, True, False]


def test_tail_keeps_ten_samples_beyond_it():
    assert measure.tail(list(range(1, 1001))) == (900, 90.0, 1000)
    assert measure.tail(list(range(1, 151))) == (135, 90.0, 150)
    assert measure.tail(list(range(1, 51))) == (40, 80.0, 50)
    assert measure.tail([3, 1, 2]) == (3, 100.0, 3)


def test_windowed_tail_is_the_median_of_window_tails():
    # Five windows of 200; the third holds a burst that lifts its p90
    # alone, so the median of the five window tails ignores it.
    values = [float(i % 200) for i in range(1000)]
    values[400:600] = [v + 1000.0 for v in values[400:600]]
    assert measure.windowed_tail(values) == (179.0, 90.0, 1000, 5)
    assert measure.windowed_tail(list(range(1, 151))) == (135, 90.0, 150, 1)


def test_self_time_and_coverage():
    tracer = measure.Tracer()
    root = tracer.add("bench.op", 0.0, 10.0)
    tracer.add("a", 0.0, 4.0, root)
    tracer.add("b", 3.0, 6.0, root)
    selfs = tracer.self_times()
    assert selfs["bench.op"] == pytest.approx(4.0)
    assert tracer.coverage("bench.op") == pytest.approx(0.6)


def test_coverage_counts_a_gap_filling_span_as_uncovered():
    # The sweep's run_batch span runs from the end of the build to the
    # end of the op, so it covers the root by construction; only the
    # kernel inside it is measured apart.
    tracer = measure.Tracer()
    root = tracer.add("bench.op", 0.0, 10.0)
    tracer.add("engine.request.build", 0.0, 4.0, root)
    batch = tracer.add("engine.executor.run_batch", 4.0, 10.0, root)
    tracer.add("core.vectorized.analyze_batch", 5.0, 7.0, batch)
    assert tracer.coverage("bench.op") == pytest.approx(1.0)
    assert tracer.coverage(
        "bench.op", ("engine.executor.run_batch",)) == pytest.approx(0.6)


def test_oracle_accepts_the_served_answer_and_catches_a_wrong_one():
    from repro import engine
    from repro.serve import parse_analysis_doc, result_to_doc

    from oracle import Oracle, inside_interval

    doc = {"cell": "LPAA 2", "width": 8, "p_a": [0.3] * 8, "p_b": 0.7}
    served = engine.run_batch([parse_analysis_doc(doc)])[0]
    body = json.dumps(result_to_doc(served)).encode()
    oracle = Oracle()
    assert oracle.check(doc, 200, body) == (True, "ok")
    tampered = dict(json.loads(body),
                    p_error=math.nextafter(served.p_error, 1.0))
    assert oracle.check(doc, 200, json.dumps(tampered).encode()) \
        == (False, "wrong")
    assert oracle.check(doc, 504, b"") == (False, "http_504")
    assert inside_interval({"kind": "med", "med": 2.0, "interval": [1, 3]})
    assert not inside_interval({"kind": "med", "med": 4.0,
                                "interval": [1, 3]})


def test_benchmark_json_matches_the_metric_tables():
    import layers

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_hybrid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sweep_answers_pass_the_oracle():
    import workloads

    ops, wall = workloads._sweep_loop(4, 0.05)
    outcome = workloads.Outcome()
    workloads._judge_sweep(outcome, ops, gen.sweep_grid(4), 4)
    assert outcome.ok == outcome.attempted == len(ops) >= 1
    assert outcome.answers == len(ops) * gen.SWEEP_GRID ** 2 and wall > 0


@pytest.fixture()
def wrong_kernel(monkeypatch):
    """A vectorized chain kernel made wrong by one part in 10^9, the way
    a faster but wrong change to it would be: the served answer and its
    forced rerun both go through it."""
    import repro.core.vectorized as vectorized

    right = vectorized.analyze_batch

    def wrong(*args, **kwargs):
        return right(*args, **kwargs) * (1.0 - 1e-9)

    monkeypatch.setattr(vectorized, "analyze_batch", wrong)


def test_sweep_oracle_catches_a_wrong_kernel(wrong_kernel):
    import workloads

    ops, _ = workloads._sweep_loop(4, 0.05)
    outcome = workloads.Outcome()
    workloads._judge_sweep(outcome, ops, gen.sweep_grid(4), 4)
    assert outcome.ok == 0
    assert outcome.causes["wrong"] == outcome.attempted == len(ops)


def test_serve_oracle_catches_a_wrong_kernel(wrong_kernel):
    from repro import engine
    from repro.serve import parse_analysis_doc, result_to_doc

    from oracle import Oracle

    doc = {"cell": "LPAA 3", "width": 32, "p_a": 0.4, "p_b": 0.6}
    served = engine.run_batch([parse_analysis_doc(doc)])[0]
    assert served.engine == "vectorized"
    body = json.dumps(result_to_doc(served)).encode()
    assert Oracle().check(doc, 200, body) == (False, "wrong")


def test_oracle_catches_a_wrong_magnitude_engine():
    import dataclasses

    from repro import engine
    from repro.engine.registry import REGISTRY
    from repro.serve import parse_analysis_doc, result_to_doc

    from oracle import Oracle

    doc = {"cell": "LPAA 5", "width": 8, "kind": "med", "p_a": 0.3,
           "p_b": 0.6}
    served = engine.run(parse_analysis_doc(doc))
    assert served.engine == "distribution-dp" and served.exact
    body = json.dumps(result_to_doc(served)).encode()
    assert Oracle().check(doc, 200, body) == (True, "ok")

    info = REGISTRY.get("distribution-dp")

    def wrong(request, **options):
        result = info.run(request, **options)
        return dataclasses.replace(result, med=result.med * (1.0 + 1e-6))

    REGISTRY.register(dataclasses.replace(info, run=wrong), replace=True)
    try:
        served = engine.run(parse_analysis_doc(doc))
        body = json.dumps(result_to_doc(served)).encode()
        assert Oracle().check(doc, 200, body) == (False, "wrong")
    finally:
        REGISTRY.register(info, replace=True)
