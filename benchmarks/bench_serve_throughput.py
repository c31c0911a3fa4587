"""Serving layer: micro-batching >= 3x over batch-1; cache survives restart.

Two acceptance criteria of the serving ISSUE, measured end to end over
real sockets:

1. *Throughput*: 32 concurrent HTTP clients against a coalescing server
   (``max_batch=32``) must sustain at least 3x the requests/second of
   the same workload against a ``max_batch=1`` server, because N
   waiting clients share one vectorised ``engine.run_batch`` dispatch
   instead of paying N scalar dispatches.

2. *Persistence*: answers served with a ``cache_dir`` mounted must be
   replayed bit-identically by a *fresh* server over the same directory
   (a process restart in miniature), with the ``engine.cache.disk.hits``
   obs counter proving the answers came from disk, not recompute.
"""

from __future__ import annotations

import json
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

from repro.obs import metrics
from repro.reporting import ascii_table
from repro.serve import AnalysisServer, ServeConfig

from bench_trajectory import metric, write_trajectory
from conftest import bench_output_path, emit

CLIENTS = 32
REQUESTS_PER_CLIENT = 6
WIDTH = 32
CELL = "LPAA 6"


def _docs():
    """CLIENTS x REQUESTS_PER_CLIENT distinct probability points.

    Every request carries its own per-stage probability vector so no
    result-cache sharing flatters either pass; the two
    passes replay the *same* documents for a fair comparison.
    """
    docs = []
    for k in range(CLIENTS * REQUESTS_PER_CLIENT):
        p_a = [((k * 37 + i) % 1009) / 1009.0 for i in range(WIDTH)]
        p_b = [((k * 53 + 7 * i + 1) % 1009) / 1009.0 for i in range(WIDTH)]
        docs.append({"cell": CELL, "width": WIDTH, "p_a": p_a, "p_b": p_b})
    return docs


def _post(url: str, doc) -> dict:
    request = urllib.request.Request(
        url + "/v1/analyze", data=json.dumps(doc).encode()
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        assert response.status == 200
        return json.loads(response.read())


def _drive(url: str, docs) -> float:
    """Wall-clock seconds for CLIENTS concurrent clients to drain *docs*."""
    shards = [docs[i::CLIENTS] for i in range(CLIENTS)]

    def client(shard):
        return [_post(url, doc) for doc in shard]

    start = time.perf_counter()
    with ThreadPoolExecutor(CLIENTS) as pool:
        list(pool.map(client, shards))
    return time.perf_counter() - start


def _server(max_batch: int, window_s: float) -> AnalysisServer:
    return AnalysisServer(ServeConfig(
        port=0, max_batch=max_batch, batch_window_s=window_s,
        queue_limit=4096,
    ))


def test_batching_triples_request_throughput(benchmark):
    docs = _docs()

    serial = _server(max_batch=1, window_s=0.0)
    url = serial.start()
    try:
        _drive(url, docs[:CLIENTS])  # warm-up round, untimed
        serial_rps = len(docs) / _drive(url, docs)
    finally:
        serial.stop()

    batched = _server(max_batch=CLIENTS, window_s=0.005)
    url = batched.start()
    try:
        _drive(url, docs[:CLIENTS])
        batched_rps = len(docs) / _drive(url, docs)
        speedup = batched_rps / serial_rps

        emit(ascii_table(
            ["server", "req/s", "speedup"],
            [["max_batch=1 (no coalescing)", serial_rps, 1.0],
             [f"max_batch={CLIENTS} (micro-batching)", batched_rps, speedup]],
            digits=1,
            title=f"{CLIENTS} concurrent clients, "
                  f"{len(docs)} x {WIDTH}-bit {CELL} requests",
        ))

        # Pin the trajectory *before* the acceptance assertion so a
        # failing run still leaves its numbers behind for comparison.
        write_trajectory(bench_output_path("BENCH_serve.json"),
                         "serve_throughput", [
            metric("serial_rps", serial_rps, unit="req/s"),
            metric("batched_rps", batched_rps, unit="req/s"),
            metric("batching_speedup", speedup, unit="x"),
        ])

        assert speedup >= 3.0, (
            f"micro-batching only {speedup:.2f}x over batch-1 "
            f"({batched_rps:.0f} vs {serial_rps:.0f} req/s)"
        )
        benchmark(lambda: _drive(url, docs[:CLIENTS]))
    finally:
        batched.stop()


def test_warm_disk_cache_survives_restart(tmp_path):
    docs = _docs()[:24]
    config = dict(port=0, batch_window_s=0.002, cache_dir=str(tmp_path))

    cold_server = AnalysisServer(ServeConfig(**config))
    cold_url = cold_server.start()
    try:
        first = [_post(cold_url, doc)["p_error"] for doc in docs]
    finally:
        cold_server.stop()

    # A brand-new server over the same directory = process restart.
    metrics.GLOBAL_REGISTRY.reset()
    warm_server = AnalysisServer(ServeConfig(**config))
    warm_url = warm_server.start()
    try:
        second = [_post(warm_url, doc)["p_error"] for doc in docs]
        with urllib.request.urlopen(warm_url + "/metrics",
                                    timeout=10) as response:
            snapshot = json.loads(response.read())
    finally:
        warm_server.stop()

    disk_hits = snapshot["counters"].get("engine.cache.disk.hits", 0)
    emit(f"restart replay: {len(docs)} answers, "
         f"{disk_hits} disk hits, bit-identical = {first == second}")
    assert first == second, "replayed answers must be bit-identical"
    assert disk_hits > 0, "the warm pass must be served from disk"
    assert snapshot["service"]["result_cache"]["disk"]["hits"] == len(docs)
