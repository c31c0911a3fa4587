#!/usr/bin/env python3
"""Serving walkthrough: the analysis service end to end.

Boots the HTTP/JSON service in-process (the same server `sealpaa serve`
runs), then drives it with :class:`repro.serve.AnalysisClient` -- the
production client with capped-exponential-backoff retries, Retry-After
handling, fingerprinted idempotent request IDs, deadlines and
connection reuse:

1. a single `/v1/analyze` request,
2. an explicit `/v1/analyze_batch` call,
3. concurrent clients whose requests coalesce into engine micro-batches,
4. a `/metrics` scrape showing what the service did,
5. a graceful stop that drains in-flight work.

Run:  python examples/serve_client.py
"""

import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor

from repro.reporting import ascii_table
from repro.serve import AnalysisClient, AnalysisServer, ServeConfig


def main() -> None:
    cache_dir = tempfile.mkdtemp(prefix="sealpaa-serve-example-")
    server = AnalysisServer(ServeConfig(
        port=0,                  # pick a free port
        max_batch=32,
        batch_window_s=0.005,    # under concurrency, coalesce for 5 ms;
                                 # a lone request is dispatched at once
        cache_dir=cache_dir,     # persist exact answers across restarts
    ))
    base = server.start()
    print(f"service listening on {base}  (in-process thread, port 0)\n")

    # One AnalysisClient per thread: it keeps one TCP connection alive,
    # retries 429/503/504 with jittered backoff, and stamps every retry
    # of a request with the same fingerprinted X-Request-Id.
    client = AnalysisClient(base, total_deadline_s=30.0)
    try:
        # 1. One request: the paper's Table 7 shape over HTTP.
        answer = client.analyze({"cell": "LPAA 6", "width": 8,
                                 "p_a": 0.1, "p_b": 0.1, "p_cin": 0.1})
        print("single /v1/analyze (LPAA 6, N=8, p=0.1):")
        print(f"  P(Error) = {answer['p_error']:.6f}  "
              f"engine={answer['engine']}  exact={answer['exact']}\n")

        # 2. A batch: one HTTP round-trip, one vectorised engine call.
        results = client.analyze_batch([
            {"cell": "LPAA 1", "width": 8, "p_a": p, "p_b": p}
            for p in (0.1, 0.5, 0.9)
        ])
        print("explicit /v1/analyze_batch (LPAA 1, N=8):")
        rows = [[f"p={p}", item["p_error"]]
                for p, item in zip((0.1, 0.5, 0.9), results)]
        print(ascii_table(["inputs", "P(Error)"], rows, digits=6))
        print()

        # 3. Concurrent independent clients: the service coalesces their
        #    requests into micro-batches behind the scenes.  A client
        #    instance serves one thread, so each worker gets its own.
        docs = [{"cell": "LPAA 6", "width": 16,
                 "p_a": round(0.05 * (k + 1), 2)} for k in range(12)]

        def ask(doc):
            with AnalysisClient(base) as thread_client:
                return thread_client.analyze(doc)

        with ThreadPoolExecutor(max_workers=12) as pool:
            list(pool.map(ask, docs))

        # 4. What did the service do?  /metrics tells you.
        snapshot = client.metrics()
        stats = snapshot["service"]
        print("service stats after the burst of 12 concurrent clients:")
        print(f"  requests served : {stats['served']}")
        print(f"  engine batches  : {stats['batches']}  "
              f"(< served because requests coalesced)")
        print(f"  shed (429)      : {stats['shed']}")
        cache = stats.get("result_cache") or {}
        disk = cache.get("disk") or {}
        print(f"  disk cache      : {disk.get('writes', 0)} writes, "
              f"{disk.get('hits', 0)} hits "
              f"(warm restarts replay these -- docs/caching.md)")
        print(f"  client retries  : {client.retries} "
              f"(over {client.requests_sent} requests sent)")
    finally:
        # 5. Graceful stop: drains queued work, then closes the port.
        client.close()
        server.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)
    print("\nserver drained and stopped cleanly")


if __name__ == "__main__":
    main()
