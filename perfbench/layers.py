"""Per-layer metrics, read from outside the program.

Two sources, both public: the server's ``/metrics`` snapshot (counters,
timers and the ``service`` block with ``result_cache`` /
``segment_cache`` statistics) diffed over the measured window, and
in-process replays that time a sample of the workload's own inputs
through each layer's public functions.  Nothing inside ``src/`` is
instrumented for the benchmark.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import engine
from repro.core.hybrid import HybridChain
from repro.engine import AnalysisRequest
from repro.engine.registry import REGISTRY
from repro.runtime.budget import RunBudget
from repro.serve import parse_analysis_doc, result_to_doc

from measure import median

#: Every per-layer metric: ``(name, unit, better)``.  Each workload
#: prints all of them; a layer the workload does not touch reads 0.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("serve.http.analyze_ms_mean", "ms", "lower"),
    ("serve.service.batch_ms_mean", "ms", "lower"),
    ("serve.service.wait_ms_mean", "ms", "lower"),
    ("serve.service.mean_batch_size", "count", "higher"),
    ("serve.service.parse_us", "us", "lower"),
    ("serve.service.encode_us", "us", "lower"),
    ("serve.client.wire_ms_mean", "ms", "lower"),
    ("serve.http.status_500", "count", "lower"),
    ("serve.http.status_504", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("engine.request.build_us", "us", "lower"),
    ("engine.executor.select_us", "us", "lower"),
    ("engine.executor.run_us", "us", "lower"),
    ("engine.executor.run_batch_us_per_config", "us", "lower"),
    ("engine.executor.batch_occupancy", "share", "higher"),
    ("core.vectorized.floor_us_per_config", "us", "lower"),
    ("engine.cache.hit_rate", "share", "higher"),
    ("engine.diskcache.memory_hit_rate", "share", "higher"),
    ("engine.diskcache.disk_writes", "count", "lower"),
    ("engine.diskcache.get_us", "us", "lower"),
    ("engine.segcache.hit_rate", "share", "higher"),
    ("engine.segcache.success_us", "us", "lower"),
    ("runtime.router.degraded_share", "share", "lower"),
    ("runtime.router.cost_ratio_p50", "ratio", "lower"),
    ("engine.distribution.run_ms_p50", "ms", "lower"),
    ("engine.zoo.run_ms_p50", "ms", "lower"),
    ("bench.generator_late_ms_max", "ms", "lower"),
    ("bench.trace_overhead_share", "share", "lower"),
    ("bench.layer_coverage_share", "share", "higher"),
)

#: Wall-clock budget of each in-process replay.
REPLAY_BUDGET_S = 1.5
REPLAY_MAX_DOCS = 200


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: Sequence[float]) -> float:
    """Median, or 0 for a layer that did no work."""
    return median(values) if values else 0.0


# -- /metrics snapshots -------------------------------------------------------

class Window:
    """The difference between two ``/metrics`` snapshots."""

    def __init__(self, before: Dict, after: Dict) -> None:
        self.before, self.after = before, after

    def counter(self, name: str) -> float:
        return (self.after.get("counters", {}).get(name, 0)
                - self.before.get("counters", {}).get(name, 0))

    def counters(self, prefix: str) -> float:
        names = set(self.after.get("counters", {}))
        return sum(self.counter(n) for n in names if n.startswith(prefix))

    def _timer(self, name: str) -> Tuple[float, float]:
        now = self.after.get("timers", {}).get(name, {})
        then = self.before.get("timers", {}).get(name, {})
        return (now.get("count", 0) - then.get("count", 0),
                now.get("total_s", 0.0) - then.get("total_s", 0.0))

    def timer_total_s(self, name: str) -> float:
        return self._timer(name)[1]

    def timer_mean_ms(self, name: str) -> float:
        count, total = self._timer(name)
        return _ratio(total, count) * 1e3

    def timers_p50_ms(self, prefix: str) -> float:
        """Count-weighted median of the p50s of every timer named
        ``<prefix>*.seconds`` (one timer per engine of a family)."""
        points = []
        for name, now in self.after.get("timers", {}).items():
            if name.startswith(prefix) and name.endswith(".seconds"):
                then = self.before.get("timers", {}).get(name, {})
                count = now.get("count", 0) - then.get("count", 0)
                if count > 0:
                    points.append((now["p50_s"] * 1e3, count))
        points.sort()
        half, seen = sum(c for _, c in points) / 2.0, 0
        for value, count in points:
            seen += count
            if seen >= half:
                return value
        return 0.0

    def tier(self, cache: str, tier: str, field: str) -> float:
        def read(snap: Dict) -> float:
            return (snap.get("service", {}).get(cache, {}).get(tier, {})
                    .get(field, 0))
        return read(self.after) - read(self.before)


def engine_layers(window: Window) -> Dict[str, float]:
    """The executor and stage-cache figures any process exports."""
    cache_hits = (window.counter("engine.cache.hits")
                  + window.counter("engine.cache.matrices.hits"))
    cache_misses = (window.counter("engine.cache.misses")
                    + window.counter("engine.cache.matrices.misses"))
    grouped = (window.counter("engine.batch.vectorized_points")
               + window.counter("engine.batch.segment_points"))
    requests = window.counter("engine.batch.requests")
    return {
        "engine.executor.run_batch_us_per_config": _ratio(
            window.timer_total_s("engine.run_batch") * 1e6, requests),
        "engine.executor.batch_occupancy": _ratio(grouped, requests),
        "engine.cache.hit_rate": _ratio(cache_hits,
                                        cache_hits + cache_misses),
    }


def serve_layers(window: Window, client_ms_mean: float) -> Dict[str, float]:
    """The layer metrics a server's ``/metrics`` answers directly."""
    handler = window.timer_mean_ms("serve.http.analyze.seconds")
    batch = window.timer_mean_ms("serve.batch_seconds")
    mem_hits = window.tier("result_cache", "memory", "hits")
    mem_misses = window.tier("result_cache", "memory", "misses")
    seg_hits = window.tier("segment_cache", "memory", "hits")
    seg_misses = window.tier("segment_cache", "memory", "misses")
    return {
        **engine_layers(window),
        "serve.http.analyze_ms_mean": handler,
        "serve.service.batch_ms_mean": batch,
        "serve.service.wait_ms_mean": handler - batch,
        "serve.service.mean_batch_size": _ratio(
            window.counter("serve.batched_requests"),
            window.counter("serve.batches")),
        "serve.client.wire_ms_mean": client_ms_mean - handler,
        "serve.http.status_500": window.counter("serve.http.status.500"),
        "serve.http.status_504": window.counter("serve.http.status.504"),
        "serve.shed": window.counter("serve.shed"),
        "engine.diskcache.memory_hit_rate": _ratio(mem_hits,
                                                   mem_hits + mem_misses),
        "engine.diskcache.disk_writes": window.tier("result_cache", "disk",
                                                    "writes"),
        "engine.segcache.hit_rate": _ratio(seg_hits, seg_hits + seg_misses),
        "runtime.router.degraded_share": _ratio(
            window.counter("runtime.router.degraded"),
            window.counters("runtime.router.decision.")),
        "engine.distribution.run_ms_p50": window.timers_p50_ms(
            "engine.distribution-"),
        "engine.zoo.run_ms_p50": window.timers_p50_ms("engine.zoo-"),
    }


# -- in-process replays -------------------------------------------------------

def build_request(doc: Dict[str, object]) -> AnalysisRequest:
    """The ``AnalysisRequest`` constructor call a document stands for."""
    kind = str(doc.get("kind", "chain"))
    p_a, p_b = doc.get("p_a", 0.5), doc.get("p_b", 0.5)
    if "adder" in doc:
        return AnalysisRequest.zoo(str(doc["adder"]), p_a=p_a, p_b=p_b,
                                   kind=kind)
    chain = (doc["cell"] if "cell" in doc
             else HybridChain.from_spec(str(doc["spec"])))
    width = doc.get("width")
    if kind != "chain":
        return AnalysisRequest.distribution(chain, width, p_a, p_b,
                                            kind=kind)
    return AnalysisRequest.chain(chain, width, p_a, p_b)


def _timed_us(fn, *args, **kwargs) -> Tuple[float, object]:
    started = time.perf_counter()
    out = fn(*args, **kwargs)
    return (time.perf_counter() - started) * 1e6, out


def _budget(doc: Dict[str, object]) -> Optional[RunBudget]:
    deadline = doc.get("deadline_s")
    return RunBudget.for_deadline(float(deadline)) if deadline else None


def _sample(docs: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    step = max(1, len(docs) // REPLAY_MAX_DOCS)
    return list(docs[::step][:REPLAY_MAX_DOCS])


def replay_request_path(docs: Sequence[Dict[str, object]]
                        ) -> Dict[str, float]:
    """Parse, build, select, run, encode and the compute floor, each
    timed per document (medians), over a sample of answered documents.
    Stops after :data:`REPLAY_BUDGET_S` so slow engines stay bounded."""
    from repro.core.vectorized import analyze_batch
    from repro.engine.cache import mask_arrays

    parse, build, select, run, encode, floor = [], [], [], [], [], []
    stop_at = time.perf_counter() + REPLAY_BUDGET_S
    for doc in _sample(docs):
        if time.perf_counter() > stop_at:
            break
        us, _ = _timed_us(parse_analysis_doc, doc)
        parse.append(us)
        us, request = _timed_us(build_request, doc)
        build.append(us)
        budget = _budget(doc)
        us, _ = _timed_us(engine.select_engine, request, budget)
        select.append(us)
        us, result = _timed_us(engine.run, request, budget=budget)
        run.append(us)
        us, _ = _timed_us(lambda: json.dumps(result_to_doc(result)))
        encode.append(us)
        if request.kind == "chain" and request.block is None:
            masks = [mask_arrays(t) for t in request.cells]
            us, _ = _timed_us(
                analyze_batch, list(request.cells), None,
                np.array([request.p_a]), np.array([request.p_b]),
                np.array([request.p_cin]), batch=1, matrices=masks)
            floor.append(us)
    return {
        "serve.service.parse_us": _median(parse),
        "engine.request.build_us": _median(build),
        "engine.executor.select_us": _median(select),
        "engine.executor.run_us": _median(run),
        "serve.service.encode_us": _median(encode),
        "core.vectorized.floor_us_per_config": _median(floor),
    }


def replay_tiers(docs: Sequence[Dict[str, object]],
                 result_dir) -> Dict[str, float]:
    """Time ``ResultCache.get_result`` over the server's own result
    store and ``SegmentCache.success_probability`` on a fresh memory
    tier, replaying the documents in workload order."""
    from repro.engine.diskcache import DiskResultStore, ResultCache
    from repro.engine.segcache import SegmentCache

    results = ResultCache(DiskResultStore(result_dir))
    segments = SegmentCache()
    gets, successes = [], []
    stop_at = time.perf_counter() + REPLAY_BUDGET_S
    for doc in docs[:REPLAY_MAX_DOCS * 5]:
        if time.perf_counter() > stop_at:
            break
        request = parse_analysis_doc(doc)
        us, _ = _timed_us(results.get_result, request)
        gets.append(us)
        us, _ = _timed_us(segments.success_probability, list(request.cells),
                          request.p_a, request.p_b, request.p_cin)
        successes.append(us)
    return {
        "engine.diskcache.get_us": _median(gets),
        "engine.segcache.success_us": _median(successes),
    }


def cost_ratio_p50(runs: Iterable[Tuple[str, int, Optional[int], float]]
                   ) -> float:
    """Median misprediction factor of the registry's cost model:
    ``max(predicted/actual, actual/predicted)`` over timed engine runs,
    where predicted seconds are ``cost_estimate / ops_per_second``."""
    factors = []
    for name, width, samples, seconds in runs:
        info = REGISTRY.get(name)
        predicted = info.cost_estimate(width, samples) / info.ops_per_second
        if predicted > 0 and seconds > 0:
            factors.append(max(predicted / seconds, seconds / predicted))
    return _median(factors)
