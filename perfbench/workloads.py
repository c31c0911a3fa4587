"""The four workloads: load, check every answer, and measure.

``measure_workload`` runs one workload untraced and returns its
end-to-end figures; ``trace_workload`` runs it half untraced and half
traced (a serve workload twice on identical inputs, the sweep once with
every other design traced) and returns the per-layer figures, the
tracing overhead and the layer-coverage check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from repro import engine
from repro.core.hybrid import HybridChain
from repro.engine import AnalysisRequest
from repro.obs import metrics as obs_metrics

import gen
import layers
from measure import (Record, Server, Tracer, closed_loop, median, open_loop,
                     peak_rss_mb, percentile, windowed_tail)
from oracle import Oracle, ulp_close

ROOT = Path(__file__).resolve().parent.parent
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

#: Set-up is measured this many times per run; the median is reported.
#: Half the launches come before the load and half after it: the
#: machine's speed drifts over seconds, and launches spread over the
#: whole run sample more of that drift than a burst of them would.
SETUP_LAUNCHES = 9

#: Fixed documents sent before timing, so lazy imports in the server
#: are paid outside the measured window.  Never part of the results.
WARMUP = {
    "serve_chain_open": [{"cell": "LPAA 1", "width": 8}],
    "serve_magnitude_closed": [
        {"cell": "LPAA 1", "width": 8, "kind": "med"},
        {"adder": "aca1:16:4", "kind": "wce"},
        {"adder": "aca1:16:4", "kind": "mred"},
    ],
    "serve_cached_repeat": [{"spec": "LPAA1:4, AccuFA:28"}],
}

#: Clients of ``serve_magnitude_closed``.  One, so that whether a
#: document beats its 1 s deadline depends on that document alone: with
#: two, a document that waits behind the other client's 0.5 s one
#: expires or not by a few milliseconds, and the failure count differs
#: between runs of the same code.  A failed document is followed by the
#: drain document (see ``measure.closed_loop``) for the same reason.
MAGNITUDE_CLIENTS = 1

#: Share of traced end-to-end time the layers' self times must cover.
COVERAGE_FLOOR = 0.9

#: Open-loop runs whose generator ran later than this are void.
GENERATOR_LATE_BOUND_MS = 20.0

_SWEEP_READY = ("import sys; sys.path.insert(0, 'src'); "
                "from repro import engine; "
                "from repro.engine import AnalysisRequest; "
                "print('ready', flush=True)")


class Outcome:
    """Counts and samples of one measured stretch of a workload."""

    def __init__(self) -> None:
        self.attempted = 0
        self.ok = 0
        self.exact = 0
        self.answers = 0
        self.causes: Counter = Counter()
        self.latencies_ms: List[float] = []
        self.wall_s = 0.0
        self.setup_s: List[float] = []
        self.rss_mb = 0.0
        self.layers: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}

    @property
    def answers_per_s(self) -> float:
        return self.answers / self.wall_s if self.wall_s else 0.0

    def details(self) -> Dict[str, object]:
        """What the metric line leaves out: the tail's percentile and
        sample count, other percentiles and the failures by cause."""
        _, pct, n, windows = windowed_tail(self.latencies_ms)
        return {**self.notes, "tail_percentile": pct, "tail_n": n,
                "tail_windows": windows,
                "latency_ms": {f"p{q}": percentile(self.latencies_ms, q)
                               for q in (50, 90, 95, 99)},
                "failed_share": 1 - self.ok / self.attempted,
                "failures": dict(self.causes),
                "setup_samples_s": self.setup_s}

    def end_to_end(self) -> Dict[str, float]:
        return {
            "answers_per_s": self.answers_per_s,
            "latency_p50_ms": median(self.latencies_ms),
            "latency_tail_ms": windowed_tail(self.latencies_ms)[0],
            "correct_share": self.ok / self.attempted,
            "exact_share": self.exact / self.ok if self.ok else 0.0,
            "setup_s": median(self.setup_s),
            "peak_rss_mb": self.rss_mb,
        }


def _fresh_dir(name: str) -> Path:
    path = TMP / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- serve workloads ------------------------------------------------------------

def _server_args(workload: str, tmp: Path) -> List[str]:
    if workload == "serve_cached_repeat":
        return ["--cache-dir", str(tmp / "results"),
                "--segment-cache-dir", str(tmp / "segments")]
    return []


def _warm(server: Server, workload: str) -> None:
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        for doc in WARMUP[workload]:
            conn.request("POST", "/v1/analyze", gen.doc_bytes(doc),
                         {"Content-Type": "application/json"})
            conn.getresponse().read()
    finally:
        conn.close()


def _load(server: Server, workload: str, seed: int,
          seconds: float) -> Tuple[List[Record], float]:
    if workload == "serve_chain_open":
        return open_loop(server.port, gen.chain_open_schedule(seed, seconds),
                         gen.doc_bytes)
    if workload == "serve_magnitude_closed":
        return closed_loop(server.port,
                           iter(gen.magnitude_docs(seed, seconds)), None,
                           gen.doc_bytes, clients=MAGNITUDE_CLIENTS,
                           drain=WARMUP[workload][0])
    return closed_loop(server.port, gen.cached_stream(seed), seconds,
                       gen.doc_bytes)


def _judge(outcome: Outcome, records: Sequence[Record], wall_s: float,
           oracle: Oracle) -> None:
    for record in records:
        ok, cause = oracle.check(record.doc, record.status, record.body)
        outcome.attempted += 1
        outcome.latencies_ms.append(record.latency_s * 1e3)
        if ok:
            outcome.ok += 1
            outcome.answers += 1
            outcome.exact += bool(json.loads(record.body)["exact"])
            # The margin of the slowest answer to a 1 s deadline.
            outcome.notes["slowest_answer_ms"] = max(
                outcome.notes.get("slowest_answer_ms", 0.0),
                record.latency_s * 1e3)
        else:
            outcome.causes[cause] += 1
    outcome.wall_s += wall_s


class ServeRun(NamedTuple):
    #: The measured exchanges, and with them the drain exchanges.
    records: List[Record]
    exchanges: List[Record]
    wall_s: float
    rss_mb: float
    setup_s: float
    before: Optional[Dict]
    after: Optional[Dict]


def _serve_once(workload: str, seed: int, seconds: float, tmp: Path,
                extra_args: Sequence[str] = (),
                metrics: bool = False) -> ServeRun:
    """Start a server, warm it and load it.  With *metrics*, the
    ``/metrics`` snapshots around the measured window come back too."""
    server = Server(ROOT, _server_args(workload, tmp) + list(extra_args),
                    tmp / "server.log")
    setup_s = server.start()
    try:
        _warm(server, workload)
        before = server.get_json("/metrics") if metrics else None
        exchanges, wall = _load(server, workload, seed, seconds)
        after = server.get_json("/metrics") if metrics else None
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    records = [r for r in exchanges if not r.drain]
    return ServeRun(records, exchanges, wall, rss, setup_s, before, after)


def _launches(workload: str, tmp: Path, launches: range) -> List[float]:
    """Set-up seconds of bare server launches, each on fresh dirs."""
    out = []
    for launch in launches:
        server = Server(ROOT, _server_args(workload, tmp / f"s{launch}"),
                        tmp / "server.log")
        out.append(server.start())
        server.stop()
    return out


def measure_serve(workload: str, seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    tmp = _fresh_dir(f"{workload}-{seed}")
    early = SETUP_LAUNCHES // 2
    try:
        outcome.setup_s = _launches(workload, tmp, range(early))
        run = _serve_once(workload, seed, seconds, tmp)
        outcome.setup_s.append(run.setup_s)
        outcome.setup_s += _launches(workload, tmp,
                                     range(early, SETUP_LAUNCHES - 1))
        outcome.rss_mb = run.rss_mb
        _judge(outcome, run.records, run.wall_s, Oracle())
        _check_generator(outcome, run.records)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return outcome


def _check_generator(outcome: Outcome, records: Sequence[Record]) -> float:
    late_ms = max((r.late for r in records), default=0.0) * 1e3
    if any(r.due is not None for r in records):
        outcome.notes["generator_late_ms_max"] = late_ms
        if late_ms > GENERATOR_LATE_BOUND_MS:
            outcome.notes["void"] = (
                f"generator ran {late_ms:.1f} ms late "
                f"(bound {GENERATOR_LATE_BOUND_MS} ms)")
    return late_ms


def _access_log(path: Path) -> Dict[str, float]:
    """``request_id -> handler seconds`` from the server's access log."""
    out: Dict[str, float] = {}
    if path.exists():
        for line in path.read_text().splitlines():
            entry = json.loads(line)
            if entry.get("path") == "/v1/analyze":
                out[entry["request_id"]] = entry["duration_ms"] / 1e3
    return out


def _serve_spans(tracer: Tracer, records: Sequence[Record],
                 handler_s: Dict[str, float]) -> None:
    """One tree per exchange: the client's send and receive, and the
    server's handler time (its access-log duration, ending when the
    response headers arrived)."""
    for r in records:
        root = tracer.add("bench.op", r.start, r.end, None, r.request_id)
        tracer.add("serve.client.send", r.start, r.sent, root, r.request_id)
        duration = handler_s.get(r.request_id or "")
        if duration is not None:
            tracer.add("serve.http.analyze", max(r.sent, r.headers - duration),
                       r.headers, root, r.request_id)
        tracer.add("serve.client.recv", r.headers, r.end, root, r.request_id)


def trace_serve(workload: str, seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    oracle = Oracle()
    half = seconds / 2.0
    tmp = _fresh_dir(f"{workload}-{seed}-trace")
    try:
        plain = Outcome()
        run = _serve_once(workload, seed, half, tmp / "plain")
        _judge(plain, run.records, run.wall_s, oracle)
        access = tmp / "access.jsonl"
        run = _serve_once(workload, seed, half, tmp,
                          ["--access-log", str(access)], metrics=True)
        records = run.records
        _judge(outcome, records, run.wall_s, oracle)
        tracer = Tracer()
        # The server's own figures count the drain exchanges too, so
        # the client side of every comparison with them does as well.
        _serve_spans(tracer, run.exchanges, _access_log(access))
        found = layers.serve_layers(layers.Window(run.before, run.after),
                                    _mean([(r.end - r.start) * 1e3
                                           for r in run.exchanges]))
        answered = [r.doc for r in records if r.status == 200]
        found.update(layers.replay_request_path(answered))
        if workload == "serve_cached_repeat":
            found.update(layers.replay_tiers([r.doc for r in records],
                                             tmp / "results"))
        found["runtime.router.cost_ratio_p50"] = layers.cost_ratio_p50(
            oracle.runs)
        found["bench.generator_late_ms_max"] = _check_generator(outcome,
                                                                records)
        if workload == "serve_chain_open":
            # Arrivals fix the throughput of an open loop, so tracing
            # shows up as latency instead.
            found["bench.trace_overhead_share"] = (
                median(outcome.latencies_ms) / median(plain.latencies_ms)
                - 1.0)
        else:
            found["bench.trace_overhead_share"] = (
                1.0 - outcome.answers_per_s / plain.answers_per_s)
        found["bench.layer_coverage_share"] = _coverage(outcome, tracer)
        tracer.write(OUT / f"trace-{workload}-{seed}.json")
        _merge(outcome, plain)
        outcome.layers = found
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return outcome


def _coverage(outcome: Outcome, tracer: Tracer,
              unnamed: Sequence[str] = ()) -> float:
    """The accounting check: named layers' self time must cover at
    least :data:`COVERAGE_FLOOR` of the traced end-to-end time."""
    share = tracer.coverage("bench.op", unnamed)
    outcome.notes["coverage_check"] = ("pass" if share >= COVERAGE_FLOOR
                                       else "fail")
    return share


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _merge(outcome: Outcome, other: Outcome) -> None:
    """Fold *other*'s verdict counts into *outcome* (timings stay)."""
    outcome.attempted += other.attempted
    outcome.ok += other.ok
    outcome.causes.update(other.causes)


# -- sweep_hybrid -------------------------------------------------------------

class SweepOp:
    __slots__ = ("spec", "traced", "start", "built", "end", "p_success",
                 "p_error", "engines")


def _sweep_setup() -> float:
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _SWEEP_READY], cwd=ROOT,
                            stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        proc.stdout.close()
        proc.wait(60)
    if line.strip() != b"ready":
        raise RuntimeError("library set-up process did not get ready")
    return elapsed


def _sweep_requests(spec: str, grid: Sequence[float]
                    ) -> List[AnalysisRequest]:
    chain = HybridChain.from_spec(spec)
    return [AnalysisRequest.chain(chain, p_a=a, p_b=b)
            for a in grid for b in grid]


def _sweep_loop(seed: int, seconds: float,
                tracer: Optional[Tracer] = None) -> Tuple[List[SweepOp],
                                                          float]:
    """Run designs until *seconds* pass: one ``run_batch`` each.

    With a *tracer*, every other design is traced (spans recorded,
    kernel wrappers live, the metric registry on) and the rest run
    untraced.  The machine's speed drifts over seconds, so alternating
    puts both kinds at the same speed and their costs compare fairly.
    """
    grid = gen.sweep_grid(seed)
    designs = gen.sweep_designs(seed)
    ops: List[SweepOp] = []
    started = time.perf_counter()
    stop_at = started + seconds
    with _traced_kernels(tracer) as current:
        while time.perf_counter() < stop_at:
            op = SweepOp()
            op.spec = next(designs)
            op.traced = tracer is not None and len(ops) % 2 == 0
            if op.traced:
                root, current["parent"] = tracer.new_id(), tracer.new_id()
                obs_metrics.enable()
            op.start = time.perf_counter()
            requests = _sweep_requests(op.spec, grid)
            op.built = time.perf_counter()
            results = engine.run_batch(requests, parallelism="off")
            op.end = time.perf_counter()
            op.p_success = np.fromiter((r.p_success for r in results),
                                       float, len(results))
            op.p_error = np.fromiter((r.p_error for r in results), float,
                                     len(results))
            op.engines = {(r.engine, r.exact) for r in results}
            ops.append(op)
            if op.traced:
                obs_metrics.disable()
                tracer.add("bench.op", op.start, op.end, span_id=root)
                tracer.add("engine.request.build", op.start, op.built, root)
                tracer.add("engine.executor.run_batch", op.built, op.end,
                           root, span_id=current["parent"])
                current["parent"] = 0
    return ops, ops[-1].end - started


@contextmanager
def _traced_kernels(tracer: Optional[Tracer]) -> Iterator[Dict[str, int]]:
    """Spans around the compute kernel and the stage-mask cache as
    ``run_batch`` calls them, by wrapping the two public functions while
    the traced loop runs.  The yielded dict names the span to parent
    them under (0: the current op is untraced, so the wrappers only pass
    the call on); without a tracer nothing is wrapped."""
    current: Dict[str, int] = {"parent": 0}
    if tracer is None:
        yield current
        return
    import repro.core.vectorized as vectorized
    import repro.engine.executor as executor

    kernel, masks = vectorized.analyze_batch, executor.mask_arrays

    def traced_kernel(*args, **kwargs):
        if not current["parent"]:
            return kernel(*args, **kwargs)
        with tracer.span("core.vectorized.analyze_batch", current["parent"]):
            return kernel(*args, **kwargs)

    def traced_masks(*args, **kwargs):
        if not current["parent"]:
            return masks(*args, **kwargs)
        with tracer.span("engine.cache.mask_arrays", current["parent"]):
            return masks(*args, **kwargs)

    vectorized.analyze_batch, executor.mask_arrays = (traced_kernel,
                                                      traced_masks)
    try:
        yield current
    finally:
        vectorized.analyze_batch, executor.mask_arrays = kernel, masks


def _judge_sweep(outcome: Outcome, ops: Sequence[SweepOp], grid, seed: int,
                 floor_us: Optional[List[float]] = None) -> None:
    """Each op's 1024 answers against the vectorized kernel over the
    same grid (every row), and eight seeded rows against ``engine.run``
    forcing the same engine (bit-identical) and against the scalar
    recursion, which shares no kernel with it (within
    ``oracle.CHAIN_ULPS_PER_STAGE`` ulps per stage)."""
    import random

    from repro.core.vectorized import analyze_batch
    from repro.engine.cache import mask_arrays

    rng = random.Random(f"perfbench:sweep_hybrid:spot:{seed}")
    side = len(grid)
    pa_rows = np.repeat(np.array(grid), side)
    pb_rows = np.tile(np.array(grid), side)
    references: Dict[str, np.ndarray] = {}
    for op in ops:
        ref = references.get(op.spec)
        if ref is None:
            cells = list(HybridChain.from_spec(op.spec).cells)
            masks = [mask_arrays(t) for t in cells]
            pa = np.repeat(pa_rows[:, None], len(cells), axis=1)
            pb = np.repeat(pb_rows[:, None], len(cells), axis=1)
            started = time.perf_counter()
            ref = analyze_batch(cells, None, pa, pb, np.full(side * side, 0.5),
                                batch=side * side, matrices=masks)
            if floor_us is not None:
                floor_us.append((time.perf_counter() - started) * 1e6
                                / (side * side))
            ref = np.minimum(1.0, np.maximum(0.0, ref))
            references[op.spec] = ref
        ok = (op.engines == {("vectorized", True)}
              and np.array_equal(op.p_success, ref)
              and np.array_equal(op.p_error, 1.0 - ref))
        chain = HybridChain.from_spec(op.spec)
        for row in rng.sample(range(side * side), 8):
            request = AnalysisRequest.chain(chain, p_a=grid[row // side],
                                            p_b=grid[row % side])
            served = float(op.p_success[row])
            forced = engine.run(request, engine="vectorized")
            recursion = engine.run(request, engine="recursive")
            ok = (ok and forced.p_success == served
                  and ulp_close(served, recursion.p_success,
                                request.width))
        outcome.attempted += 1
        outcome.latencies_ms.append((op.end - op.start) * 1e3)
        if ok:
            outcome.ok += 1
            outcome.exact += 1
            outcome.answers += len(op.p_success)
        else:
            outcome.causes["wrong"] += 1


def _warm_sweep(seed: int) -> None:
    engine.run_batch(_sweep_requests("LPAA1:8, AccuFA:8",
                                     gen.sweep_grid(seed)),
                     parallelism="off")


def measure_sweep(seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    early = SETUP_LAUNCHES // 2
    outcome.setup_s = [_sweep_setup() for _ in range(early)]
    _warm_sweep(seed)
    ops, wall = _sweep_loop(seed, seconds)
    outcome.rss_mb = peak_rss_mb()
    outcome.setup_s += [_sweep_setup()
                        for _ in range(SETUP_LAUNCHES - early)]
    outcome.wall_s = wall
    _judge_sweep(outcome, ops, gen.sweep_grid(seed), seed)
    return outcome


def trace_sweep(seed: int, seconds: float) -> Outcome:
    grid = gen.sweep_grid(seed)
    _warm_sweep(seed)
    outcome = Outcome()
    tracer = Tracer()
    registry = obs_metrics.get_registry()
    try:
        before = registry.snapshot()
        every, outcome.wall_s = _sweep_loop(seed, seconds, tracer)
        after = registry.snapshot()
    finally:
        obs_metrics.disable()
    floor_us: List[float] = []
    _judge_sweep(outcome, every, grid, seed, floor_us)
    ops = [op for op in every if op.traced]
    plain_s = _mean([op.end - op.start for op in every if not op.traced])
    found = layers.engine_layers(layers.Window(before, after))
    per_config = float(len(grid) ** 2)
    docs = [{"spec": op.spec, "p_a": grid[i % len(grid)],
             "p_b": grid[(i * 7) % len(grid)]}
            for i, op in enumerate(ops)]
    replay = layers.replay_request_path(docs)
    found.update({
        "engine.request.build_us": median(
            [(op.built - op.start) * 1e6 / per_config for op in ops]),
        "engine.executor.run_batch_us_per_config": median(
            [(op.end - op.built) * 1e6 / per_config for op in ops]),
        "core.vectorized.floor_us_per_config": (median(floor_us)
                                                if floor_us else 0.0),
        "engine.executor.select_us": replay["engine.executor.select_us"],
        "engine.executor.run_us": replay["engine.executor.run_us"],
        # Every op carries the same 1024 answers, so the throughput
        # ratio is the inverse ratio of mean op times.
        "bench.trace_overhead_share": 1.0 - plain_s / _mean(
            [op.end - op.start for op in ops]),
        # run_batch's span only fills the gap between the request build
        # and the op's end, so its self time is unaccounted for.
        "bench.layer_coverage_share": _coverage(
            outcome, tracer, unnamed=("engine.executor.run_batch",)),
    })
    tracer.write(OUT / f"trace-sweep_hybrid-{seed}.json")
    outcome.layers = found
    return outcome


def measure_workload(workload: str, seed: int, seconds: float) -> Outcome:
    if workload == "sweep_hybrid":
        return measure_sweep(seed, seconds)
    return measure_serve(workload, seed, seconds)


def trace_workload(workload: str, seed: int, seconds: float) -> Outcome:
    if workload == "sweep_hybrid":
        return trace_sweep(seed, seconds)
    return trace_serve(workload, seed, seconds)
