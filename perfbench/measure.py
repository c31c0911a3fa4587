"""Measurement plumbing: statistics, spans, the server process and the
HTTP load loops.

Everything here runs in the benchmark's own process.  The server under
test is a separate ``python -m repro.cli serve`` process, so the load
generator's interpreter lock is never what gets measured; the loops use
at most two connections (one per thread) on this two-core budget.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: The latency tail's percentile (see :func:`tail`).
TAIL_PERCENTILE = 90.0

#: The windowed tail cuts a run into windows of at least this many
#: samples, at most :data:`TAIL_WINDOWS_MAX` of them.
TAIL_WINDOW_MIN = 200
TAIL_WINDOWS_MAX = 5

#: Connections (threads) the serve loops open: the machine's two cores.
CLIENTS = 2


# -- statistics -------------------------------------------------------------

def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (which need not be sorted)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil, at least 1
    return ordered[int(min(rank, len(ordered))) - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` for the latency tail.

    :data:`TAIL_PERCENTILE`, which leaves at least ten samples beyond it
    from 100 samples up; below that, the highest percentile that does
    (the eleventh-largest value).  Higher percentiles are set by a run's
    few worst bursts and swing by a third between runs on a shared
    machine, more than any bound the benchmark can fix.
    """
    n = len(values)
    if n * (100.0 - TAIL_PERCENTILE) / 100.0 >= 10:
        return percentile(values, TAIL_PERCENTILE), TAIL_PERCENTILE, n
    ordered = sorted(values)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def windowed_tail(values: Sequence[float]) -> Tuple[float, float, int, int]:
    """``(value, percentile, n, windows)``: the median, over consecutive
    windows of *values* (in the order they were taken), of each
    window's :func:`tail`.

    A run is cut into as many windows of at least
    :data:`TAIL_WINDOW_MIN` samples as it holds, at most
    :data:`TAIL_WINDOWS_MAX`; a shorter run is one window, and the
    value is its plain :func:`tail`.  A contended second on a shared
    machine, or one burst of arrivals, then moves one window's tail and
    not the median of five.
    """
    n = len(values)
    windows = max(1, min(TAIL_WINDOWS_MAX, n // TAIL_WINDOW_MIN))
    parts = [tail(values[i * n // windows:(i + 1) * n // windows])
             for i in range(windows)]
    return median([part[0] for part in parts]), parts[0][1], n, windows


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of *pid* (default: this process)."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# -- spans --------------------------------------------------------------------

class Tracer:
    """In-memory spans: name, start, end, parent and request id.

    Spans are appended from any thread and written out once, at exit.
    A span's *self time* is its duration minus the part of it that its
    children cover.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None,
            request_id: Optional[str] = None,
            span_id: Optional[int] = None) -> int:
        span_id = span_id or self.new_id()
        self.spans.append({"id": span_id, "name": name, "start": start,
                           "end": end, "parent": parent,
                           "request_id": request_id})
        return span_id

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             request_id: Optional[str] = None) -> Iterator[Dict[str, object]]:
        record = {"id": self.new_id(), "name": name,
                  "start": time.perf_counter(), "end": None,
                  "parent": parent, "request_id": request_id}
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.spans.append(record)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(
                    (span["start"], span["end"]))
        totals: Dict[str, float] = {}
        for span in self.spans:
            start, end = span["start"], span["end"]
            covered, cursor = 0.0, start
            for c_start, c_end in sorted(children.get(span["id"], ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            totals[span["name"]] = (totals.get(span["name"], 0.0)
                                    + (end - start) - covered)
        return totals

    def coverage(self, root: str, unnamed: Sequence[str] = ()) -> float:
        """Share of the *root* spans' time covered by named layers: one
        minus the self time of the roots, and of the *unnamed* spans,
        over the roots' total duration.  A span goes in *unnamed* when
        its interval is not measured apart from its parent's (it only
        fills the gap between sibling spans), so its self time is time
        no layer accounts for."""
        total = sum(s["end"] - s["start"] for s in self.spans
                    if s["name"] == root)
        if total <= 0:
            return 0.0
        selfs = self.self_times()
        uncovered = sum(selfs.get(name, 0.0) for name in (root, *unnamed))
        return 1.0 - uncovered / total

    def write(self, path: Path) -> None:
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        events = [{"name": s["name"], "ph": "X", "pid": 1, "tid": 1,
                   "ts": s["start"] * 1e6,
                   "dur": (s["end"] - s["start"]) * 1e6,
                   "args": {"id": s["id"], "parent": s["parent"],
                            "request_id": s["request_id"]}}
                  for s in self.spans]
        path.write_text(json.dumps({"traceEvents": events}))


# -- the server process -----------------------------------------------------

class Server:
    """One ``python -m repro.cli serve --port 0`` process."""

    def __init__(self, root: Path, extra_args: Sequence[str],
                 log_path: Path) -> None:
        self.root = root
        self.extra_args = list(extra_args)
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> float:
        """Launch and wait until the listener is bound; returns the
        seconds from launch to ready."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        log = open(self.log_path, "ab")
        started = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 *self.extra_args],
                cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log,
            )
        finally:
            log.close()
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        line = self.proc.stdout.readline().decode() if ready else ""
        elapsed = time.perf_counter() - started
        if "serving on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])
        return elapsed

    def get_json(self, path: str) -> Dict[str, object]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
            if resp.status != 200:
                raise RuntimeError(f"GET {path} -> {resp.status}")
            return json.loads(body)
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self, timeout_s: float = 15.0) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout_s)
        proc.stdout.close()


# -- HTTP load loops --------------------------------------------------------

class Record:
    """One ``/v1/analyze`` exchange as the client saw it."""

    __slots__ = ("index", "doc", "due", "start", "sent", "headers", "end",
                 "status", "body", "request_id", "late", "drain")

    def __init__(self, index: int, doc: Dict[str, object],
                 due: Optional[float], drain: bool = False) -> None:
        self.index, self.doc, self.due = index, doc, due
        #: A drain exchange (see :func:`closed_loop`), not a measured one.
        self.drain = drain
        self.start = self.sent = self.headers = self.end = 0.0
        self.status = 0
        self.body = b""
        self.request_id: Optional[str] = None
        self.late = 0.0

    @property
    def latency_s(self) -> float:
        """From when the request was due (open loop) or sent (closed)."""
        return self.end - (self.due if self.due is not None else self.start)


def _exchange(conn: http.client.HTTPConnection, record: Record,
              body: bytes) -> None:
    record.start = time.perf_counter()
    conn.request("POST", "/v1/analyze", body,
                 {"Content-Type": "application/json"})
    record.sent = time.perf_counter()
    resp = conn.getresponse()
    record.headers = time.perf_counter()
    record.body = resp.read()
    record.end = time.perf_counter()
    record.status = resp.status
    record.request_id = resp.getheader("X-Request-Id")


def _run_clients(port: int, worker: Callable[[http.client.HTTPConnection],
                                             None],
                 clients: int = CLIENTS) -> None:
    errors: List[BaseException] = []

    def body() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            worker(conn)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=body, daemon=True)
               for _ in range(clients)]
    # The client's own collector pauses would read as server latency.
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
    if errors:
        raise errors[0]


def closed_loop(port: int, stream: Iterator[Dict[str, object]],
                seconds: Optional[float],
                encode: Callable[[Dict[str, object]], bytes],
                clients: int = CLIENTS,
                drain: Optional[Dict[str, object]] = None
                ) -> Tuple[List[Record], float]:
    """*clients* clients, each sending its next document as soon as the
    previous answer arrives, until *seconds* have passed (or, with
    ``None``, until *stream* runs out).  Returns the records and the
    wall time until the last answer.

    With a *drain* document, a client whose exchange failed sends it
    (with no deadline) and waits for its answer before going on.  The
    server answers in arrival order, so the answer means that the work
    the failed request left running has ended; the next document then
    starts on an idle server instead of expiring behind that work.  The
    drain exchanges come back among the records, after the failed one
    and marked ``drain``, and their time is in the wall time."""
    lock = threading.Lock()
    records: List[Record] = []
    counter = itertools.count()
    started = time.perf_counter()
    stop_at = started + seconds if seconds is not None else float("inf")
    drain_body = encode(drain) if drain is not None else b""

    def worker(conn: http.client.HTTPConnection) -> None:
        while time.perf_counter() < stop_at:
            with lock:
                doc = next(stream, None)
                if doc is None:
                    return
                record = Record(next(counter), doc, None)
            _exchange(conn, record, encode(record.doc))
            records.append(record)
            if drain is not None and record.status != 200:
                probe = Record(record.index, drain, None, drain=True)
                _exchange(conn, probe, drain_body)
                records.append(probe)
                if probe.status != 200:
                    raise RuntimeError(
                        f"drain document answered {probe.status}")

    _run_clients(port, worker, clients)
    records.sort(key=lambda r: (r.index, r.drain))
    return records, max(r.end for r in records) - started


def open_loop(port: int, schedule: Sequence[Tuple[float, Dict[str, object]]],
              encode: Callable[[Dict[str, object]], bytes]
              ) -> Tuple[List[Record], float]:
    """Send each document at its due time on whichever of the
    :data:`CLIENTS` connections is free; latency counts from the due
    time, so a stall also charges the requests queued behind it.
    ``Record.late`` is the generator's own lag: how long after
    ``max(due, connection free)`` the send actually began."""
    lock = threading.Lock()
    bodies = [encode(doc) for _, doc in schedule]
    pending = iter(range(len(schedule)))
    records: List[Record] = []
    started = time.perf_counter() + 0.01

    def worker(conn: http.client.HTTPConnection) -> None:
        while True:
            with lock:
                index = next(pending, None)
            if index is None:
                return
            free_at = time.perf_counter()
            due = started + schedule[index][0]
            record = Record(index, schedule[index][1], due)
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            _exchange(conn, record, bodies[index])
            record.late = record.start - max(due, free_at)
            records.append(record)

    _run_clients(port, worker)
    records.sort(key=lambda r: r.index)
    return records, max(r.end for r in records) - started
