"""Batching core: parsing, coalescing, shedding, deadlines, drain."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import engine
from repro.core.exceptions import AnalysisError
from repro.serve import (
    AnalysisService,
    ClosingError,
    DeadlineError,
    OverloadedError,
    RequestParseError,
    ServeConfig,
    parse_analysis_doc,
    parse_deadline,
    result_to_doc,
)


@pytest.fixture(autouse=True)
def _no_process_cache():
    engine.disable_result_cache()
    yield
    engine.disable_result_cache()


class TestServeConfig:
    def test_defaults_validate(self):
        config = ServeConfig()
        assert config.max_batch == 64 and config.queue_limit == 1024

    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0},
        {"queue_limit": 0},
        {"batch_window_s": -0.1},
        {"retry_after_s": -1.0},
        {"default_deadline_s": -2.0},
        {"port": 70000},
    ] + [
        {name: value}
        for name in ("batch_window_s", "retry_after_s", "drain_grace_s",
                     "default_deadline_s", "breaker_reset_s",
                     "rate_limit_rps", "rate_limit_burst")
        for value in (float("nan"), float("inf"))
    ])
    def test_bad_knobs_fail_at_construction(self, kwargs):
        with pytest.raises(AnalysisError):
            ServeConfig(**kwargs)


class TestParseAnalysisDoc:
    def test_cell_plus_width(self):
        request = parse_analysis_doc({"cell": "LPAA 1", "width": 4,
                                      "p_a": 0.3})
        assert request.width == 4
        assert request.p_a == (0.3,) * 4

    def test_per_stage_cells_list(self):
        request = parse_analysis_doc(
            {"cells": ["LPAA 7", "LPAA 7", "LPAA 1"]}
        )
        assert request.cell_names == ("LPAA 7", "LPAA 7", "LPAA 1")

    def test_hybrid_spec_string(self):
        request = parse_analysis_doc({"spec": "LPAA7:2, LPAA1:2"})
        assert request.width == 4

    def test_named_zoo_adder(self):
        request = parse_analysis_doc({"adder": "aca1:8:4"})
        assert request.block is not None
        assert request.width == 8
        assert request.p_cin == 0.0

    def test_chain_represented_zoo_adder(self):
        request = parse_analysis_doc({"adder": "loa:8:4", "p_a": 0.3})
        assert request.block is None
        assert request.width == 8
        assert request.p_a == (0.3,) * 8

    def test_zoo_adder_with_kind(self):
        request = parse_analysis_doc({"adder": "gda:8:2:2", "kind": "med"})
        assert request.kind == "med"

    @pytest.mark.parametrize("doc,match", [
        ([1, 2], "JSON object"),
        ({}, "exactly one"),
        ({"cell": "LPAA 1", "cells": ["LPAA 1"], "width": 2}, "exactly one"),
        ({"cell": "LPAA 1"}, "width"),
        ({"cells": []}, "exactly one"),
        ({"cells": "LPAA 1"}, "non-empty list"),
        ({"spec": "NOPE:banana"}, "bad chain spec"),
        ({"cell": "LPAA 1", "width": 4, "sneaky": 1}, "unknown"),
        ({"adder": "nope:8"}, "unknown adder family"),
        ({"adder": "aca1:8:4", "cell": "LPAA 1", "width": 4},
         "exactly one"),
        ({"adder": "aca1:8:4", "p_cin": 0.5}, "carry-in 0"),
        ({"cell": "LPAA 1", "width": 4, "p_a": 1.5}, "."),
    ])
    def test_malformed_docs_raise_parse_errors(self, doc, match):
        with pytest.raises(RequestParseError, match=match):
            parse_analysis_doc(doc)

    def test_parse_happens_before_any_queueing(self):
        # A parse error must not require a running service.
        with pytest.raises(RequestParseError):
            parse_analysis_doc({"cell": "NO SUCH CELL", "width": 4})


class TestParseDeadline:
    def test_falls_back_to_configured_default(self):
        assert parse_deadline({}, 2.5) == 2.5
        assert parse_deadline({}, None) is None

    def test_client_deadline_wins(self):
        assert parse_deadline({"deadline_s": 0.25}, 9.0) == 0.25

    @pytest.mark.parametrize("value", ["soon", -1.0, 0.0, 1e9])
    def test_bad_deadlines_are_rejected(self, value):
        with pytest.raises(RequestParseError):
            parse_deadline({"deadline_s": value}, None)


class TestResultDoc:
    def test_matches_engine_answer(self):
        request = parse_analysis_doc({"cell": "LPAA 2", "width": 5})
        doc = result_to_doc(engine.run(request))
        assert doc["p_error"] == engine.run(request).p_error
        assert doc["width"] == 5
        assert doc["cells"] == ["LPAA 2"] * 5
        assert doc["exact"] is True


def _run(coro):
    return asyncio.run(coro)


def _doc(width=4, p_a=0.3):
    return parse_analysis_doc({"cell": "LPAA 1", "width": width, "p_a": p_a})


def _hold_first_batch(monkeypatch):
    """Make the first engine dispatch block until the event is set.

    Returns ``(calls, release)``: the size of every dispatched batch, in
    order, and the event that lets the first one finish.
    """
    real_run_batch = engine.run_batch
    release = threading.Event()
    calls = []

    def held_run_batch(requests, *args, **kwargs):
        calls.append(len(requests))
        if len(calls) == 1:
            release.wait(timeout=10)
        return real_run_batch(requests, *args, **kwargs)

    monkeypatch.setattr(engine, "run_batch", held_run_batch)
    return calls, release


class TestAnalysisService:
    def test_submit_before_start_fails(self):
        async def scenario():
            service = AnalysisService(ServeConfig())
            with pytest.raises(AnalysisError):
                await service.submit(_doc())
        _run(scenario())

    def test_single_request_roundtrip(self):
        async def scenario():
            service = AnalysisService(ServeConfig(batch_window_s=0.001))
            await service.start()
            result = await service.submit(_doc())
            await service.drain()
            return result
        result = _run(scenario())
        # The service always dispatches through run_batch, so its answer
        # is bit-identical to the batch path (not necessarily to the
        # scalar path, whose engine choice may differ at the last ULP).
        assert result.p_error == engine.run_batch([_doc()])[0].p_error

    def test_concurrent_submissions_coalesce_into_fewer_batches(self):
        async def scenario():
            service = AnalysisService(
                ServeConfig(max_batch=32, batch_window_s=0.05)
            )
            await service.start()
            answers = await asyncio.gather(*[
                service.submit(_doc(p_a=i / 10)) for i in range(1, 9)
            ])
            stats = service.stats()
            await service.drain()
            return answers, stats
        answers, stats = _run(scenario())
        assert len(answers) == 8
        assert stats["served"] == 8
        assert stats["batches"] < 8, "requests must share engine batches"

    def test_lone_request_skips_the_batch_window(self):
        async def scenario():
            service = AnalysisService(ServeConfig(batch_window_s=0.5))
            await service.start()
            started = time.perf_counter()
            result = await service.submit(_doc())
            elapsed = time.perf_counter() - started
            await service.drain()
            return result, elapsed
        result, elapsed = _run(scenario())
        assert result.exact
        # A request that finds the service idle must not sleep through
        # the window waiting for companions that never come.
        assert elapsed < 0.25

    def test_requests_queued_behind_a_batch_share_the_next_one(
            self, monkeypatch):
        calls, release = _hold_first_batch(monkeypatch)

        async def scenario():
            service = AnalysisService(
                ServeConfig(max_batch=32, batch_window_s=0.05)
            )
            await service.start()
            lone = asyncio.ensure_future(service.submit(_doc(p_a=0.1)))
            while not calls:  # the lone request is now in the engine
                await asyncio.sleep(0.001)
            queued = [
                asyncio.ensure_future(service.submit(_doc(p_a=i / 10)))
                for i in range(2, 8)
            ]
            await asyncio.sleep(0.01)  # all six are queued behind it
            release.set()
            answers = await asyncio.gather(lone, *queued)
            stats = service.stats()
            await service.drain()
            return answers, stats
        answers, stats = _run(scenario())
        assert len(answers) == 7
        assert calls == [1, 6]
        assert stats["batches"] == 2
        assert stats["served"] == 7

    def test_window_holds_a_queued_batch_open_for_late_arrivals(
            self, monkeypatch):
        calls, release = _hold_first_batch(monkeypatch)

        async def scenario():
            service = AnalysisService(
                ServeConfig(max_batch=6, batch_window_s=5.0)
            )
            await service.start()
            futures = [asyncio.ensure_future(service.submit(_doc(p_a=0.1)))]
            while not calls:
                await asyncio.sleep(0.001)
            futures.append(
                asyncio.ensure_future(service.submit(_doc(p_a=0.2))))
            await asyncio.sleep(0.01)
            release.set()
            # The queued request is taken and its batch held open...
            while service.stats()["queue_depth"]:
                await asyncio.sleep(0.001)
            assert len(calls) == 1
            # ...so arrivals after that still join it (max_batch closes
            # it at once, well inside the window).
            futures += [
                asyncio.ensure_future(service.submit(_doc(p_a=i / 10)))
                for i in range(3, 8)
            ]
            await asyncio.gather(*futures)
            await service.drain()
        _run(scenario())
        assert calls == [1, 6]

    def test_batch_answers_match_serial_engine_runs(self):
        docs = [_doc(width=w, p_a=0.4) for w in (2, 3, 4, 5)]
        expected = [r.p_error for r in engine.run_batch(docs)]

        async def scenario():
            service = AnalysisService(
                ServeConfig(max_batch=16, batch_window_s=0.05)
            )
            await service.start()
            answers = await asyncio.gather(*[service.submit(d) for d in docs])
            await service.drain()
            return [a.p_error for a in answers]
        assert _run(scenario()) == expected

    def test_full_queue_sheds_with_overloaded_error(self):
        async def scenario():
            service = AnalysisService(
                ServeConfig(queue_limit=2, retry_after_s=0.125)
            )
            await service.start()
            service._dispatcher.cancel()  # freeze the queue deliberately
            futures = [
                asyncio.ensure_future(service.submit(_doc(p_a=i / 10)))
                for i in range(1, 3)
            ]
            await asyncio.sleep(0)  # let both enqueue
            with pytest.raises(OverloadedError) as exc_info:
                await service.submit(_doc(p_a=0.9))
            for future in futures:
                future.cancel()
            return exc_info.value, service.stats()
        error, stats = _run(scenario())
        assert error.retry_after_s == 0.125
        assert stats["shed"] == 1

    def test_queued_deadline_expiry_raises_deadline_error(self):
        async def scenario():
            service = AnalysisService(ServeConfig())
            await service.start()
            service._dispatcher.cancel()  # nothing will ever run
            with pytest.raises(DeadlineError):
                await service.submit(_doc(), deadline_s=0.05)
        _run(scenario())

    def test_drain_refuses_new_work_and_finishes_queued(self):
        async def scenario():
            service = AnalysisService(ServeConfig(batch_window_s=0.001))
            await service.start()
            answer = await service.submit(_doc())
            await service.drain()
            assert service.draining
            with pytest.raises(ClosingError):
                await service.submit(_doc())
            return answer, service.stats()
        answer, stats = _run(scenario())
        assert answer.exact
        assert stats["draining"] is True

    def test_drain_fails_leftover_queued_requests(self):
        async def scenario():
            service = AnalysisService(ServeConfig(drain_grace_s=0.05))
            await service.start()
            service._dispatcher.cancel()  # queue can never empty
            future = asyncio.ensure_future(service.submit(_doc()))
            await asyncio.sleep(0)
            await service.drain()
            with pytest.raises(ClosingError):
                await future
        _run(scenario())

    def test_engine_failure_fails_the_batch_not_the_service(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        async def scenario():
            service = AnalysisService(ServeConfig(batch_window_s=0.001))
            await service.start()
            monkeypatch.setattr(engine, "run_batch", boom)
            with pytest.raises(RuntimeError, match="engine exploded"):
                await service.submit(_doc())
            monkeypatch.undo()
            # The dispatcher survived: the next request still works.
            result = await service.submit(_doc())
            await service.drain()
            return result
        assert _run(scenario()).exact

    def test_stats_include_result_cache_when_mounted(self, tmp_path):
        async def scenario():
            service = AnalysisService(
                ServeConfig(batch_window_s=0.001, cache_dir=str(tmp_path))
            )
            await service.start()
            await service.submit(_doc())
            stats = service.stats()
            await service.drain()
            return stats
        stats = _run(scenario())
        assert stats["result_cache"]["disk"]["writes"] == 1
