"""Unit tests for the single-lane request dispatcher."""

from __future__ import annotations

import pytest

from repro.obs import tracing
from repro.service.scheduler import MicroBatcher


def echo_handler(payload):
    return ("echo", payload)


class TestSynchronousMode:
    def test_run_dispatches_inline(self):
        batcher = MicroBatcher({"echo": echo_handler}, start=False)
        assert batcher.run("echo", 1) == ("echo", 1)
        assert batcher.stats()["requests"] == 1

    def test_flush_serves_each_pending_future_with_one_call(self):
        calls: list = []

        def handler(payload):
            calls.append(payload)
            return ("echo", payload)

        batcher = MicroBatcher({"echo": handler}, start=False)
        futures = [batcher.submit("echo", i) for i in range(5)]
        served = batcher.flush()
        assert served == 5
        assert [f.result(timeout=1) for f in futures] == [("echo", i) for i in range(5)]
        assert calls == list(range(5))
        assert batcher.stats()["batches"] == 5

    def test_unknown_kind_rejected(self):
        batcher = MicroBatcher({"echo": echo_handler}, start=False)
        with pytest.raises(KeyError):
            batcher.submit("nope", 1)

    def test_handler_exception_reaches_only_its_own_future(self):
        def fussy(payload):
            if payload == "bad":
                raise RuntimeError("broken request")
            return ("fussy", payload)

        batcher = MicroBatcher({"fussy": fussy, "echo": echo_handler}, start=False)
        before = batcher.submit("fussy", "ok-1")
        bad = batcher.submit("fussy", "bad")
        after = batcher.submit("fussy", "ok-2")
        other = batcher.submit("echo", "fine")
        batcher.flush()
        with pytest.raises(RuntimeError, match="broken request"):
            bad.result(timeout=1)
        assert before.result(timeout=1) == ("fussy", "ok-1")
        assert after.result(timeout=1) == ("fussy", "ok-2")
        assert other.result(timeout=1) == ("echo", "fine")

    def test_each_traced_request_gets_its_own_spans(self):
        batcher = MicroBatcher({"echo": echo_handler}, start=False)
        # two requests from two open traces wait in the queue together
        with tracing.trace("first") as first:
            batcher.submit("echo", 1)
            with tracing.trace("second") as second:
                batcher.submit("echo", 2)
                assert batcher.flush() == 2
        for tid in (first, second):
            names = [s["name"] for s in tracing.get_tracer().get(tid)["spans"]]
            assert names.count("queue_wait") == 1
            assert names.count("compute") == 1


class TestBackgroundMode:
    def test_close_is_idempotent_and_flushes(self):
        batcher = MicroBatcher({"echo": echo_handler}, start=True)
        batcher.close()
        batcher.close()
        assert batcher.stats()["background"] is False

    def test_context_manager(self):
        with MicroBatcher({"echo": echo_handler}, start=True) as batcher:
            assert batcher.run("echo", "x") == ("echo", "x")
