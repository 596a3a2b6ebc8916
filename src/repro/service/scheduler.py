"""Single-lane request dispatcher for the explanation service.

Every engine access of a session runs on one dispatch thread: callers
submit ``(kind, payload)`` work items and block on a future, and
:class:`MicroBatcher` hands each queued item to its registered handler
by itself, under the caller's own trace context and deadline.  One lane
is what makes a session thread-safe without a global lock — reads and
writes serialize through it — and it is where load is shed: the queue is
bounded, and an item whose deadline passed while queued fails fast
instead of being computed.

Handlers are plain ``handler(payload) -> result`` callables registered
by the session, so the dispatcher is testable without a model and
reusable for new request kinds.  ``flush()`` drains synchronously for
deterministic single-threaded use (the dispatcher never *requires* its
background thread).
"""

from __future__ import annotations

import os
import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Mapping

from repro.obs import metrics as _obs
from repro.obs import tracing as _tracing
from repro.utils import deadline as _deadline
from repro.utils.exceptions import DeadlineExceededError, OverloadedError

#: queue item: (kind, payload, future, enqueued_perf, trace context,
#: absolute monotonic deadline or None).
_Item = tuple[str, Any, Future, float, "dict | None", "float | None"]

#: default bound on queued-but-undispatched requests when the caller
#: doesn't pass ``max_queue``; 0 or negative disables the bound.
DEFAULT_MAX_QUEUE = 1024

# Per-kind instruments are created lazily at first dispatch; declare the
# families up front so /metrics advertises them from the first scrape.
_obs.get_registry().declare(
    "repro_batcher_queue_wait_seconds",
    "histogram",
    "Time a request spent queued before its handler ran.",
)
_obs.get_registry().declare(
    "repro_batcher_compute_seconds",
    "histogram",
    "Handler wall time for one dispatched request.",
)
_obs.get_registry().declare(
    "repro_batcher_requests_total",
    "counter",
    "Requests served through the micro-batcher.",
)
_BATCHES_TOTAL = _obs.get_registry().counter(
    "repro_batcher_batches_total",
    "Handler calls executed by the micro-batcher.",
)
_SHED_TOTAL = _obs.get_registry().counter(
    "repro_batcher_shed_total",
    "Requests rejected at submit because the bounded queue was full.",
)
_EXPIRED_TOTAL = _obs.get_registry().counter(
    "repro_batcher_expired_total",
    "Queued requests failed fast because their deadline passed in queue.",
)

#: per-kind instrument cache: label formatting + registry lookup happen
#: once per kind, not once per request (GIL-atomic dict ops; a racing
#: double-create resolves to the same registry instrument anyway).
_KIND_INSTRUMENTS: dict[str, tuple] = {}


def _kind_instruments(kind: str) -> tuple:
    cached = _KIND_INSTRUMENTS.get(kind)
    if cached is None:
        registry = _obs.get_registry()
        labels = {"kind": kind}
        cached = (
            registry.histogram(
                "repro_batcher_queue_wait_seconds", labels=labels
            ),
            registry.histogram(
                "repro_batcher_compute_seconds", labels=labels
            ),
            registry.counter("repro_batcher_requests_total", labels=labels),
        )
        _KIND_INSTRUMENTS[kind] = cached
    return cached


class MicroBatcher:
    """Runs queued requests one at a time on a single dispatch lane.

    Parameters
    ----------
    handlers:
        ``{kind: handler}`` where ``handler(payload) -> result`` answers
        one request.
    start:
        Start the background dispatch thread immediately. With
        ``start=False`` the batcher runs in synchronous mode: callers
        must invoke :meth:`flush` (tests, single-threaded embedding).
    max_queue:
        Bound on queued-but-undispatched requests; a submit beyond it
        raises :class:`OverloadedError` (the server turns that into a
        429 + ``Retry-After``).  Shedding at the door keeps latency
        bounded under overload: an unbounded queue accepts work it can
        only serve long after every client gave up.  ``None`` reads
        ``REPRO_MAX_QUEUE`` (default 1024); 0 or negative disables the
        bound.
    """

    def __init__(
        self,
        handlers: Mapping[str, Callable[[Any], Any]],
        start: bool = True,
        max_queue: int | None = None,
    ):
        if max_queue is None:
            max_queue = int(os.environ.get("REPRO_MAX_QUEUE", DEFAULT_MAX_QUEUE))
        self._handlers = dict(handlers)
        self._max_queue = int(max_queue)
        self._queue: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()
        self._closed = False
        self._requests = 0
        self._batches = 0
        self._shed = 0
        self._expired = 0
        self._thread: threading.Thread | None = None
        if start:
            self.start()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the background dispatch thread (idempotent)."""
        with self._lock:
            if self._thread is not None or self._closed:
                return
            self._thread = threading.Thread(
                target=self._run, name="repro-microbatcher", daemon=True
            )
            self._thread.start()

    def close(self) -> None:
        """Stop the dispatch thread and flush remaining work."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._thread is not None:
            self._queue.put(None)  # wake the dispatcher
            self._thread.join(timeout=5.0)
            self._thread = None
        self.flush()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- registration ------------------------------------------------------

    def register(self, kind: str, handler: Callable[[Any], Any]) -> None:
        """Register (or replace) a handler after construction.

        Lets optional subsystems — e.g. the monitor scheduler — route
        their work onto the session's single dispatch lane without the
        session having to know about them at construction time.
        """
        with self._lock:
            self._handlers[kind] = handler

    # -- submission --------------------------------------------------------

    def submit(self, kind: str, payload: Any) -> Future:
        """Enqueue one request; the future resolves after its handler runs.

        Raises :class:`OverloadedError` (without enqueueing) when the
        bounded queue is already full — load shedding happens here, at
        the cheapest possible point, before the request costs anything.
        """
        if kind not in self._handlers:
            raise KeyError(
                f"no handler for request kind {kind!r}; "
                f"registered: {sorted(self._handlers)}"
            )
        if self._max_queue > 0 and self._queue.qsize() >= self._max_queue:
            self._shed += 1
            if _obs.enabled():
                _SHED_TOTAL.inc()
            raise OverloadedError(
                f"request queue full ({self._max_queue} pending); retry later"
            )
        future: Future = Future()
        # The caller's trace context and deadline ride along in the queue
        # item so the dispatch thread can attribute queue wait to the
        # trace and fail queued-but-expired requests without computing.
        self._queue.put(
            (
                kind,
                payload,
                future,
                time.perf_counter(),
                _tracing.current_context(),
                _deadline.current(),
            )
        )
        return future

    def run(self, kind: str, payload: Any) -> Any:
        """Submit and wait — the synchronous convenience path.

        In background mode the dispatch thread serves the request; in
        synchronous mode (no thread) the queue is flushed inline.
        """
        future = self.submit(kind, payload)
        if self._thread is None:
            self.flush()
        return future.result()

    # -- dispatch ----------------------------------------------------------

    def flush(self) -> int:
        """Drain the queue synchronously; returns the number served.

        Serialized by its own lock: after ``close()`` (e.g. a registry
        eviction) concurrent callers of :meth:`run` all fall back to
        inline flushing, and without the lock two of them would execute
        handler work — and touch the engine — simultaneously.  A waiter
        whose item was drained by the other flusher simply finds the
        queue empty and returns.
        """
        served = 0
        with self._flush_lock:
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    return served
                if item is not None:  # skip close()'s wake-up sentinel
                    self._dispatch(item)
                    served += 1

    def _dispatch(self, item: _Item) -> None:
        """Run one queued request and resolve only its own future."""
        kind, payload, future, enqueued, ctx, item_deadline = item
        observing = _obs.enabled()
        self._requests += 1
        if item_deadline is not None and time.monotonic() >= item_deadline:
            # the deadline passed while the item sat in queue: fail fast
            # rather than compute an answer nobody is awaiting
            self._expired += 1
            if observing:
                _EXPIRED_TOTAL.inc()
            future.set_exception(
                DeadlineExceededError(f"deadline expired while queued (kind {kind!r})")
            )
            return
        started = time.perf_counter()
        if observing:
            wait = started - enqueued
            _kind_instruments(kind)[0].observe(wait)
            _tracing.record_span(ctx, "queue_wait", wait * 1e3, tags={"kind": kind})
        # The handler runs under the caller's trace and deadline, so its
        # spans (solver chunks, WAL fsync) nest under this request's
        # ``compute`` span; span and metrics land before the future
        # resolves, so the waiter always sees them.
        token = _deadline.attach(item_deadline)
        try:
            with _tracing.attach(ctx), _tracing.span("compute", tags={"kind": kind}):
                result, error = self._handlers[kind](payload), None
        except BaseException as exc:  # reaches this request's waiter only
            result, error = None, exc
        finally:
            _deadline.restore(token)
        self._batches += 1
        if observing:
            instruments = _kind_instruments(kind)
            instruments[1].observe(time.perf_counter() - started)
            instruments[2].inc()
            _BATCHES_TOTAL.inc()
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    def _run(self) -> None:
        while not self._closed:
            item = self._queue.get()
            if item is not None:
                self._dispatch(item)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Dispatch counters: requests dequeued, handler calls, shedding."""
        return {
            "requests": self._requests,
            "batches": self._batches,
            "max_queue": self._max_queue,
            "queue_depth": self._queue.qsize(),
            "shed": self._shed,
            "expired": self._expired,
            "background": self._thread is not None,
        }
