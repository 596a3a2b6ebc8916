"""Layer spans for the traced benchmark run.

:func:`install` wraps public methods of each serving layer's class with
a timer.  It must run before any session exists, and only in the traced
run: the untraced runs that give the end-to-end numbers serve the
shipped code untouched.

Spans are not kept one by one.  Each thread folds every finished span
into its own ``{(request_id, layer): Tally}`` table, so the cost per
span is one dict lookup and a few additions.  A span's request id is
the repro trace id current in its thread: on handler threads that is
the request's own id, and on the micro-batcher's dispatch lane it is the
id of the first request of the batch.  ``ExplainerRequestHandler.do_POST``
runs before the trace opens, so it takes the id its first child span saw.

Each tally also keeps, per child layer, the time its *direct* children
took, so :func:`self_time` can subtract exactly the child spans nested
inside a layer's own interval.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field

#: (layer name, import path of the class, method names) wrapped in the
#: traced run.  Every method is public API of its class.
LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("server.do_POST", "repro.service.server:ExplainerRequestHandler", ("do_POST",)),
    ("session.handle", "repro.service.session:ExplainerSession", ("handle",)),
    ("session.update", "repro.service.session:ExplainerSession", ("update",)),
    ("wal.update", "repro.store.wal:DurableSession", ("update",)),
    ("wal.append", "repro.store.wal:DeltaLog", ("append",)),
    ("cache.get", "repro.service.cache:ResultCache", ("get",)),
    ("cache.purge", "repro.service.cache:ResultCache", ("purge_stale",)),
    ("lewis.explain_global", "repro.core.lewis:Lewis", ("explain_global",)),
    ("lewis.explain_context", "repro.core.lewis:Lewis", ("explain_context",)),
    ("lewis.explain_local", "repro.core.lewis:Lewis", ("explain_local",)),
    ("lewis.recourse", "repro.core.lewis:Lewis", ("recourse",)),
    ("lewis.apply_delta", "repro.core.lewis:Lewis", ("apply_delta",)),
    ("engine.tensor", "repro.estimation.engine:ContingencyEngine", ("tensor",)),
    (
        "engine.query",
        "repro.estimation.engine:ContingencyEngine",
        ("count", "probability", "probabilities", "group_weights",
         "adjusted_probabilities"),
    ),
    ("engine.apply_delta", "repro.estimation.engine:ContingencyEngine", ("apply_delta",)),
    ("model.predict", "repro.models.pipeline:TableModel", ("predict_codes",)),
    ("localfit.fit", "repro.estimation.outcome_model:OutcomeProbabilityModel", ("fit",)),
    ("logit.fit", "repro.estimation.logit:LogitModel", ("fit",)),
)


@dataclass
class Tally:
    """Spans of one layer on behalf of one request, folded together."""

    calls: int = 0
    seconds: float = 0.0
    #: per-span extra quantity: rows predicted, entries purged
    amount: float = 0.0
    #: direct-child seconds, by child layer
    children: dict[str, float] = field(default_factory=dict)

    def merge(self, other: "Tally") -> None:
        self.calls += other.calls
        self.seconds += other.seconds
        self.amount += other.amount
        for name, seconds in other.children.items():
            self.children[name] = self.children.get(name, 0.0) + seconds

    def as_list(self) -> list:
        return [self.calls, self.seconds, self.amount, self.children]

    @classmethod
    def from_list(cls, raw: list) -> "Tally":
        calls, seconds, amount, children = raw
        return cls(int(calls), float(seconds), float(amount), dict(children))


def _amount(layer: str, args: tuple, result) -> float:
    if layer == "model.predict":
        return float(len(args[1]))
    if layer == "cache.purge":
        return float(result)
    return 0.0


class Recorder:
    """Per-thread span tables, merged when the server shuts down."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[dict] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            table: dict = {}
            self._tables.append(table)  # list.append is atomic
            state = self._local.state = ([], table)
        return state

    def wrap(self, cls: type, method: str, layer: str, current_trace_id) -> None:
        original = cls.__dict__[method]

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack, table = self._state()
            if stack and stack[-1][0] == layer:
                # a layer calling itself (e.g. one engine query built
                # on another) is one span of that layer, not two
                return original(*args, **kwargs)
            # frame: [layer, request id, {child layer: seconds}]
            frame = [layer, current_trace_id(), {}]
            stack.append(frame)
            started = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                seconds = time.perf_counter() - started
                stack.pop()
                rid = frame[1] or current_trace_id()
                if stack:
                    parent = stack[-1]
                    parent[2][layer] = parent[2].get(layer, 0.0) + seconds
                    if parent[1] is None:
                        parent[1] = rid
                if rid is not None:
                    tally = table.get((rid, layer))
                    if tally is None:
                        tally = table[(rid, layer)] = Tally()
                    tally.calls += 1
                    tally.seconds += seconds
                    tally.amount += _amount(layer, args, result)
                    for child, child_seconds in frame[2].items():
                        tally.children[child] = (
                            tally.children.get(child, 0.0) + child_seconds
                        )

        setattr(cls, method, timed)

    def export(self) -> dict[str, dict[str, list]]:
        """``{request_id: {layer: [calls, seconds, amount, children]}}``."""
        merged: dict[tuple[str, str], Tally] = {}
        for table in list(self._tables):
            for key, tally in list(table.items()):
                merged.setdefault(key, Tally()).merge(tally)
        out: dict[str, dict[str, list]] = {}
        for (rid, layer), tally in merged.items():
            out.setdefault(rid, {})[layer] = tally.as_list()
        return out


def install() -> Recorder:
    """Wrap every layer in :data:`LAYERS`; call before any session exists."""
    import importlib

    from repro.obs.tracing import current_trace_id

    recorder = Recorder()
    for layer, target, methods in LAYERS:
        module_name, class_name = target.split(":")
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            recorder.wrap(cls, method, layer, current_trace_id)
    return recorder


def self_time(tally: Tally, minus: tuple[str, ...]) -> float:
    """Seconds of ``tally`` not covered by its direct children in ``minus``."""
    return tally.seconds - sum(tally.children.get(name, 0.0) for name in minus)
