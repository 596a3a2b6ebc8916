"""Per-layer metrics of a traced run.

Inputs are the timed client records, the span tallies the traced server
wrote at shutdown (:mod:`spans`), the tenant's ``/v1/<tenant>/stats``
counters read just before and just after the window, and the set-up
stamps of the traced boot.  Every metric is computed over the timed
requests only; a layer that did no work for them reports 0.
"""

from __future__ import annotations

import statistics

from spans import Tally, self_time

SESSION_CALLS = ("session.handle", "wal.update")
LEWIS_CALLS = (
    "lewis.explain_global",
    "lewis.explain_context",
    "lewis.explain_local",
    "lewis.recourse",
    "lewis.apply_delta",
)
ENGINE_CALLS = ("engine.query", "engine.tensor", "engine.apply_delta")

#: (name, unit) of every per-layer metric, in report order
METRICS: tuple[tuple[str, str], ...] = (
    ("server.wire_ms", "ms"),
    ("server.handler_self_ms", "ms"),
    ("server.response_bytes", "bytes"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_us", "us"),
    ("cache.purged_per_update", "count"),
    ("scheduler.queue_ms", "ms"),
    ("scheduler.items_per_batch", "count"),
    ("lewis.local_self_ms", "ms"),
    ("lewis.explain_self_ms", "ms"),
    ("lewis.recourse_ms", "ms"),
    ("lewis.apply_delta_self_ms", "ms"),
    ("engine.tensor_ms", "ms"),
    ("engine.query_ms", "ms"),
    ("engine.tensor_calls_per_op", "count"),
    ("engine.tensor_hit_ratio", "ratio"),
    ("engine.apply_delta_ms", "ms"),
    ("model.predict_ms", "ms"),
    ("model.predict_rows", "count"),
    ("model.predict_us_per_row", "us"),
    ("localfit.fits_per_local", "count"),
    ("localfit.ms", "ms"),
    ("logit.fits", "count"),
    ("logit.fit_ms", "ms"),
    ("wal.append_ms", "ms"),
    ("wal.bytes_per_append", "bytes"),
    ("wal.update_self_ms", "ms"),
    ("setup.import_s", "s"),
    ("setup.dataset_s", "s"),
    ("setup.fit_s", "s"),
    ("setup.explainer_s", "s"),
    ("setup.snapshot_s", "s"),
    ("setup.serve_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.residual_ms", "ms"),
)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _delta(before: dict, after: dict, *path: str) -> float:
    for key in path[:-1]:
        before, after = before[key], after[key]
    return float(after[path[-1]]) - float(before[path[-1]])


def setup_phases(spawned: float, ready: float, stamps: dict) -> dict[str, float]:
    """Split one boot, ``spawned`` to first ready answer, into phases.

    The phases tile the boot: they sum to its set-up time.
    """
    return {
        "setup.import_s": stamps["imported"] - spawned,
        "setup.dataset_s": stamps["dataset"] - stamps["imported"],
        "setup.fit_s": stamps["fit"] - stamps["dataset"],
        "setup.explainer_s": stamps["explainer"] - stamps["fit"],
        "setup.snapshot_s": stamps["snapshot"] - stamps["explainer"],
        "setup.serve_s": ready - stamps["snapshot"],
    }


def compute(
    records,
    span_export: dict[str, dict[str, list]],
    before: dict,
    after: dict,
    setup: dict[str, float],
    overhead_ratio: float,
) -> dict[str, float]:
    """Every metric of :data:`METRICS` from one traced window."""
    per_request = []
    for record in records:
        if not record.ok:
            continue
        raw = span_export.get(record.body["request_id"], {})
        per_request.append(
            (record, {layer: Tally.from_list(v) for layer, v in raw.items()})
        )

    def each(layer: str, value) -> list[float]:
        return [value(t[layer]) for _r, t in per_request if layer in t]

    def total(layer: str, field: str = "seconds") -> float:
        return sum(getattr(t[layer], field) for _r, t in per_request if layer in t)

    wire, handler_self, residual = [], [], []
    for record, tallies in per_request:
        post = tallies.get("server.do_POST")
        if post is None:
            continue
        latency = record.latency_s
        wire.append(latency - post.seconds)
        handler_self.append(self_time(post, SESSION_CALLS))
        covered = (latency - post.seconds) + handler_self[-1]
        covered += record.body.get("queue_ms", 0.0) / 1e3
        if "wal.update" in tallies:
            covered += self_time(tallies["wal.update"], ("wal.append", "session.update"))
        for layer in ("wal.append", "cache.get", "cache.purge") + LEWIS_CALLS:
            if layer in tallies:
                covered += tallies[layer].seconds
        residual.append(latency - covered)

    def per_call_ms(tally: Tally, minus: tuple[str, ...] = ()) -> float:
        return self_time(tally, minus) / tally.calls * 1e3

    crossed = [r for r, _t in per_request if not r.body.get("cached", False)]
    locals_ = [r for r, _t in per_request if r.op.kind == "local"]
    explain = each(
        "lewis.explain_global", lambda t: per_call_ms(t, ENGINE_CALLS)
    ) + each("lewis.explain_context", lambda t: per_call_ms(t, ENGINE_CALLS))
    predict_rows = total("model.predict", "amount")
    result_hits = _delta(before, after, "caches", "result", "hits")
    result_misses = _delta(before, after, "caches", "result", "misses")
    tensor_hits = _delta(before, after, "caches", "tensor", "hits")
    tensor_misses = _delta(before, after, "caches", "tensor", "misses")
    metrics = {
        "server.wire_ms": _median(wire) * 1e3,
        "server.handler_self_ms": _median(handler_self) * 1e3,
        "server.response_bytes": _median([r.nbytes for r, _t in per_request]),
        "cache.hit_ratio": _ratio(result_hits, result_hits + result_misses),
        "cache.lookup_us": _median(each("cache.get", lambda t: t.seconds / t.calls * 1e6)),
        "cache.purged_per_update": _ratio(
            total("cache.purge", "amount"), total("cache.purge", "calls")
        ),
        "scheduler.queue_ms": _median([r.body.get("queue_ms", 0.0) for r in crossed]),
        "scheduler.items_per_batch": _ratio(
            _delta(before, after, "scheduler", "requests"),
            _delta(before, after, "scheduler", "batches"),
        ),
        "lewis.local_self_ms": _median(
            each("lewis.explain_local", lambda t: per_call_ms(t, ("localfit.fit",)))
        ),
        "lewis.explain_self_ms": _median(explain),
        "lewis.recourse_ms": _median(each("lewis.recourse", per_call_ms)),
        "lewis.apply_delta_self_ms": _median(
            each(
                "lewis.apply_delta",
                lambda t: per_call_ms(t, ("model.predict",) + ENGINE_CALLS),
            )
        ),
        "engine.tensor_ms": _median(each("engine.tensor", lambda t: t.seconds * 1e3)),
        "engine.query_ms": _median(
            each("engine.query", lambda t: self_time(t, ("engine.tensor",)) * 1e3)
        ),
        "engine.tensor_calls_per_op": _ratio(total("engine.tensor", "calls"), len(crossed)),
        "engine.tensor_hit_ratio": _ratio(tensor_hits, tensor_hits + tensor_misses),
        "engine.apply_delta_ms": _median(each("engine.apply_delta", per_call_ms)),
        "model.predict_ms": _median(each("model.predict", per_call_ms)),
        "model.predict_rows": _ratio(predict_rows, total("model.predict", "calls")),
        "model.predict_us_per_row": _ratio(total("model.predict") * 1e6, predict_rows),
        "localfit.fits_per_local": _ratio(total("localfit.fit", "calls"), len(locals_)),
        "localfit.ms": _median(each("localfit.fit", lambda t: t.seconds * 1e3)),
        "logit.fits": total("logit.fit", "calls"),
        "logit.fit_ms": _median(each("logit.fit", per_call_ms)),
        "wal.append_ms": _median(each("wal.append", per_call_ms)),
        "wal.bytes_per_append": _ratio(
            _delta(before, after, "wal", "bytes"), _delta(before, after, "wal", "appended")
        ),
        "wal.update_self_ms": _median(
            each("wal.update", lambda t: per_call_ms(t, ("wal.append", "session.update")))
        ),
        "trace.overhead_ratio": overhead_ratio,
        # a mean, not a median: lane spans of a coalesced batch land on
        # its first request, so only the sum over requests is exact
        "trace.residual_ms": (sum(residual) / len(residual) * 1e3) if residual else 0.0,
    }
    metrics.update(setup)
    return {name: metrics[name] for name, _unit in METRICS}
