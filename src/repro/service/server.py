"""Stdlib JSON-over-HTTP front end for explainer sessions.

No framework, no dependency: :class:`http.server.ThreadingHTTPServer`
plus a request handler that maps JSON bodies onto a session's typed
request objects.  Every handler thread funnels engine work into the
session's micro-batcher, whose single dispatch lane runs one request at
a time, while cache hits return without touching the engine at all.

The server runs in one of two modes (or both at once):

* **single-session** — one :class:`ExplainerSession` behind the classic
  endpoints,
* **multi-tenant** — a :class:`~repro.store.registry.Registry` of stored
  sessions; any path whose first segment names a tenant is served by
  that tenant's session (lazy-loaded from its snapshot + write-ahead
  log on first request), and ``/v1/registry/*`` manages the fleet.

Every POST opens a trace at the edge: the generated ``request_id`` (==
trace id) is echoed in success *and* error bodies, stamped into WAL
records written on its behalf, and the finished trace — queue-wait,
compute, chunk-solve and fsync spans included — is retrievable from
``GET /v1/traces`` the moment the response is sent.  ``GET /metrics``
exposes the process-wide metrics registry in Prometheus text format.

Endpoints: every row of :attr:`ExplainerRequestHandler.routes` (all
responses are JSON unless noted; ``/v1`` is optional).  ``[<tenant>/]``
marks a session route: with it the path addresses that registry tenant,
without it the server's default session (on a registry-only server, the
bare health and stats paths describe the fleet)::

    GET    /metrics                         Prometheus text exposition (0.0.4)
    GET    /v1/traces                       finished traces, newest first
                                            ?min_ms=F&limit=N&slow=1&id=<trace_id>
    GET    /healthz                         process liveness; 200 even while draining
    GET    /readyz                          per-subsystem readiness (store writable,
                                            queue headroom, drain state); 503 when not
    GET    /v1/[<tenant>/]health            liveness + session identity (?digest=1 adds
                                            the engine state digest)
    GET    /v1/[<tenant>/]stats             cache / engine / scheduler statistics
                                            + metrics registry snapshot + tracer stats
    POST   /v1/[<tenant>/]explain/global    {"attributes"?, "max_pairs_per_attribute"?}
    POST   /v1/[<tenant>/]explain/context   {"context": {attr: value}, ...}
    POST   /v1/[<tenant>/]explain/local     {"index"? | "individual"?, "attributes"?}
    POST   /v1/[<tenant>/]explain/local_batch  {"indices": [i, ...], "attributes"?}
    POST   /v1/[<tenant>/]recourse          {"index", "actionable"?, "alpha"?, "mode"?}
    POST   /v1/[<tenant>/]recourse/batch    {"indices"?, "actionable"?, "alpha"?, "mode"?, "workers"?}
    POST   /v1/[<tenant>/]audit             {"protected"?, "tolerance"?}
    POST   /v1/[<tenant>/]scores            {"contrasts": [[values, baselines], ...], "context"?}
    POST   /v1/[<tenant>/]update            {"insert": [row, ...], "delete": [index, ...]}

    POST   /v1/[<tenant>/]monitors          register a standing monitor
                                            {"kind": "score"|"fairness"|"monotonicity"|"recourse",
                                             "params": {...}, "metric"?, "threshold"?, "cusum"?}
    GET    /v1/[<tenant>/]monitors          list monitors (baselines, summaries, cursors)
    GET    /v1/[<tenant>/]monitors/<id>     one monitor's full state
    DELETE /v1/[<tenant>/]monitors/<id>     deregister a monitor
    GET    /v1/[<tenant>/]watch             long-poll for drift alerts newer than
                                            alert-seq N: ?cursor=N&timeout=S (max 60)

    GET    /v1/registry                     tenant listing + load state
    GET    /v1/registry/<tenant>            snapshots, manifest summary, stats
    POST   /v1/registry/<tenant>/snapshot   checkpoint now (snapshot + WAL compaction)
    POST   /v1/registry/<tenant>/evict      unload from memory (state stays on disk)
    DELETE /v1/registry/<tenant>            remove tenant (snapshots + log)

    GET    /v1/[<tenant>/]log               WAL shipping batch after seq N: ?cursor=N&max=K
                                            (epoch-stamped; cursor_valid=false means
                                            "resync from snapshot")
    GET    /v1/registry/<tenant>/manifest   latest manifest, verbatim
    GET    /v1/registry/<tenant>/object/<digest>  blob bytes (octet-stream)
    GET    /v1/replication                  role, epoch, per-tenant lag, tailer state
    POST   /v1/replication/promote          {"catchup_store"?, "reason"?} become leader
    POST   /v1/replication/retarget         {"leader_url"} follow a new leader

Followers (``serve --follow URL``) answer every read; ``write`` routes
return 503 with the leader's URL.  Reads pinned with ``X-Repro-Min-State:
<token>`` are refused with 503 until the replica has applied the state
the client last saw (read-your-writes across the fleet).

Client errors (unknown attribute/label, malformed body) return 400 with
``{"error": ...}``; unknown tenants/endpoints 404; unsupported
conditioning events 422; infeasible recourse 409; the rest of the
mapping is :func:`error_response`.  Start a server with
``python -m repro.cli serve`` or programmatically via
:func:`create_server`; :func:`serve` installs SIGTERM/SIGINT handlers
that stop accepting, drain in-flight requests, and close the store.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping
from urllib.parse import parse_qs, urlsplit

from repro.obs import metrics as _obs
from repro.obs import tracing as _tracing
from repro.service.session import (
    AuditRequest,
    ContextExplainRequest,
    ExplainerSession,
    GlobalExplainRequest,
    LocalExplainBatchRequest,
    LocalExplainRequest,
    RecourseBatchRequest,
    RecourseRequest,
    ScoresRequest,
)
from repro.service.updates import TableDelta
from repro.store.artifacts import RESERVED_TENANT_NAMES as RESERVED_SEGMENTS
from repro.utils import deadline as _deadline
from repro.utils.exceptions import (
    DeadlineExceededError,
    DegradedError,
    EstimationError,
    OverloadedError,
    RecourseInfeasibleError,
    StoreError,
)

MAX_BODY_BYTES = 8 << 20

_obs.get_registry().declare(
    "repro_http_requests_total",
    "counter",
    "HTTP requests served, by method and status code.",
)
_obs.get_registry().declare(
    "repro_http_request_seconds",
    "histogram",
    "End-to-end HTTP request latency in seconds, by method.",
)

#: labelled-instrument cache: format the label suffix once per
#: (method, status) / method, not once per request.
_HTTP_COUNTERS: dict[tuple[str, int], Any] = {}
_HTTP_HISTOGRAMS: dict[str, Any] = {}


def _http_counter(method: str, status: int):
    counter = _HTTP_COUNTERS.get((method, status))
    if counter is None:
        counter = _obs.get_registry().counter(
            "repro_http_requests_total",
            labels={"method": method, "status": str(status)},
        )
        _HTTP_COUNTERS[(method, status)] = counter
    return counter


def _http_histogram(method: str):
    histogram = _HTTP_HISTOGRAMS.get(method)
    if histogram is None:
        histogram = _obs.get_registry().histogram(
            "repro_http_request_seconds", labels={"method": method}
        )
        _HTTP_HISTOGRAMS[method] = histogram
    return histogram


class BadRequest(ValueError):
    """Malformed request body (HTTP 400)."""


class NotFound(LookupError):
    """Unknown endpoint or tenant (HTTP 404)."""


#: (exception types, status, message prefix) — first match wins, so a
#: subclass must come before its base (DegradedError is a StoreError).
_ERROR_STATUSES: tuple[tuple[Any, int, str], ...] = (
    (NotFound, 404, ""),
    # ValueError is the library's client-error convention (malformed
    # deltas, bad selectors, missing actionables); BadRequest and
    # DomainError are ValueErrors too.
    (ValueError, 400, ""),
    (KeyError, 400, "unknown attribute: "),
    (IndexError, 400, "row index out of range: "),
    (RecourseInfeasibleError, 409, "recourse infeasible: "),
    (EstimationError, 422, "unsupported conditioning event: "),
    (DeadlineExceededError, 504, "deadline exceeded: "),
    (OverloadedError, 429, "overloaded: "),
    # The store is read-only degraded (failed write/fsync); the data is
    # safe but this replica cannot accept the request.
    (DegradedError, 503, "store degraded: "),
    # transient persistence-layer contention (e.g. racing an eviction):
    # the request is valid, a retry will succeed
    (StoreError, 503, "store busy: "),
)


def error_response(exc: Exception) -> tuple[int, str, dict[str, str] | None]:
    """Map any exception a route raised to (status, message, headers).

    The server's one exception → status mapping, for every route and
    method; anything unmapped is an internal defect (500).
    """
    for types, status, prefix in _ERROR_STATUSES:
        if isinstance(exc, types):
            break
    else:
        return 500, f"internal error: {type(exc).__name__}: {exc}", None
    headers = None
    if isinstance(exc, OverloadedError):
        headers = {"Retry-After": str(max(1, int(round(exc.retry_after_s))))}
    elif isinstance(exc, DegradedError):
        headers = {"Retry-After": "1"}
    return status, prefix + str(exc), headers


def _opt_tuple(payload: Mapping[str, Any], key: str) -> tuple | None:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        raise BadRequest(f"{key!r} must be a list")
    return tuple(value)


def _as_int(value: Any, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{key!r} must be an integer")
    return int(value)


def _as_number(value: Any, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequest(f"{key!r} must be a number")
    return float(value)


def _as_index_tuple(value: Any, key: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise BadRequest(f"{key!r} must be a non-empty list of row indices")
    return tuple(_as_int(v, key) for v in value)


def _as_mode(value: Any) -> str:
    if value not in ("exact", "anytime"):
        raise BadRequest('"mode" must be "exact" or "anytime"')
    return str(value)


# -- per-route request builders: JSON body -> session request object -------


def _global_request(payload: Mapping[str, Any]) -> GlobalExplainRequest:
    return GlobalExplainRequest(
        attributes=_opt_tuple(payload, "attributes"),
        max_pairs_per_attribute=_as_int(
            payload.get("max_pairs_per_attribute", 8), "max_pairs_per_attribute"
        ),
    )


def _context_request(payload: Mapping[str, Any]) -> ContextExplainRequest:
    context = payload.get("context")
    if not isinstance(context, Mapping) or not context:
        raise BadRequest('"context" must be a non-empty object')
    return ContextExplainRequest(
        context=dict(context),
        attributes=_opt_tuple(payload, "attributes"),
        max_pairs_per_attribute=_as_int(
            payload.get("max_pairs_per_attribute", 8), "max_pairs_per_attribute"
        ),
    )


def _local_request(payload: Mapping[str, Any]) -> LocalExplainRequest:
    index = payload.get("index")
    individual = payload.get("individual")
    if (index is None) == (individual is None):
        raise BadRequest('pass exactly one of "index" / "individual"')
    if individual is not None and not isinstance(individual, Mapping):
        raise BadRequest('"individual" must be an object')
    return LocalExplainRequest(
        index=None if index is None else _as_int(index, "index"),
        individual=dict(individual) if individual is not None else None,
        attributes=_opt_tuple(payload, "attributes"),
    )


def _local_batch_request(payload: Mapping[str, Any]) -> LocalExplainBatchRequest:
    if "indices" not in payload:
        raise BadRequest('"indices" is required')
    return LocalExplainBatchRequest(
        indices=_as_index_tuple(payload["indices"], "indices"),
        attributes=_opt_tuple(payload, "attributes"),
    )


def _recourse_request(payload: Mapping[str, Any]) -> RecourseRequest:
    if "index" not in payload:
        raise BadRequest('"index" is required')
    return RecourseRequest(
        index=_as_int(payload["index"], "index"),
        actionable=_opt_tuple(payload, "actionable"),
        alpha=_as_number(payload.get("alpha", 0.8), "alpha"),
        mode=_as_mode(payload.get("mode", "exact")),
    )


def _recourse_batch_request(payload: Mapping[str, Any]) -> RecourseBatchRequest:
    indices = payload.get("indices")
    workers = payload.get("workers")
    if workers is not None:
        workers = _as_int(workers, "workers")
        if workers < 0:
            raise BadRequest('"workers" must be >= 0')
    return RecourseBatchRequest(
        indices=(
            _as_index_tuple(indices, "indices")
            if indices is not None
            else None
        ),
        actionable=_opt_tuple(payload, "actionable"),
        alpha=_as_number(payload.get("alpha", 0.8), "alpha"),
        mode=_as_mode(payload.get("mode", "exact")),
        workers=workers,
    )


def _audit_request(payload: Mapping[str, Any]) -> AuditRequest:
    return AuditRequest(
        protected=_opt_tuple(payload, "protected"),
        tolerance=_as_number(payload.get("tolerance", 0.05), "tolerance"),
    )


def _scores_request(payload: Mapping[str, Any]) -> ScoresRequest:
    contrasts = payload.get("contrasts")
    if not isinstance(contrasts, list) or not contrasts:
        raise BadRequest('"contrasts" must be a non-empty list')
    parsed = []
    for entry in contrasts:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(side, Mapping) for side in entry)
        ):
            raise BadRequest(
                "each contrast must be a [values, baselines] pair of objects"
            )
        parsed.append((dict(entry[0]), dict(entry[1])))
    context = payload.get("context", {})
    if not isinstance(context, Mapping):
        raise BadRequest('"context" must be an object')
    return ScoresRequest(contrasts=tuple(parsed), context=dict(context))


@contextmanager
def _store_errors_as_404():
    """Report a StoreError as 404: it means an unknown or invalid tenant."""
    try:
        yield
    except StoreError as exc:
        raise NotFound(str(exc)) from exc


def _answers(build: Callable[[Mapping[str, Any]], Any]):
    """Traced route handler answering the session request ``build`` makes."""
    return lambda self, session, payload: session.handle(build(payload))


#: template marker of a session route; see the module docstring
_TENANT = "[<tenant>/]"


class Route:
    """One row of the route table: ``(method, template, handler, flags)``.

    The template's ``<name>`` segments bind the handler's positional
    arguments; a session route (``[<tenant>/]``) binds the tenant first,
    ``None`` for the default session.  POST and DELETE handlers also get
    the parsed body.  Flags: ``write`` routes are refused on a follower
    (503 + ``leader_url``); ``traced`` routes are session POSTs that
    :meth:`ExplainerRequestHandler._traced` runs, with handler arguments
    ``(session, payload)``.
    """

    def __init__(self, method: str, template: str, handler, *flags: str):
        self.method = method
        self.template = template
        self.handler = handler
        self.flags = frozenset(flags)
        self.scoped = _TENANT in template
        #: canonical path (no tenant marker), used as the trace's route tag
        self.path = template.replace(_TENANT, "")
        segments = [s for s in self.path.split("/") if s]
        self.segments = segments[1:] if segments[0] == "v1" else segments

    def match(self, method: str, parts: list[str], tenant: str | None):
        """Handler arguments bound from the path, or ``None`` on no match."""
        if method != self.method or len(parts) != len(self.segments):
            return None
        if tenant is not None and not self.scoped:
            return None
        args: list[Any] = [tenant] if self.scoped else []
        for segment, part in zip(self.segments, parts):
            if segment.startswith("<"):
                args.append(part)
            elif segment != part:
                return None
        return args


class ExplainerHTTPServer(ThreadingHTTPServer):
    """Threading server that *drains* on close.

    ``daemon_threads`` is off and ``block_on_close`` on, so
    ``server_close()`` joins every in-flight handler thread: a graceful
    shutdown answers accepted requests before the process exits.
    """

    daemon_threads = False
    block_on_close = True

    #: attached by :func:`create_server`
    session: ExplainerSession | None = None
    registry = None
    monitors = None
    #: :class:`~repro.replication.manager.ReplicationManager` when the
    #: server has a registry (leaders lend their epoch to shipped
    #: batches; followers tail, block writes, and can promote).
    replication = None
    #: set by :func:`serve` on SIGTERM/SIGINT: new work is refused with
    #: 503 + Retry-After while in-flight requests finish (liveness and
    #: metrics endpoints stay reachable for the supervisor).
    draining: bool = False


class ExplainerRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to a session or a registry tenant."""

    server_version = "repro-explainer/2.0"
    protocol_version = "HTTP/1.1"
    #: socket timeout: bounds how long a drained shutdown can wait on an
    #: idle keep-alive connection.
    timeout = 30
    #: silence per-request stderr logging unless the server opts in.
    verbose = False

    @property
    def registry(self):
        return self.server.registry  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.verbose:
            super().log_message(format, *args)

    # -- plumbing ----------------------------------------------------------

    def _observe_http(self, status: int) -> None:
        """Count the request and observe its latency (flag-gated)."""
        if not _obs.enabled():
            return
        method = str(getattr(self, "command", None) or "?")
        _http_counter(method, int(status)).inc()
        started = getattr(self, "_request_started", None)
        if started is not None:
            _http_histogram(method).observe(time.perf_counter() - started)

    def _send_text(
        self,
        status: int,
        text: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self._observe_http(status)

    def _send_json(
        self,
        status: int,
        payload: dict,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if status >= 400:
            # Error paths may leave an unread request body on the wire
            # (e.g. an oversized POST rejected before reading); under
            # HTTP/1.1 keep-alive those bytes would be parsed as the next
            # request line, so drop the connection instead.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)
        self._observe_http(status)

    def _send_bytes(self, status: int, data: bytes) -> None:
        """Binary response (replication blob transfer)."""
        self.send_response(status)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self._observe_http(status)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            # rfile.read(-1) would block until the client closes
            raise BadRequest(f"invalid Content-Length {length}")
        if length > MAX_BODY_BYTES:
            raise BadRequest(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b"{}"
        if not raw.strip():
            return {}
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from exc

    # -- failure containment -----------------------------------------------

    def _shed_if_draining(self, parts: list[str]) -> bool:
        """Refuse new work with 503 + Retry-After while draining.

        Liveness (``/healthz``), readiness (``/readyz``) and ``/metrics``
        stay reachable so supervisors and scrapers can watch the drain
        complete.  Returns True when the request was answered here.
        """
        if not getattr(self.server, "draining", False):
            return False
        if parts and parts[0] in ("healthz", "readyz", "metrics"):
            return False
        # shed responses carry the request id too, so a client
        # correlating retries across replicas never loses the trail
        body = {
            "error": "server is draining; retry against a healthy replica",
            "request_id": self._request_id,
        }
        self._send_json(503, body, headers={"Retry-After": "1"})
        return True

    def _refuse_follower_write(self) -> bool:
        """Followers answer reads only; writes bounce to the leader (503).

        Returns True when the request was answered here.  The body names
        the leader so a client library can retarget without re-resolving
        topology out of band.
        """
        manager = getattr(self.server, "replication", None)
        if manager is None or manager.is_leader:
            return False
        self._send_json(
            503,
            {
                "error": (
                    f"this replica is a follower; {self.command} {self.path} "
                    "is a write and must go to the leader"
                ),
                "leader_url": manager.leader_url,
                "request_id": self._request_id,
            },
            headers={"Retry-After": "1"},
        )
        return True

    def _deadline_ms(self) -> float | None:
        """Per-request deadline budget in milliseconds, or ``None``.

        The ``X-Repro-Deadline-Ms`` header overrides the server-wide
        ``REPRO_DEADLINE_MS`` default; non-positive values disable the
        deadline for this request.
        """
        raw = self.headers.get("X-Repro-Deadline-Ms")
        if raw is None:
            raw = os.environ.get("REPRO_DEADLINE_MS")
            if raw is None:
                return None
            try:
                value = float(raw)
            except ValueError:
                return None  # a bad server-wide default must not 400 requests
        else:
            try:
                value = float(raw)
            except ValueError as exc:
                raise BadRequest(
                    f"X-Repro-Deadline-Ms must be a number, got {raw!r}"
                ) from exc
        return value if value > 0 else None

    # -- dispatch ----------------------------------------------------------

    def _segments(self) -> list[str]:
        parts = [p for p in urlsplit(self.path).path.split("/") if p]
        if parts and parts[0] == "v1":
            parts = parts[1:]
        return parts

    def _query(self) -> dict[str, str]:
        """Last-wins flat view of the URL query string."""
        return {
            key: values[-1]
            for key, values in parse_qs(urlsplit(self.path).query).items()
        }

    def _session(self, tenant: str | None) -> ExplainerSession:
        """The session a session route addresses.

        ``tenant`` names a registry tenant (loaded on first access);
        ``None`` means the server's default session (404 when the server
        is registry-only).
        """
        if tenant is None:
            session = self.server.session  # type: ignore[attr-defined]
            if session is None:
                raise NotFound(
                    f"no default session; address a tenant, e.g. /v1/<name>{self.path}"
                )
            return session
        if self.registry is None:
            raise NotFound(f"unknown endpoint {self.path!r}")
        with _store_errors_as_404():
            return self.registry.get(tenant)

    def _registry(self):
        if self.registry is None:
            raise NotFound("this server has no registry")
        return self.registry

    def _replication(self):
        manager = getattr(self.server, "replication", None)
        if manager is None:
            raise NotFound("this server has no replication manager")
        return manager

    def _monitor_scheduler(self):
        scheduler = self.server.monitors  # type: ignore[attr-defined]
        if scheduler is None:
            raise NotFound("this server has no monitor scheduler")
        return scheduler

    def _dispatch(self, method: str) -> None:
        """Answer one request: shed, match :attr:`routes`, run the handler.

        A first path segment outside :data:`RESERVED_SEGMENTS` names a
        registry tenant and only matches session routes.  Handlers return
        a dict to answer 200 JSON, or ``None`` after answering themselves;
        whatever they raise is answered through :func:`error_response`.
        """
        self._request_started = time.perf_counter()
        # The request id doubles as the trace id: it is echoed in the
        # response (success or error), stamped into WAL records written
        # on this request's behalf, and keys the /v1/traces lookup.
        self._request_id = _tracing.new_id()
        try:
            parts = self._segments()
            if self._shed_if_draining(parts):
                return
            # a malformed deadline is a client error on any POST, routed or not
            deadline_ms = self._deadline_ms() if method == "POST" else None
            tenant = None
            if parts and parts[0] not in RESERVED_SEGMENTS:
                tenant, parts = parts[0], parts[1:]
            for route in self.routes:
                args = route.match(method, parts, tenant)
                if args is not None:
                    break
            else:
                raise NotFound(f"unknown endpoint {self.path!r}")
            if method != "GET":
                # read the body even when unused so keep-alive stays in sync
                args.append(self._read_body())
            if "write" in route.flags and self._refuse_follower_write():
                return
            if "traced" in route.flags:
                self._traced(route, deadline_ms, *args)
                return
            result = route.handler(self, *args)
            if result is not None:
                self._send_json(200, result)
        except Exception as exc:  # noqa: BLE001 - mapped; internal defects -> 500
            status, message, headers = error_response(exc)
            self._send_json(
                status,
                {"error": message, "request_id": self._request_id},
                headers=headers,
            )

    def _traced(
        self, route: Route, deadline_ms: float | None, tenant: str | None, payload: Any
    ) -> None:
        """Run a session POST in its trace and answer with the envelope.

        The handler runs inside the request's trace and deadline scope,
        after an ``X-Repro-Min-State`` pin is honoured, and once more
        against a freshly resolved session if its own was sealed.
        """
        if not isinstance(payload, Mapping):
            raise BadRequest("request body must be a JSON object")
        session = self._session(tenant)
        min_state = self.headers.get("X-Repro-Min-State")
        pinned = min_state and hasattr(session, "has_state")
        if pinned and not session.has_state(min_state):
            # read-your-writes: this replica has not yet applied the state
            # the client saw; let it retry here or pin to a replica that
            # has caught up
            self._send_json(
                503,
                {
                    "error": (
                        f"replica has not reached state {min_state!r} "
                        "yet; retry after replication catches up"
                    ),
                    "request_id": self._request_id,
                    "state_token": session.state_token,
                },
                headers={
                    "Retry-After": "1",
                    "X-Repro-State": session.state_token,
                },
            )
            return
        # The trace context closes before the response is sent, so a
        # follow-up /v1/traces?id=<request_id> always finds it.  The
        # deadline scope opens here so the budget covers queue wait
        # and compute but not body parsing already done above.
        with _deadline.scope(deadline_ms), _tracing.trace(
            f"POST {route.path}",
            trace_id=self._request_id,
            tags={"method": "POST", "route": route.path, "tenant": session.tenant},
        ):
            try:
                response = route.handler(self, session, payload)
            except StoreError as exc:
                # The session may have been evicted (log sealed) between
                # resolution and dispatch; one re-resolve gets the
                # tenant's freshly restored session instead of bouncing
                # a valid request back to the client.
                if "sealed" not in str(exc) or self.registry is None:
                    raise
                session = self._session(tenant)
                response = route.handler(self, session, payload)
        # elapsed_ms covers the whole handler — body read, micro-batcher
        # queue wait, compute, serialization — while queue_ms/compute_ms
        # break out the dispatch lane's share from the finished trace
        # (both 0.0 on cache hits or with observability disabled).
        queue_ms = compute_ms = 0.0
        record = _tracing.get_tracer().get(self._request_id)
        if record is not None:
            for recorded in record["spans"]:
                if recorded["name"] == "queue_wait":
                    queue_ms += recorded["duration_ms"]
                elif recorded["name"] == "compute":
                    compute_ms += recorded["duration_ms"]
        result = response.get("result")
        if isinstance(result, Mapping) and result.get("degraded"):
            # Hoist the degradation label so clients that only look at
            # the envelope still see that this 200 is an anytime answer.
            response["degraded"] = True
            response["degraded_reason"] = result.get("degraded_reason")
        response["table_version"] = session.table_version
        response["state_token"] = session.state_token
        response["request_id"] = self._request_id
        response["elapsed_ms"] = round(
            (time.perf_counter() - self._request_started) * 1e3, 3
        )
        response["queue_ms"] = round(queue_ms, 3)
        response["compute_ms"] = round(compute_ms, 3)
        self._send_json(200, response)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE")

    # -- process endpoints -------------------------------------------------

    def _healthz(self) -> dict:
        # Pure liveness: answers 200 as long as the process can serve
        # HTTP at all — draining included (the supervisor must not kill
        # a replica that is still answering).
        return {
            "status": "alive",
            "draining": bool(getattr(self.server, "draining", False)),
        }

    def _readyz(self) -> None:
        """Per-subsystem readiness checks; 503 + Retry-After when not ready.

        Solver-pool failures are reported but never flip readiness: the
        inline fallback contains them.  Queue saturation and an
        unwritable store root do, because new work would bounce.
        """
        server = self.server
        draining = bool(getattr(server, "draining", False))
        checks: dict[str, dict[str, Any]] = {
            "accepting": {"ok": not draining, "draining": draining}
        }
        session = server.session  # type: ignore[attr-defined]
        if session is not None:
            scheduler = session.stats()["scheduler"]
            depth = int(scheduler.get("queue_depth", 0))
            cap = int(scheduler.get("max_queue", 0))
            checks["queue"] = {
                "ok": not (cap > 0 and depth >= cap),
                "depth": depth,
                "max_queue": cap,
                "shed": int(scheduler.get("shed", 0)),
                "expired": int(scheduler.get("expired", 0)),
            }
            solver = session.lewis.solver_stats()
            checks["solver_pool"] = {
                "ok": True,
                "pool_failures": int(solver.get("pool_failures", 0)),
                "pool_fallbacks": int(solver.get("pool_fallbacks", 0)),
            }
            log = getattr(session, "log", None)
            if log is not None:
                degraded = log.degraded
                checks["wal"] = {
                    "ok": degraded is None,
                    "degraded": degraded,
                    "last_seq": log.last_seq,
                }
        registry = self.registry
        if registry is not None:
            root = registry.store.root
            writable = os.access(root, os.W_OK) and os.access(
                root / "wal", os.W_OK
            )
            checks["store"] = {
                "ok": writable,
                "root": str(root),
                "writable": writable,
                "loaded": registry.loaded(),
            }
        ready = all(check["ok"] for check in checks.values())
        report = {"status": "ready" if ready else "unavailable", "checks": checks}
        if not ready:
            report["request_id"] = self._request_id
        self._send_json(
            200 if ready else 503,
            report,
            headers=None if ready else {"Retry-After": "1"},
        )

    def _metrics(self) -> None:
        # Prometheus text exposition; no session or tenant load required.
        self._send_text(
            200,
            _obs.get_registry().to_prometheus(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def _traces(self) -> dict:
        """Finished traces from the in-memory rings."""
        query = self._query()
        tracer = _tracing.get_tracer()
        trace_id = query.get("id")
        if trace_id is not None:
            record = tracer.get(trace_id)
            if record is None:
                raise NotFound(f"unknown trace {trace_id!r}")
            return {"traces": [record], "tracer": tracer.stats()}
        try:
            min_ms = float(query.get("min_ms", 0.0))
            limit = int(query.get("limit", 50))
        except ValueError as exc:
            raise BadRequest(f"min_ms/limit must be numeric: {exc}") from exc
        slow_only = query.get("slow", "") in ("1", "true", "yes")
        return {
            "traces": tracer.query(min_ms=min_ms, limit=limit, slow_only=slow_only),
            "tracer": tracer.stats(),
        }

    # -- session endpoints -------------------------------------------------

    def _health(self, tenant: str | None) -> dict:
        if tenant is None and self.server.session is None:  # type: ignore[attr-defined]
            # A registry-only server still needs process-level liveness:
            # /v1/health must answer without forcing any tenant to load.
            registry = self._registry()
            return {
                "status": "ok",
                "mode": "registry",
                "tenants": len(registry.names()),
                "loaded": registry.loaded(),
            }
        session = self._session(tenant)
        report = {
            "status": "ok",
            "tenant": session.tenant,
            "fingerprint": session.fingerprint,
            "table_version": session.table_version,
            "state_token": session.state_token,
            "n_rows": len(session.lewis.data),
        }
        log = getattr(session, "log", None)
        if log is not None:
            report["last_seq"] = log.last_seq
        if self._query().get("digest") in ("1", "true", "yes"):
            # canonical engine fingerprint (per-column marginal count
            # tensors): the convergence oracle replicas compare after
            # failover
            report["state_digest"] = session.lewis.estimator.engine.state_digest()
        return report

    def _stats(self, tenant: str | None) -> dict:
        if tenant is None and self.server.session is None:  # type: ignore[attr-defined]
            stats = self._registry().stats()
        else:
            session = self._session(tenant)
            stats = session.stats()
            attached = self._monitor_scheduler().peek(session)
            if attached is not None:
                stats["monitors"] = attached.stats()
        # one-stop snapshot: the classic per-session keys above stay for
        # compatibility; "metrics" is the authoritative process-wide
        # registry view those keys now mirror.
        stats["metrics"] = _obs.get_registry().snapshot()
        stats["tracing"] = _tracing.get_tracer().stats()
        return stats

    def _update(self, session: ExplainerSession, payload: Any) -> dict:
        response = session.update(TableDelta.from_json(payload))
        # refresh the tenant's standing monitors against the batch just
        # applied (async, on its lane)
        self._monitor_scheduler().notify(session)
        return response

    # -- monitor endpoints -------------------------------------------------

    def _add_monitor(self, session: ExplainerSession, payload: Any) -> dict:
        return self._monitor_scheduler().ensure(session).add(payload)

    def _list_monitors(self, tenant: str | None) -> dict:
        return self._monitor_scheduler().ensure(self._session(tenant)).list()

    def _get_monitor(self, tenant: str | None, monitor_id: str) -> dict:
        monitors = self._monitor_scheduler().ensure(self._session(tenant))
        try:
            return monitors.get(monitor_id)
        except KeyError as exc:
            raise NotFound(f"unknown monitor {monitor_id!r}") from exc

    def _remove_monitor(self, tenant: str | None, monitor_id: str, _payload) -> dict:
        monitors = self._monitor_scheduler().ensure(self._session(tenant))
        return monitors.remove(monitor_id)

    def _watch(self, tenant: str | None) -> dict:
        from repro.monitor.monitors import WATCH_DEFAULT_TIMEOUT

        query = self._query()
        try:
            cursor = int(query.get("cursor", 0))
            timeout = float(query.get("timeout", WATCH_DEFAULT_TIMEOUT))
        except ValueError as exc:
            raise BadRequest(
                f"cursor/timeout must be numeric: {exc}"
            ) from exc
        return self._monitor_scheduler().watch(
            self._session(tenant), cursor=cursor, timeout=timeout
        )

    # -- registry endpoints ------------------------------------------------

    def _list_registry(self) -> dict:
        registry = self._registry()
        loaded = set(registry.loaded())
        return {
            "tenants": {
                name: {
                    "loaded": name in loaded,
                    "snapshots": len(registry.store.snapshots(name)),
                }
                for name in registry.names()
            },
        }

    def _describe_tenant(self, name: str) -> dict:
        registry = self._registry()
        manifest = self._manifest(name)
        return {
            "name": name,
            "loaded": name in registry.loaded(),
            "snapshots": registry.store.snapshots(name),
            "latest": {
                "snapshot_id": manifest["snapshot_id"],
                "wal_seq": manifest["wal_seq"],
                "fingerprint": manifest["session"]["fingerprint"],
                "n_rows": manifest["session"]["n_rows"],
            },
        }

    def _snapshot_tenant(self, name: str, _payload) -> dict:
        with _store_errors_as_404():
            manifest = self._registry().snapshot(name)
        return {
            "name": name,
            "snapshot_id": manifest["snapshot_id"],
            "wal_seq": manifest["wal_seq"],
        }

    def _evict_tenant(self, name: str, _payload) -> dict:
        with _store_errors_as_404():
            return {"name": name, "evicted": self._registry().evict(name)}

    def _remove_tenant(self, name: str, _payload) -> dict:
        registry = self._registry()
        with _store_errors_as_404():
            # release the journal handle before the store unlinks it
            self._monitor_scheduler().drop(name)
            return {"name": name, "removed": registry.remove(name)}

    # -- replication endpoints ---------------------------------------------

    def _manifest(self, name: str) -> dict:
        with _store_errors_as_404():
            return self._registry().store.manifest(name)

    def _object(self, name: str, digest: str) -> None:
        with _store_errors_as_404():
            data = self._registry().store.get_bytes(digest)
        self._send_bytes(200, data)

    def _log(self, tenant: str | None) -> dict:
        from repro.replication.ship import build_batch

        session = self._session(tenant)
        query = self._query()
        try:
            cursor = int(query.get("cursor", 0))
            limit = int(query.get("max", 0)) or None
        except ValueError as exc:
            raise BadRequest(f"cursor/max must be integers: {exc}") from exc
        manager = getattr(self.server, "replication", None)
        kwargs = {"epoch": manager.shipping_epoch()} if manager else {}
        if limit is not None:
            kwargs["limit"] = limit
        with _store_errors_as_404():
            return build_batch(session, cursor, tenant=session.tenant, **kwargs)

    def _replication_status(self) -> dict:
        return self._replication().status()

    def _promote(self, payload: Any) -> dict:
        manager = self._replication()
        if not isinstance(payload, Mapping):
            raise BadRequest("request body must be a JSON object")
        result = manager.promote(
            catchup_store=payload.get("catchup_store"),
            reason=str(payload.get("reason") or "explicit promotion"),
        )
        result["request_id"] = self._request_id
        return result

    def _retarget(self, payload: Any) -> dict:
        manager = self._replication()
        if not isinstance(payload, Mapping) or not payload.get("leader_url"):
            raise BadRequest('"leader_url" is required')
        manager.retarget(str(payload["leader_url"]))
        return {"leader_url": manager.leader_url, "request_id": self._request_id}

    #: the route table, in the module docstring's order; the first match
    #: wins, and every template's first literal segment is reserved.
    routes: tuple[Route, ...] = (
        Route("GET", "/metrics", _metrics),
        Route("GET", "/v1/traces", _traces),
        Route("GET", "/healthz", _healthz),
        Route("GET", "/readyz", _readyz),
        Route("GET", "/v1/[<tenant>/]health", _health),
        Route("GET", "/v1/[<tenant>/]stats", _stats),
        Route("POST", "/v1/[<tenant>/]explain/global", _answers(_global_request), "traced"),
        Route("POST", "/v1/[<tenant>/]explain/context", _answers(_context_request), "traced"),
        Route("POST", "/v1/[<tenant>/]explain/local", _answers(_local_request), "traced"),
        Route("POST", "/v1/[<tenant>/]explain/local_batch",
              _answers(_local_batch_request), "traced"),
        Route("POST", "/v1/[<tenant>/]recourse", _answers(_recourse_request), "traced"),
        Route("POST", "/v1/[<tenant>/]recourse/batch",
              _answers(_recourse_batch_request), "traced"),
        Route("POST", "/v1/[<tenant>/]audit", _answers(_audit_request), "traced"),
        Route("POST", "/v1/[<tenant>/]scores", _answers(_scores_request), "traced"),
        Route("POST", "/v1/[<tenant>/]update", _update, "write", "traced"),
        Route("POST", "/v1/[<tenant>/]monitors", _add_monitor, "write", "traced"),
        Route("GET", "/v1/[<tenant>/]monitors", _list_monitors),
        Route("GET", "/v1/[<tenant>/]monitors/<id>", _get_monitor),
        Route("DELETE", "/v1/[<tenant>/]monitors/<id>", _remove_monitor, "write"),
        Route("GET", "/v1/[<tenant>/]watch", _watch),
        Route("GET", "/v1/registry", _list_registry),
        Route("GET", "/v1/registry/<tenant>", _describe_tenant),
        Route("POST", "/v1/registry/<tenant>/snapshot", _snapshot_tenant),
        Route("POST", "/v1/registry/<tenant>/evict", _evict_tenant),
        Route("DELETE", "/v1/registry/<tenant>", _remove_tenant, "write"),
        Route("GET", "/v1/[<tenant>/]log", _log),
        Route("GET", "/v1/registry/<tenant>/manifest", _manifest),
        Route("GET", "/v1/registry/<tenant>/object/<digest>", _object),
        Route("GET", "/v1/replication", _replication_status),
        Route("POST", "/v1/replication/promote", _promote),
        Route("POST", "/v1/replication/retarget", _retarget),
    )


def create_server(
    session: ExplainerSession | None = None,
    host: str = "127.0.0.1",
    port: int = 8321,
    verbose: bool = False,
    registry=None,
    follow: str | None = None,
    auto_promote: bool = False,
) -> ExplainerHTTPServer:
    """Bind a threading HTTP server to a session and/or a registry.

    ``port=0`` auto-picks. The caller owns the lifecycle:
    ``serve_forever()`` to block, ``shutdown()`` + ``server_close()`` to
    stop (``server_close`` drains in-flight handler threads), then close
    the session/registry.

    ``follow`` makes this a read-only *follower* of the leader at that
    base URL: it bootstraps every tenant from the leader's snapshots,
    tails each write-ahead log over ``GET /v1/<tenant>/log``, and bounces
    writes with a leader hint.  ``auto_promote`` lets a follower promote
    itself after consecutive leader health-check failures.
    """
    if session is None and registry is None:
        raise ValueError("create_server needs a session, a registry, or both")
    if follow is not None and registry is None:
        raise ValueError("a follower needs a registry (store) to replicate into")
    # Import every instrumented subsystem so /metrics advertises the full
    # family set (TYPE/HELP headers) from the very first scrape, before
    # any labelled series exists.
    _obs.preregister()
    handler = type(
        "BoundHandler", (ExplainerRequestHandler,), {"verbose": verbose}
    )
    # Handler threads are only safe against a running dispatch lane —
    # without it each thread would execute engine work inline.
    if session is not None:
        session.start_background()
    if registry is not None:
        registry.ensure_background()
    server = ExplainerHTTPServer((host, port), handler)
    server.session = session
    server.registry = registry
    from repro.monitor.scheduler import MonitorScheduler

    server.monitors = MonitorScheduler(
        store=registry.store if registry is not None else None
    )
    if registry is not None:
        from repro.replication.manager import ReplicationManager

        server.replication = ReplicationManager(
            registry,
            role="follower" if follow else "leader",
            leader_url=follow,
            auto_promote=auto_promote,
        )
        server.replication.start()
    return server


def serve(
    session: ExplainerSession | None = None,
    host: str = "127.0.0.1",
    port: int = 8321,
    verbose: bool = False,
    registry=None,
    checkpoint_on_close: bool = True,
    follow: str | None = None,
    auto_promote: bool = False,
) -> None:
    """Serve until interrupted, then shut down gracefully (CLI entry point).

    SIGTERM and SIGINT trigger the same sequence: stop accepting, drain
    in-flight requests, close the session, and close the store —
    checkpointing every loaded tenant (snapshot + WAL compaction) when
    ``checkpoint_on_close`` is set, so the next boot is warm.
    """
    server = create_server(
        session,
        host=host,
        port=port,
        verbose=verbose,
        registry=registry,
        follow=follow,
        auto_promote=auto_promote,
    )
    bound = server.server_address
    print(f"explanation service listening on http://{bound[0]}:{bound[1]}")

    draining = threading.Event()

    def _graceful(signum, frame):
        if draining.is_set():
            return
        draining.set()
        # Flip the shed gate first: handler threads answering after this
        # point refuse new work with 503 + Retry-After while the accept
        # loop winds down and in-flight requests complete.
        server.draining = True
        print(f"received {signal.Signals(signum).name}; draining and closing store")
        # shutdown() blocks until serve_forever exits; a signal handler
        # runs *inside* that loop's thread, so hand it to a helper.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous: dict[int, Any] = {}
    in_main = threading.current_thread() is threading.main_thread()
    if in_main:
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(sig, _graceful)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
        server.server_close()  # joins in-flight handler threads
        if server.replication is not None:
            server.replication.stop()
        if server.monitors is not None:
            server.monitors.close()
        if session is not None:
            session.close()
        if registry is not None:
            registry.close(checkpoint=checkpoint_on_close)
