"""The HTTP route table, exercised row by row.

Every test here iterates :attr:`ExplainerRequestHandler.routes` itself,
so a route added to the table is covered by the drain, follower and
documentation checks without touching this file.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.service.server as server_module
from repro import fit_table_model
from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.service import ExplainerSession
from repro.service.server import (
    BadRequest,
    ExplainerRequestHandler,
    NotFound,
    create_server,
    error_response,
)
from repro.store import Registry
from repro.utils.exceptions import (
    CorruptArtifactError,
    DeadlineExceededError,
    DegradedError,
    DomainError,
    EstimationError,
    OverloadedError,
    RecourseInfeasibleError,
    StoreError,
)

ROUTES = ExplainerRequestHandler.routes
TENANT = "alpha"
LEADER_URL = "http://127.0.0.1:9"
#: routes a draining server keeps answering (first path segment)
DRAIN_EXEMPT = {"healthz", "readyz", "metrics"}


def make_lewis(seed: int, n: int = 150) -> Lewis:
    rng = np.random.default_rng(seed)
    rows = {
        "a": rng.integers(0, 3, n).tolist(),
        "b": rng.integers(0, 3, n).tolist(),
    }
    rows["y"] = [int(a + b >= 2) for a, b in zip(rows["a"], rows["b"])]
    table = Table.from_dict(
        rows, domains={"a": [0, 1, 2], "b": [0, 1, 2], "y": [0, 1]}
    )
    model = fit_table_model("logistic", table, ["a", "b"], "y", seed=seed)
    return Lewis(
        model,
        data=table.select(["a", "b"]),
        attributes=["a", "b"],
        positive_outcome=1,
        infer_orderings=False,
    )


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """Default session *and* registry, so every route has a target."""
    registry = Registry(tmp_path_factory.mktemp("store"), background=True)
    registry.add(TENANT, make_lewis(1), default_actionable=["a", "b"])
    session = ExplainerSession(
        make_lewis(2), default_actionable=["a", "b"], background=True
    )
    httpd = create_server(session, registry=registry, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    httpd.replication.stop()
    httpd.monitors.close()
    session.close()
    registry.close()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def request(base_url: str, method: str, path: str, payload=None):
    """(status, parsed body or None, headers) — errors included."""
    data = None
    if method != "GET":
        data = json.dumps({} if payload is None else payload).encode()
    req = urllib.request.Request(base_url + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            status, raw, headers = response.status, response.read(), response.headers
    except urllib.error.HTTPError as exc:
        status, raw, headers = exc.code, exc.read(), exc.headers
    try:
        body = json.loads(raw)
    except ValueError:
        body = None  # /metrics text, blob bytes
    return status, body, headers


def concrete_paths(route) -> list[str]:
    """Request paths for a route: default session and tenant-scoped.

    Every path carries ``?timeout=0`` so the watch long-poll answers at
    once; the other routes ignore the parameter.
    """
    path = (
        route.template.replace("<tenant>", TENANT)
        .replace("<id>", "m1")
        .replace("<digest>", "0" * 64)
    ) + "?timeout=0"
    if not route.scoped:
        return [path]
    return [path.replace(f"[{TENANT}/]", ""), path.replace(f"[{TENANT}/]", f"{TENANT}/")]


def route_id(route) -> str:
    return f"{route.method} {route.template}"


@pytest.fixture()
def draining(server):
    server.draining = True
    try:
        yield server
    finally:
        server.draining = False


@pytest.mark.parametrize("route", ROUTES, ids=route_id)
def test_draining_sheds_every_route_but_liveness_readiness_metrics(
    base_url, draining, route
):
    for path in concrete_paths(route):
        status, body, headers = request(base_url, route.method, path)
        if route.segments[0] in DRAIN_EXEMPT:
            assert not (body and "draining;" in body.get("error", "")), path
            continue
        assert status == 503, path
        assert headers["Retry-After"] == "1"
        assert "draining" in body["error"]
        assert body["request_id"]


@pytest.fixture()
def follower(server):
    """The server's replication manager in the follower role.

    Flipping ``role`` is exactly what the HTTP layer consults; no tailer
    runs, so nothing contacts the (absent) leader.  Reasserted for every
    request because the promote route flips it back.
    """
    manager = server.replication
    saved = manager.role, manager.leader_url
    manager.leader_url = LEADER_URL
    try:
        yield manager
    finally:
        manager.role, manager.leader_url = saved


def test_the_write_flag_covers_every_state_changing_route():
    """A write a follower accepted would fork its state from the leader's."""
    assert {(r.method, r.template) for r in ROUTES if "write" in r.flags} == {
        ("POST", "/v1/[<tenant>/]update"),
        ("POST", "/v1/[<tenant>/]monitors"),
        ("DELETE", "/v1/[<tenant>/]monitors/<id>"),
        ("DELETE", "/v1/registry/<tenant>"),
    }


@pytest.mark.parametrize("route", ROUTES, ids=route_id)
def test_follower_refuses_exactly_the_write_routes(base_url, follower, route):
    for path in concrete_paths(route):
        follower.role = "follower"
        status, body, _ = request(base_url, route.method, path)
        refused = status == 503 and bool(body) and "leader_url" in body
        assert refused == ("write" in route.flags), (path, status, body)
        if refused:
            assert body["leader_url"] == LEADER_URL
            assert body["request_id"]


@pytest.mark.parametrize("method", sorted({r.method for r in ROUTES}))
@pytest.mark.parametrize("path", ["/v1/no/such/route", "/nope", f"/v1/{TENANT}/nope"])
def test_unknown_path_is_a_json_404_with_request_id(base_url, method, path):
    status, body, headers = request(base_url, method, path)
    assert status == 404
    assert headers["Content-Type"] == "application/json"
    assert body["error"] and body["request_id"]


# -- the one exception -> status mapping ------------------------------------


@pytest.mark.parametrize(
    "exc, status, retry_after",
    [
        (OverloadedError("queue full", retry_after_s=0.2), 429, "1"),
        (OverloadedError("queue full", retry_after_s=2.6), 429, "3"),
        (DegradedError("fsync failed"), 503, "1"),
        (StoreError("racing an eviction"), 503, None),
        (CorruptArtifactError("digest mismatch"), 503, None),
        (RecourseInfeasibleError("no action set"), 409, None),
        (EstimationError("empty context"), 422, None),
        (DeadlineExceededError("budget spent"), 504, None),
        (KeyError("nope"), 400, None),
        (IndexError("row 99"), 400, None),
        (ValueError("bad delta"), 400, None),
        (DomainError("not in domain"), 400, None),
        (BadRequest("malformed"), 400, None),
        (NotFound("no such tenant"), 404, None),
        (RuntimeError("defect"), 500, None),
        (TypeError("defect"), 500, None),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
)
def test_error_response_maps_each_exception_class(exc, status, retry_after):
    got_status, message, headers = error_response(exc)
    assert got_status == status
    assert (headers or {}).get("Retry-After") == retry_after
    assert str(exc) in message
    if status == 500:
        assert message.startswith(f"internal error: {type(exc).__name__}")


#: (method, exception, status, Retry-After): GET and DELETE answer with
#: the same mapping as POST.  The exception is raised by the monitor
#: scheduler under ``GET /v1/<tenant>/watch`` and
#: ``DELETE /v1/<tenant>/monitors/<id>``.
SHARED = [
    ("GET", StoreError("journal busy"), 503, None),
    ("GET", DegradedError("journal fsync failed"), 503, "1"),
    ("GET", OverloadedError("queue full", retry_after_s=2.0), 429, "2"),
    ("GET", KeyError("c"), 400, None),
    ("GET", IndexError("row 99"), 400, None),
    ("GET", RecourseInfeasibleError("no action set"), 409, None),
    ("GET", EstimationError("empty context"), 422, None),
    ("GET", DeadlineExceededError("budget spent"), 504, None),
    ("DELETE", StoreError("journal busy"), 503, None),
    ("DELETE", DegradedError("journal fsync failed"), 503, "1"),
    ("DELETE", OverloadedError("queue full", retry_after_s=2.0), 429, "2"),
    ("DELETE", KeyError("c"), 400, None),
    ("DELETE", IndexError("row 99"), 400, None),
    ("DELETE", RecourseInfeasibleError("no action set"), 409, None),
    ("DELETE", EstimationError("empty context"), 422, None),
    ("DELETE", DeadlineExceededError("budget spent"), 504, None),
]


@pytest.mark.parametrize(
    "method, exc, status, retry_after",
    SHARED,
    ids=[f"{m}-{type(e).__name__}-{s}" for m, e, s, _ in SHARED],
)
def test_get_and_delete_share_the_post_mapping(
    base_url, server, monkeypatch, method, exc, status, retry_after
):
    def raise_exc(*args, **kwargs):
        raise exc

    if method == "GET":
        monkeypatch.setattr(server.monitors, "watch", raise_exc)
        path = f"/v1/{TENANT}/watch?timeout=0"
    else:
        monkeypatch.setattr(server.monitors, "ensure", raise_exc)
        path = f"/v1/{TENANT}/monitors/m1"
    got, body, headers = request(base_url, method, path)
    assert got == status
    assert headers.get("Retry-After") == retry_after
    assert body["request_id"]


def test_non_object_monitor_body_is_a_client_error(base_url):
    status, body, _ = request(base_url, "POST", f"/v1/{TENANT}/monitors", [1, 2])
    assert status == 400
    assert "JSON object" in body["error"]


@pytest.mark.parametrize("path", ["/v1/registry/alpha/evict", "/v1/no/such/route"])
def test_malformed_deadline_is_a_client_error_on_any_post(base_url, path):
    req = urllib.request.Request(
        base_url + path,
        data=b"{}",
        method="POST",
        headers={"X-Repro-Deadline-Ms": "soon"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(req, timeout=30)
    assert excinfo.value.code == 400
    assert "X-Repro-Deadline-Ms" in json.loads(excinfo.value.read())["error"]


# -- body framing ------------------------------------------------------------


@pytest.mark.parametrize(
    "method, path", [("POST", "/v1/explain/global"), ("DELETE", "/v1/monitors/x")]
)
def test_negative_content_length_is_refused_not_awaited(server, method, path):
    """``rfile.read(-1)`` reads to EOF: the handler must not wait for it."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=3) as sock:
        sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Content-Type: application/json\r\nContent-Length: -1\r\n\r\n".encode()
        )
        raw = b""
        while chunk := sock.recv(65536):  # the server closes after answering
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    assert lines[0].split()[1] == "400"
    assert "Connection: close" in lines[1:]
    assert "Content-Length" in json.loads(body)["error"]


# -- the table's documentation ----------------------------------------------


def test_module_docstring_indexes_exactly_the_route_table():
    documented = set(
        re.findall(
            r"^\s+(GET|POST|DELETE)\s+(/\S*)", server_module.__doc__, re.MULTILINE
        )
    )
    assert documented == {(r.method, r.template) for r in ROUTES}
    assert len(ROUTES) == len(documented)  # no duplicate rows either
