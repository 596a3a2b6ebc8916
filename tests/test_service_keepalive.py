"""Keep-alive serving: one write per response, TCP_NODELAY, bounded labels.

A response written as headers first and body second is held by Nagle's
algorithm until the client ACKs the headers, and clients delay that ACK
by ~40 ms: every keep-alive answer would take >= 40 ms.  These tests pin
the fix at three levels — wall-clock latency over a real keep-alive
connection, the number of socket writes per response, and the socket
option — plus the JSON envelope and metrics of stdlib protocol errors
and the bounded ``route`` label of the latency histogram.
"""

from __future__ import annotations

import http.client
import io
import json
import random
import re
import socket
import statistics
import string
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.service import server as server_module
from repro.service.server import ExplainerRequestHandler, create_server
from repro.service.session import ExplainerSession

#: a keep-alive answer that waits on a delayed ACK takes >= 40 ms
KEEPALIVE_P50_LIMIT_MS = 10.0


def tiny_model(features: Table) -> np.ndarray:
    return (features.codes("a") + features.codes("b")) >= 2


@pytest.fixture(scope="module")
def server():
    rng = np.random.default_rng(5)
    n = 200
    table = Table.from_dict(
        {
            "a": rng.integers(0, 3, n).tolist(),
            "b": rng.integers(0, 3, n).tolist(),
            "sex": rng.choice(["F", "M"], n).tolist(),
        },
        domains={"a": [0, 1, 2], "b": [0, 1, 2], "sex": ["F", "M"]},
    )
    lewis = Lewis(
        tiny_model, data=table, feature_names=["a", "b", "sex"],
        infer_orderings=False,
    )
    session = ExplainerSession(lewis, default_actionable=["a", "b"])
    httpd = create_server(session, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd.server_address[:2]
    httpd.shutdown()
    httpd.server_close()
    session.close()


def request(conn: http.client.HTTPConnection, method: str, path: str, body=None):
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.getheader("Content-Type"), response.read()


def metrics_text(address) -> str:
    conn = http.client.HTTPConnection(*address, timeout=10)
    try:
        status, _type, body = request(conn, "GET", "/metrics")
    finally:
        conn.close()
    assert status == 200
    return body.decode()


class TestKeepAliveLatency:
    @pytest.mark.parametrize(
        "method, path, body",
        [
            ("GET", "/healthz", None),
            ("POST", "/v1/explain/global", b"{}"),  # a cache hit after warm-up
            ("GET", "/metrics", None),
        ],
    )
    def test_median_under_limit(self, server, method, path, body):
        conn = http.client.HTTPConnection(*server, timeout=10)
        try:
            for _ in range(5):
                assert request(conn, method, path, body)[0] == 200
            timings = []
            for _ in range(30):
                started = time.perf_counter()
                status, _type, _body = request(conn, method, path, body)
                timings.append((time.perf_counter() - started) * 1e3)
                assert status == 200
        finally:
            conn.close()
        assert statistics.median(timings) < KEEPALIVE_P50_LIMIT_MS, timings


class RecordingSocket:
    """Just enough socket for a handler: canned request in, writes recorded."""

    def __init__(self, raw: bytes):
        self._rfile = io.BytesIO(raw)
        self.writes: list[bytes] = []
        self.options: list[tuple] = []

    def makefile(self, mode, buffering=None):
        assert "r" in mode
        return self._rfile

    def sendall(self, data) -> None:
        self.writes.append(bytes(data))

    def settimeout(self, timeout) -> None:
        pass

    def setsockopt(self, *option) -> None:
        self.options.append(option)


def handle(raw: bytes) -> RecordingSocket:
    """Run one connection carrying ``raw`` through the real handler."""
    sock = RecordingSocket(raw)
    server = SimpleNamespace(
        session=None,
        # serves the blob route: /v1/registry/<tenant>/object/<digest>
        registry=SimpleNamespace(
            store=SimpleNamespace(get_bytes=lambda digest: b"\x00\xffblob")
        ),
        monitors=None,
        replication=None,
        draining=False,
    )
    ExplainerRequestHandler(sock, ("127.0.0.1", 0), server)
    return sock


def parse(write: bytes) -> tuple[int, dict[str, str], bytes]:
    head, _sep, body = write.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, body


class TestOneWritePerResponse:
    @pytest.mark.parametrize(
        "path, status, content_type",
        [
            ("/healthz", 200, "application/json"),
            ("/metrics", 200, "text/plain; version=0.0.4; charset=utf-8"),
            ("/v1/registry/t/object/abc", 200, "application/octet-stream"),
            ("/v1/nope", 404, "application/json"),
        ],
    )
    def test_routed_response_is_one_write(self, path, status, content_type):
        sock = handle(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        assert len(sock.writes) == 1
        got_status, headers, body = parse(sock.writes[0])
        assert got_status == status
        assert headers["Content-Type"] == content_type
        assert int(headers["Content-Length"]) == len(body) > 0
        if status >= 400:
            assert headers["Connection"] == "close"

    def test_stdlib_error_is_one_json_write(self):
        sock = handle(b"PUT /v1/explain/global HTTP/1.1\r\nHost: x\r\n\r\n")
        assert len(sock.writes) == 1
        status, headers, body = parse(sock.writes[0])
        assert status == 501
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        payload = json.loads(body)
        assert "PUT" in payload["error"] and len(payload["request_id"]) == 16

    def test_malformed_request_line_is_one_json_write(self):
        sock = handle(b"GET / extra HTTP/1.1\r\n\r\n")
        assert len(sock.writes) == 1
        status, headers, body = parse(sock.writes[0])
        assert status == 400
        assert json.loads(body)["error"].startswith("Bad request")

    def test_stdlib_error_after_keepalive_request_gets_its_own_id(self, monkeypatch):
        # the handler outlives a request on a keep-alive connection; the
        # second request's error must not reuse the first request's id
        minted = iter(["first-request-id", "second-request-id"])
        monkeypatch.setattr(server_module._tracing, "new_id", lambda: next(minted))
        sock = handle(
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            b"PUT /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert len(sock.writes) == 2
        assert parse(sock.writes[0])[0] == 200
        status, _headers, body = parse(sock.writes[1])
        assert status == 501
        assert json.loads(body)["request_id"] == "second-request-id"

    def test_nagle_is_off(self):
        assert ExplainerRequestHandler.disable_nagle_algorithm is True
        sock = handle(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert (socket.IPPROTO_TCP, socket.TCP_NODELAY, True) in sock.options


class TestStdlibErrorsOverHTTP:
    def test_unsupported_method_answers_json_and_is_counted(self, server):
        series = 'repro_http_requests_total{method="PUT",status="501"}'

        def count() -> float:
            for line in metrics_text(server).splitlines():
                if line.startswith(series + " "):
                    return float(line.rsplit(" ", 1)[1])
            return 0.0

        before = count()
        conn = http.client.HTTPConnection(*server, timeout=10)
        try:
            status, content_type, body = request(
                conn, "PUT", "/v1/explain/global", b"{}"
            )
        finally:
            conn.close()
        assert status == 501
        assert content_type == "application/json"
        assert len(json.loads(body)["request_id"]) == 16
        assert count() == before + 1


_ROUTE_LABEL = re.compile(r'^repro_http_request_seconds_count\{[^}]*route="([^"]*)"')


def route_labels(address) -> set[str]:
    return {
        match.group(1)
        for match in map(_ROUTE_LABEL.match, metrics_text(address).splitlines())
        if match
    }


class TestRouteLabel:
    def test_matched_route_carries_its_template(self, server):
        conn = http.client.HTTPConnection(*server, timeout=10)
        try:
            assert request(conn, "GET", "/v1/health")[0] == 200
        finally:
            conn.close()
        assert "/v1/[<tenant>/]health" in route_labels(server)

    def test_unknown_paths_only_add_unmatched(self, server):
        before = route_labels(server)
        rng = random.Random(3)
        for _ in range(50):
            path = "/v1/" + "".join(rng.choices(string.ascii_lowercase, k=12))
            conn = http.client.HTTPConnection(*server, timeout=10)
            try:
                assert request(conn, "GET", path)[0] == 404
            finally:
                conn.close()
        after = route_labels(server)
        assert after - before <= {"unmatched"}
        assert "unmatched" in after
