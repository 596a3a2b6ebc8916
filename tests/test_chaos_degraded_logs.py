"""Degraded durable logs: a failed append never damages the file, and an
evict re-opens the log so the tenant recovers over HTTP.

Under an injected write, torn-write or fsync failure, the write-ahead
log and the monitor journal both refuse every later append with
:class:`DegradedError` (HTTP 503) instead of reusing the failed record's
sequence number or writing after its torn bytes.  Evicting the tenant
(or restarting) restores it from disk, which re-verifies the log.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.faults as faults
from repro import fit_table_model
from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.monitor.journal import MonitorJournal
from repro.service.server import create_server
from repro.store import Registry
from repro.utils.exceptions import DegradedError


def test_failed_journal_appends_never_corrupt_the_journal(tmp_path):
    path = tmp_path / "monitors.jsonl"
    journal = MonitorJournal(path)
    assert journal.append("register", {"id": "m1"}) == 1

    with faults.plan({"journal.append.fsync": {"once": True}}):
        with pytest.raises(DegradedError):
            journal.append("alert", {"n": 2})
    # sticky: appending after the failure would reuse seq 2
    with pytest.raises(DegradedError):
        journal.append("alert", {"n": 3})
    journal.close()

    journal = MonitorJournal(path)  # the restart re-verifies the file
    # the fsync-failed record's complete line reached the file before the
    # failure, so it is adopted (as in the WAL) — the standard resolution
    # of the crash-after-write-before-ack window
    assert journal.append("alert", {"n": 4}) == 3
    with faults.plan({"journal.append.torn": {"once": True}}):
        with pytest.raises(DegradedError):
            journal.append("alert", {"n": 5})
    # sticky: appending after the failure would extend the torn line
    with pytest.raises(DegradedError):
        journal.append("alert", {"n": 6})
    journal.close()

    replayed = MonitorJournal(path).replay()
    assert [r["seq"] for r in replayed] == [1, 2, 3]
    assert [r["data"] for r in replayed] == [{"id": "m1"}, {"n": 2}, {"n": 4}]


def make_lewis(n: int = 150) -> Lewis:
    rng = np.random.default_rng(5)
    rows = {
        "a": rng.integers(0, 3, n).tolist(),
        "b": rng.integers(0, 3, n).tolist(),
    }
    rows["y"] = [int(a + b >= 2) for a, b in zip(rows["a"], rows["b"])]
    table = Table.from_dict(
        rows, domains={"a": [0, 1, 2], "b": [0, 1, 2], "y": [0, 1]}
    )
    model = fit_table_model("logistic", table, ["a", "b"], "y", seed=5)
    return Lewis(
        model,
        data=table.select(["a", "b"]),
        attributes=["a", "b"],
        positive_outcome=1,
        infer_orderings=False,
    )


@pytest.fixture()
def served(tmp_path):
    registry = Registry(tmp_path / "store", background=True)
    registry.add("acme", make_lewis())
    server = create_server(registry=registry, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", registry
    server.shutdown()
    server.server_close()
    server.monitors.close()
    registry.close()


def call(url: str, method: str = "GET", payload: dict | None = None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


ROW = {"insert": [{"a": 2, "b": 2}]}


def test_degraded_wal_answers_503_until_evict(served):
    base, registry = served
    status, body = call(f"{base}/v1/acme/update", "POST", ROW)
    assert status == 200
    acked = body["result"]["wal_seq"]

    with faults.plan({"wal.append.fsync": {"once": True}}):
        status, body = call(f"{base}/v1/acme/update", "POST", ROW)
    assert status == 503 and "degraded" in body["error"]
    status, _ = call(f"{base}/v1/acme/update", "POST", ROW)
    assert status == 503  # sticky until the log is re-opened

    status, body = call(f"{base}/v1/registry/acme/evict", "POST", {})
    assert status == 200 and body["evicted"] is True
    status, body = call(f"{base}/v1/acme/update", "POST", ROW)
    assert status == 200
    # the fsync-failed record reached the file and was adopted on restore
    assert body["result"]["wal_seq"] == acked + 2
    seqs = [seq for seq, _d in registry.get("acme").log.replay()]
    assert seqs == list(range(1, acked + 3))


def test_degraded_journal_answers_503_until_evict(served):
    base, _registry = served
    spec = {"kind": "monotonicity", "params": {"attribute": "a"}}
    status, first = call(f"{base}/v1/acme/monitors", "POST", spec)
    assert status == 200

    with faults.plan({"journal.append.torn": {"once": True}}):
        status, body = call(f"{base}/v1/acme/monitors", "POST", spec)
    assert status == 503 and "degraded" in body["error"]
    status, _ = call(f"{base}/v1/acme/monitors", "POST", spec)
    assert status == 503  # sticky until the journal is re-opened

    status, _ = call(f"{base}/v1/registry/acme/evict", "POST", {})
    assert status == 200
    status, second = call(f"{base}/v1/acme/monitors", "POST", spec)
    assert status == 200
    status, listing = call(f"{base}/v1/acme/monitors")
    # the torn registration was truncated away; the acked ones survive
    ids = [m["id"] for m in listing["monitors"]]
    assert ids == [first["id"], second["id"]]
