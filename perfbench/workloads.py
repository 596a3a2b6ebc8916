"""The three workloads, the closed loop that runs them, their guards and checks.

Each workload runs as a closed loop: ``CONNECTIONS`` threads, each with
one keep-alive ``http.client`` connection, each sending its next request
only after the previous answer arrived (dashboards, audit scripts and
the CLI wait for every answer).  Inputs come from the workload seed
alone, one stream per connection, so a seed names the exact requests a
run can send.

Each connection's stream first runs ``WARM_S`` seconds untimed, then
the timed window continues the same stream.  The warm phase runs both
connections at once, so first-use costs (local-model fits, the recourse
solver, the first concurrent writes) are paid before timing.

A workload is a :class:`Workload`:

* ``prepare`` runs on one connection before the warm phase;
* ``stream(conn)`` yields that connection's operations;
* ``shape_guard`` and ``check`` run afterwards, over the warm phase and
  the window.  A guard keeps the workload what it claims to be (a later
  change cannot quietly turn one workload into another); a check
  compares outputs to a reference.  Either one failing fails the run.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import pickle
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from launcher import TENANT, build_lewis, build_tenant_schema

CONNECTIONS = 2
PREFIX = f"/v1/{TENANT}"

#: untimed seconds of closed loop before the window
WARM_S = 1.5

#: hot-read: fixed global and contextual queries, all computed before timing
HOT_QUERIES: tuple[tuple[str, dict], ...] = (
    ("/explain/global", {}),
    ("/explain/global", {"max_pairs_per_attribute": 4}),
    ("/explain/context", {"context": {"sex": "Female"}}),
    ("/explain/context", {"context": {"sex": "Male"}}),
    ("/explain/context", {"context": {"marital": "never married"}}),
    ("/explain/context", {"context": {"age": "31-45 yr"}}),
    ("/explain/context", {"context": {"occup": "sales"}}),
    ("/explain/context", {"context": {"edu": "masters+"}}),
)

#: cold-read: responses per kind checked against the in-process reference
COLD_SAMPLE = 12


@dataclass(frozen=True)
class Op:
    kind: str  # explain | local | recourse | update
    path: str
    payload: dict

    @property
    def key(self) -> tuple:
        return (self.path, json.dumps(self.payload, sort_keys=True))


@dataclass
class Record:
    """One timed operation as the client saw it."""

    op: Op
    conn: int
    latency_s: float
    status: int | None  # None: connection error
    ok: bool
    timed: bool
    nbytes: int = 0
    body: dict | None = None


class Connection:
    """One keep-alive client connection; reconnects after errors."""

    def __init__(self, port: int):
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, payload: dict | None = None):
        """``(status, body bytes)``; raises ``OSError``/``HTTPException``."""
        data = None if payload is None else json.dumps(payload).encode()
        headers = {} if data is None else {"Content-Type": "application/json"}
        try:
            self._conn.request(method, path, body=data, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            raise

    def json(self, method: str, path: str, payload: dict | None = None) -> dict:
        """Answer of a request that must succeed (untimed control calls)."""
        status, body = self.request(method, path, payload)
        if status != 200:
            raise RuntimeError(f"{method} {path} -> {status}: {body[:300]!r}")
        return json.loads(body)

    def close(self) -> None:
        self._conn.close()


def answered(op: Op, status: int | None) -> bool:
    """A 200, or an infeasible-recourse 409, is an answer; all else fails."""
    return status == 200 or (op.kind == "recourse" and status == 409)


def _run_phase(connections, streams, seconds: float, timed: bool) -> tuple[list[Record], float]:
    """Every connection runs its stream for ``seconds``, all at once."""
    barrier = threading.Barrier(len(connections))
    per_conn: list[list[Record]] = [[] for _ in connections]
    spans: list[tuple[float, float]] = [(0.0, 0.0)] * len(connections)

    def run(index: int) -> None:
        conn, records = connections[index], per_conn[index]
        barrier.wait()
        started = end = time.perf_counter()
        deadline = started + seconds
        for op in streams[index]:
            sent = time.perf_counter()
            if sent >= deadline:
                # not sent: the next phase starts with this operation
                streams[index] = itertools.chain([op], streams[index])
                break
            status, body = None, b""
            try:
                status, body = conn.request("POST", PREFIX + op.path, op.payload)
            except (OSError, http.client.HTTPException):
                pass
            end = time.perf_counter()
            ok = answered(op, status)
            records.append(
                Record(op, index, end - sent, status, ok, timed, len(body),
                       json.loads(body) if ok else None)
            )
        spans[index] = (started, end)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(connections))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window = max(end for _s, end in spans) - min(start for start, _e in spans)
    return [r for records in per_conn for r in records], window


def drive(
    workload: "Workload", port: int, seconds: float, before_window=None
) -> tuple[list[Record], float]:
    """Prepare, warm up for ``WARM_S``, then time ``seconds`` of closed loop.

    ``before_window()`` runs between the warm phase and the window.
    Returns every record (``timed`` marks the window's) and the window
    length, from the first send to the last answer.  A connection whose
    stream runs out stops early, so the window can be shorter than
    ``seconds``.
    """
    connections = [Connection(port) for _ in range(CONNECTIONS)]
    try:
        workload.prepare(connections[0])
        streams = [iter(workload.stream(i)) for i in range(CONNECTIONS)]
        warm, _warm_s = _run_phase(connections, streams, WARM_S, timed=False)
        if before_window is not None:
            before_window()
        timed, window = _run_phase(connections, streams, seconds, timed=True)
    finally:
        for conn in connections:
            conn.close()
    return warm + timed, window


def canonical(result: Any) -> str:
    """Byte-exact JSON form of a result (floats keep every digit)."""
    return json.dumps(json.loads(json.dumps(result, default=str)), sort_keys=True)


@dataclass
class Verdict:
    """Outcome of the guards and checks of one run."""

    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def require(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)

    @property
    def ok(self) -> bool:
        return not self.problems


class Workload:
    """Base: no warm-up, no guard, no check."""

    name = ""
    needs_reference = False

    def __init__(self, seed: int, n_rows: int):
        self.seed = seed
        self.n_rows = n_rows

    def prepare(self, conn: Connection) -> None:
        pass

    def stream(self, index: int) -> Iterator[Op]:
        raise NotImplementedError

    def shape_guard(self, records: list[Record], verdict: Verdict) -> None:
        pass

    def final_state(self, conn: Connection) -> Any:
        """Server state the check needs, read before the server stops."""
        return None

    def check(self, records, final, reference, verdict: Verdict) -> None:
        pass


class HotRead(Workload):
    """Cache hits only: the HTTP front end and the result cache."""

    name = "hot-read"

    def __init__(self, seed: int, n_rows: int):
        super().__init__(seed, n_rows)
        order = list(range(len(HOT_QUERIES)))
        random.Random(seed).shuffle(order)
        self.ops = [Op("explain", *HOT_QUERIES[i]) for i in order]
        self.expected: dict[tuple, str] = {}

    def prepare(self, conn: Connection) -> None:
        # one pass computes every answer, so every later request hits
        for op in self.ops:
            body = conn.json("POST", PREFIX + op.path, op.payload)
            self.expected[op.key] = canonical(body["result"])

    def stream(self, index: int) -> Iterator[Op]:
        start = index * len(self.ops) // CONNECTIONS
        return itertools.islice(itertools.cycle(self.ops), start, None)

    def shape_guard(self, records, verdict) -> None:
        misses = sum(1 for r in records if r.ok and not r.body["cached"])
        verdict.require(misses == 0, f"hot-read: {misses} requests missed the cache")

    def check(self, records, final, reference, verdict) -> None:
        wrong = sum(
            1
            for r in records
            if r.ok and canonical(r.body["result"]) != self.expected[r.op.key]
        )
        verdict.require(wrong == 0, f"hot-read: {wrong} responses differ from their first answer")
        verdict.notes.append(
            f"hot-read: {sum(r.ok for r in records)} responses equal their first answer"
        )


class ColdRead(Workload):
    """Local explanations and recourse, each request key used once."""

    name = "cold-read"
    needs_reference = True

    def __init__(self, seed: int, n_rows: int):
        super().__init__(seed, n_rows)
        self.rows = list(range(n_rows))
        random.Random(seed).shuffle(self.rows)

    @staticmethod
    def ops_for(row: int) -> tuple[Op, Op]:
        return (
            Op("local", "/explain/local", {"index": row}),
            Op("recourse", "/recourse", {"index": row}),
        )

    def stream(self, index: int) -> Iterator[Op]:
        for row in self.rows[index::CONNECTIONS]:
            yield from self.ops_for(row)

    def shape_guard(self, records, verdict) -> None:
        keys = [r.op.key for r in records]
        verdict.require(len(keys) == len(set(keys)), "cold-read: a request key repeated")
        hits = sum(1 for r in records if r.ok and r.body.get("cached"))
        verdict.require(hits == 0, f"cold-read: {hits} requests hit the cache")

    def check(self, records, final, reference, verdict) -> None:
        from repro.service.session import LocalExplainRequest, RecourseRequest
        from repro.utils.exceptions import RecourseInfeasibleError

        session = reference.session
        rng = random.Random(self.seed)
        recourse = [r for r in records if r.timed and r.ok and r.op.kind == "recourse"]
        local = [r for r in records if r.timed and r.ok and r.op.kind == "local"]
        sample = rng.sample(local, min(COLD_SAMPLE, len(local))) + rng.sample(
            recourse, min(COLD_SAMPLE, len(recourse))
        )
        mismatched = 0
        for record in sample:
            index = record.op.payload["index"]
            try:
                if record.op.kind == "local":
                    expected = session.handle(LocalExplainRequest(index=index))
                else:
                    expected = session.handle(RecourseRequest(index=index))
                expected = canonical(expected["result"])
            except RecourseInfeasibleError:
                expected = "infeasible"
            got = "infeasible" if record.status == 409 else canonical(record.body["result"])
            mismatched += got != expected
        verdict.require(
            mismatched == 0,
            f"cold-read: {mismatched} of {len(sample)} sampled responses differ "
            "from the in-process reference",
        )
        verdict.notes.append(
            f"cold-read: {len(sample) - mismatched} of {len(sample)} sampled "
            "responses bit-identical to the in-process reference"
        )


class WriteMix(Workload):
    """Durable one-row deltas, each followed by a local and a global read."""

    name = "write-mix"
    needs_reference = True

    def __init__(self, seed: int, n_rows: int, domains: dict[str, tuple]):
        super().__init__(seed, n_rows)
        self.domains = domains
        self.rows = list(range(n_rows))
        random.Random(seed).shuffle(self.rows)

    def _delta(self, rng: random.Random) -> dict:
        row = {name: rng.choice(values) for name, values in self.domains.items()}
        return {"insert": [row], "delete": [rng.randrange(self.n_rows)]}

    def _loop(self, rows: list[int], rng: random.Random) -> Iterator[Op]:
        for row in rows:
            yield Op("update", "/update", self._delta(rng))
            yield Op("local", "/explain/local", {"index": row})
            yield Op("explain", "/explain/global", {})

    def stream(self, index: int) -> Iterator[Op]:
        rng = random.Random(f"{self.seed}:{index}")
        return self._loop(self.rows[index::CONNECTIONS], rng)

    @staticmethod
    def acked(records) -> list[dict]:
        """Acknowledged deltas with their results, in ``wal_seq`` order."""
        updates = [
            {"delta": r.op.payload, "result": r.body["result"]}
            for r in records
            if r.op.kind == "update" and r.ok
        ]
        return sorted(updates, key=lambda u: u["result"]["wal_seq"])

    def shape_guard(self, records, verdict) -> None:
        sizes = {
            (u["result"]["rows_before"], u["result"]["n_rows"]) for u in self.acked(records)
        }
        verdict.require(
            sizes == {(self.n_rows, self.n_rows)},
            f"write-mix: population left {self.n_rows} rows: {sorted(sizes)[:4]}",
        )

    def final_state(self, conn: Connection) -> tuple[dict, dict]:
        return (
            conn.json("GET", PREFIX + "/health?digest=1"),
            conn.json("POST", PREFIX + "/explain/global", {}),
        )

    def check(self, records, final, reference, verdict) -> None:
        from repro.service.session import GlobalExplainRequest

        updates = self.acked(records)
        seqs = [u["result"]["wal_seq"] for u in updates]
        health, final_global = final
        verdict.require(
            seqs == list(range(1, len(seqs) + 1)) and health["last_seq"] == len(seqs),
            "write-mix: acknowledged wal_seq values are not unique and contiguous "
            f"(log ends at {health['last_seq']}, {len(seqs)} acknowledged)",
        )
        verdict.require(
            health["n_rows"] == self.n_rows,
            f"write-mix: final population {health['n_rows']} != {self.n_rows}",
        )
        session = reference.session
        for update in updates:
            session.update(update["delta"])
        digest = session.lewis.estimator.engine.state_digest()
        verdict.require(
            health["state_digest"] == digest,
            "write-mix: server state digest differs from the in-process replay",
        )
        expected = canonical(session.handle(GlobalExplainRequest())["result"])
        verdict.require(
            canonical(final_global["result"]) == expected,
            "write-mix: final global explanation differs from the in-process replay",
        )
        verdict.notes.append(
            f"write-mix: {len(updates)} acknowledged deltas (wal_seq 1..{len(seqs)}) "
            "replayed in process: digest and global explanation equal"
        )


def source_digest() -> str:
    """Digest of the library sources and the tenant recipe."""
    here = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted((here.parent / "src").rglob("*.py")) + [here / "launcher.py"]:
        digest.update(str(path.relative_to(here.parent)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Reference:
    """In-process explainer built from the tenant's seeds.

    The freshly built explainer is pickled in ``cache_dir`` under a digest
    of the sources, so later runs of the same code load it instead of
    fitting the forest again.
    """

    def __init__(self, cache_dir: Path):
        from repro.service import ExplainerSession

        path = cache_dir / f"reference-{source_digest()}.pickle"
        if path.exists():
            actionable, lewis = pickle.loads(path.read_bytes())
        else:
            bundle, lewis, _stamps = build_lewis()
            actionable = bundle.actionable
            cache_dir.mkdir(parents=True, exist_ok=True)
            partial = path.with_suffix(".partial")
            partial.write_bytes(pickle.dumps((actionable, lewis)))
            partial.replace(path)
        self.session = ExplainerSession(lewis, default_actionable=actionable)

    def close(self) -> None:
        self.session.close()


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` for workload seed ``seed``."""
    n_rows, domains = build_tenant_schema()
    if name == HotRead.name:
        return HotRead(seed, n_rows)
    if name == ColdRead.name:
        return ColdRead(seed, n_rows)
    if name == WriteMix.name:
        return WriteMix(seed, n_rows, domains)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (HotRead.name, ColdRead.name, WriteMix.name)
