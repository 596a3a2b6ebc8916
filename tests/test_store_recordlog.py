"""RecordLog: the on-disk format and the file rules both durable logs share.

The write-ahead log (:class:`DeltaLog`) and the monitor journal
(:class:`MonitorJournal`) are one primitive with different record
bodies, so every file rule is one test parametrized over both.  The
byte literals pin the format: replication catch-up, snapshot restore
and stores already on disk all read these files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pytest

import repro.faults as faults
from repro.monitor.journal import MonitorJournal
from repro.service.updates import TableDelta
from repro.store import DeltaLog
from repro.utils.exceptions import DegradedError, StoreError

# Captured from the format's reference writer; never regenerate them
# from the code under test.
WAL_BYTES = (
    b'{"crc":"ac88d900f8e4","delete":[],"insert":[{"a":1,"b":"x"}],"seq":1}\n'
    b'{"crc":"8c2643f97e93","delete":[3,0],"insert":[],'
    b'"request_id":"req-7","seq":2}\n'
    b'{"crc":"99443c035578","delete":[1],"insert":[{"a":2.5,"b":null}],'
    b'"seq":3}\n'
)
FLOOR_MARKER = b'{"crc":"166b1f23b682","floor":1}\n'
JOURNAL_BYTES = (
    b'{"crc":"054b0e6dd6c4","data":{"id":"m1","spec":{"k":[1,2],'
    b'"metric":"nec"}},"kind":"register","seq":1}\n'
    b'{"crc":"b790c274c85c","data":{"alert":{"value":0.25}},"kind":"alert",'
    b'"seq":2}\n'
)


class TestPinnedFormat:
    def test_wal_writes_and_replays_the_pinned_bytes(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        log = DeltaLog(path)
        log.append(TableDelta(insert=({"a": 1, "b": "x"},), delete=()))
        log.append(TableDelta(insert=(), delete=(3, 0)), request_id="req-7")
        log.append(TableDelta(insert=({"a": 2.5, "b": None},), delete=(1,)))
        assert path.read_bytes() == WAL_BYTES

        assert log.truncate_through(1) == 2
        compacted = FLOOR_MARKER + WAL_BYTES.split(b"\n", 1)[1]
        assert path.read_bytes() == compacted
        log.close()

        path.write_bytes(WAL_BYTES)
        assert DeltaLog(path).replay_annotated() == [
            (1, TableDelta(insert=({"a": 1, "b": "x"},), delete=()), None),
            (2, TableDelta(insert=(), delete=(3, 0)), "req-7"),
            (3, TableDelta(insert=({"a": 2.5, "b": None},), delete=(1,)), None),
        ]
        path.write_bytes(compacted)
        reopened = DeltaLog(path)
        assert [seq for seq, _d in reopened.replay()] == [2, 3]
        assert reopened.stats()["compacted_through"] == 1
        assert not reopened.cursor_valid(0)

    def test_journal_writes_and_replays_the_pinned_bytes(self, tmp_path):
        path = tmp_path / "monitors.jsonl"
        journal = MonitorJournal(path)
        register = {"id": "m1", "spec": {"metric": "nec", "k": [1, 2]}}
        journal.append("register", register)
        journal.append("alert", {"alert": {"value": 0.25}})
        journal.close()
        assert path.read_bytes() == JOURNAL_BYTES

        path.write_bytes(JOURNAL_BYTES)
        assert MonitorJournal(path).replay() == [
            {"seq": 1, "kind": "register", "data": register},
            {"seq": 2, "kind": "alert", "data": {"alert": {"value": 0.25}}},
        ]


@dataclass(frozen=True)
class Kind:
    """How to drive one typed log through the shared file rules."""

    name: str
    cls: type
    corrupt: str  # what the refusal message says
    fault_prefix: str
    body_field: str  # a body key to tamper with
    append: Callable[[Any, int], int]  # write record ``marker``
    marker: Callable[[Any], int]  # read it back from a replayed item
    unencodable: Callable[[Any], int]  # append a value JSON cannot hold


WAL = Kind(
    name="wal",
    cls=DeltaLog,
    corrupt="corrupt WAL record",
    fault_prefix="wal",
    body_field="insert",
    # numpy scalars collapse to Python ints, so markers read back equal
    append=lambda log, i: log.append(
        TableDelta(insert=({"a": np.int64(i), "b": 0},), delete=())
    ),
    marker=lambda item: item[1].insert[0]["a"],
    unencodable=lambda log: log.append(
        TableDelta(insert=({"a": object(), "b": 0},), delete=())
    ),
)
JOURNAL = Kind(
    name="journal",
    cls=MonitorJournal,
    corrupt="corrupt monitor journal record",
    fault_prefix="journal",
    body_field="data",
    append=lambda log, i: log.append("alert", {"i": i}),
    marker=lambda record: record["data"]["i"],
    unencodable=lambda log: log.append("alert", {"i": object()}),
)
BOTH = pytest.mark.parametrize("kind", [WAL, JOURNAL], ids=lambda k: k.name)


def markers(kind: Kind, log) -> list[int]:
    return [kind.marker(item) for item in log.replay()]


def written(kind: Kind, path, n: int) -> bytes:
    """Append records 0..n-1 through a fresh log; the file's bytes."""
    log = kind.cls(path)
    for i in range(n):
        assert kind.append(log, i) == i + 1
    log.close()
    return path.read_bytes()


@BOTH
class TestFileRules:
    def test_torn_tail_is_truncated_on_open(self, tmp_path, kind):
        path = tmp_path / "log.jsonl"
        good = written(kind, path, 2)
        path.write_bytes(good + b'{"seq": 3, "kind": "alert", "del')  # crash

        recovered = kind.cls(path)
        assert recovered.last_seq == 2
        assert path.read_bytes() == good  # the tail was cut, nothing else
        # a fresh append continues cleanly after the cut
        assert kind.append(recovered, 2) == 3
        recovered.close()
        assert markers(kind, kind.cls(path)) == [0, 1, 2]

    def test_unterminated_valid_json_tail_is_dropped(self, tmp_path, kind):
        """A complete-looking record without its newline was never
        acknowledged (the newline is part of the fsynced write); parsing
        it would let the next append concatenate onto the same line."""
        path = tmp_path / "log.jsonl"
        content = written(kind, path, 1)
        path.write_bytes(content + content[:-1])  # record 2 sans newline

        recovered = kind.cls(path)
        assert recovered.last_seq == 1
        assert kind.append(recovered, 1) == 2
        recovered.close()
        assert markers(kind, kind.cls(path)) == [0, 1]

    @pytest.mark.parametrize("line", [0, -1], ids=["mid_log", "final"])
    def test_corrupt_terminated_record_refuses_recovery(
        self, tmp_path, kind, line
    ):
        """A newline-terminated record can never be a torn write, so a
        damaged one — mid-log or final — is corruption of acknowledged
        data and must refuse recovery, not silently truncate."""
        path = tmp_path / "log.jsonl"
        lines = written(kind, path, 3).splitlines()
        lines[line] = lines[line][:-5] + b'bad"}'
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(StoreError, match=kind.corrupt):
            kind.cls(path)

    def test_bit_flip_in_body_detected_by_crc(self, tmp_path, kind):
        path = tmp_path / "log.jsonl"
        lines = written(kind, path, 2).splitlines()
        record = json.loads(lines[0])
        record[kind.body_field] = [7]  # silent mutation, stale crc
        lines[0] = json.dumps(record).encode()
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(StoreError, match=kind.corrupt):
            kind.cls(path)

    def test_non_json_values_refused_before_ack(self, tmp_path, kind):
        path = tmp_path / "log.jsonl"
        log = kind.cls(path)
        assert kind.append(log, 0) == 1
        size = path.stat().st_size
        with pytest.raises(StoreError, match="JSON"):
            kind.unencodable(log)
        # the bad record was never assigned a seq nor written, and a
        # caller error is not an I/O failure: the log stays writable
        assert log.last_seq == 1 and path.stat().st_size == size
        assert log.degraded is None
        assert kind.append(log, 1) == 2
        assert markers(kind, log) == [0, 1]
        log.close()

    @pytest.mark.parametrize("point", ["write", "torn", "fsync"])
    def test_failed_append_degrades_until_reopen(self, tmp_path, kind, point):
        path = tmp_path / "log.jsonl"
        log = kind.cls(path)
        assert kind.append(log, 0) == 1

        with faults.plan({f"{kind.fault_prefix}.append.{point}": {"once": True}}):
            with pytest.raises(DegradedError):
                kind.append(log, 1)
            # Degraded mode is sticky: the next append refuses too, even
            # though the fault plan would no longer fire.
            assert log.degraded is not None
            assert log.stats()["degraded"] is not None
            with pytest.raises(DegradedError, match="degraded"):
                kind.append(log, 2)

        log.reopen()
        assert log.degraded is None
        # write/torn faults leave no complete record, so seq 2 is reused;
        # an fsync fault fails *after* the complete line hit the file, so
        # reopen adopts that record (crash-after-write-before-ack) and
        # the next append takes seq 3. Either way the history is clean.
        adopted = point == "fsync"
        assert kind.append(log, 3) == (3 if adopted else 2)
        log.close()

        recovered = kind.cls(path)
        assert markers(kind, recovered) == ([0, 1, 3] if adopted else [0, 3])
        assert recovered.last_seq == (3 if adopted else 2)
