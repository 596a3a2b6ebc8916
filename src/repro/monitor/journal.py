"""Durable append-only journal for monitor registrations and alerts.

The monitor subsystem's external contract is its *history*: which
monitors were registered, against which baselines, and which alerts
fired at which WAL sequence numbers. Following the black-box
history-checking idea (arXiv 2301.07313 — validate a client-visible
history, not the implementation), that history is written to an
append-only journal — a :class:`~repro.store.recordlog.RecordLog`, the
same file as the write-ahead :class:`~repro.store.wal.DeltaLog` with a
different record body: every record carries a monotone sequence number
and a content digest, appends are flushed + fsync'd before
acknowledgement, recovery truncates exactly one torn tail and refuses
any other corruption.

A failed append (write or fsync) leaves the journal read-only degraded:
that append and every later one raise
:class:`~repro.utils.exceptions.DegradedError` (HTTP 503) until the
tenant is evicted (``POST /v1/registry/<tenant>/evict``) or the server
restarts — the next request then restores the tenant and re-opens the
journal, which re-verifies the file and truncates any torn tail.  Fault
injection points: ``journal.append.{write,torn,fsync}``.

Record kinds (the ``kind`` field):

``register``
    A monitor was created — carries the full spec and its baseline
    summary, so recovery can resume detection without recomputing the
    reference point.
``remove``
    A monitor was deleted.
``alert``
    A drift detector fired — carries the typed alert payload plus the
    detector state *after* the alert, so CUSUM accumulators resume
    from their last externally visible value.

Replaying the journal therefore reconstructs the full monitor set (and
its alert history) after a crash or an eviction/restore cycle.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.store.recordlog import RecordLog

KINDS = ("register", "remove", "alert")


class MonitorJournal(RecordLog):
    """Append-only, fsync'd JSONL journal of monitor lifecycle records."""

    noun = "monitor journal"
    fault_prefix = "journal"

    def _encode(self, value: tuple[str, dict]) -> dict:
        kind, data = value
        return {"kind": kind, "data": data}

    def _decode(self, core: dict) -> tuple[str, Any]:
        if core["kind"] not in KINDS:
            raise ValueError(f"unknown journal record kind {core['kind']!r}")
        return core["kind"], core["data"]

    def replay(self, after: int = 0) -> list[dict]:
        """Records (``seq``, ``kind``, ``data``) with sequence number
        greater than ``after``, in order."""
        return [
            {"seq": seq, "kind": kind, "data": data}
            for seq, (kind, data) in self._replay(after)
        ]

    def append(self, kind: str, data: Mapping[str, Any]) -> int:
        """Durably append one record; returns its sequence number."""
        if kind not in KINDS:
            raise ValueError(f"unknown journal record kind {kind!r}")
        return self._append((kind, dict(data)))[0]


__all__ = ["KINDS", "MonitorJournal"]
