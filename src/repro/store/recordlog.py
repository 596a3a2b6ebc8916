"""Durable append-only record log: the file discipline every log shares.

The service's durable history is append-only logs — the write-ahead
log of table deltas (:class:`~repro.store.wal.DeltaLog`) and the
monitor journal (:class:`~repro.monitor.journal.MonitorJournal`).
Both are this one file format with a different record *body*, so
everything done to the file lives here once:

* One JSON object per line, keys sorted, with a monotone ``seq`` and a
  12-hex sha1 ``crc`` over the rest of the record.  ``append`` writes,
  flushes and fsyncs the record *and* its newline before returning, so
  an acknowledged record survives a crash.
* Recovery tolerates exactly one *torn tail* (an unterminated partial
  final line from a crash mid-write, truncated away on open) but
  refuses corruption anywhere else — a bad newline-terminated record,
  even in final position, is damage to acknowledged data, and replaying
  around it would silently diverge.
* An I/O failure mid-append puts the log in read-only *degraded mode*;
  checkpoint compaction rewrites the file behind a *floor marker*.

A typed layer subclasses :class:`RecordLog`, fixes :attr:`noun` (error
messages) and :attr:`fault_prefix` (fault injection point names
``<prefix>.append.{write,torn,fsync}`` and
``<prefix>.compact.{fsync,replace}``), and implements :meth:`_encode` /
:meth:`_decode` for its body.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Mapping

import repro.faults as _faults
from repro.store.artifacts import _fsync_dir
from repro.utils.exceptions import DegradedError, StoreError


def _digest(core: Mapping[str, Any]) -> str:
    payload = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]


def _dump(core: Mapping[str, Any]) -> bytes:
    """One on-disk line: ``core`` plus its digest, newline-terminated."""
    record = dict(core)
    record["crc"] = _digest(core)
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    ) + b"\n"


class RecordLog:
    """Append-only, fsync'd JSONL log of sequenced, digest-checked records.

    Parameters
    ----------
    path:
        Log file location (created on first append).
    fsync:
        Fsync after every append (the durability guarantee). Disable
        only in benchmarks that measure everything-but-the-disk.
    """

    #: what the log is called in error messages
    noun = "record log"
    #: first component of this log's fault injection point names
    fault_prefix = "log"

    def __init__(self, path: str | Path, fsync: bool = True):
        self.path = Path(path)
        self._fsync = bool(fsync)
        self._lock = threading.Lock()
        self._fh = None
        self._sealed = False
        self._degraded: str | None = None
        self._appended = 0
        self._floor = 0
        self._last_seq = 0
        self._first_seq = 0
        self._records = 0
        self.reopen()

    # -- record body (typed layers override) --------------------------------

    def _encode(self, value: Any) -> dict:
        """The JSON body of one record (every field but ``seq`` and ``crc``)."""
        raise NotImplementedError

    def _decode(self, core: dict) -> Any:
        """Inverse of :meth:`_encode` given the record minus its ``crc``.

        Raises ``ValueError`` / ``KeyError`` / ``TypeError`` for a body
        that is not a valid record, which the scan reports as corruption.
        """
        raise NotImplementedError

    def _line(self, seq: int, value: Any) -> bytes:
        """Serialize one record (digest included) to its on-disk line."""
        core = {"seq": seq, **self._encode(value)}
        try:
            return _dump(core)
        except (TypeError, ValueError) as exc:
            raise StoreError(
                f"{self.noun} record contains values JSON cannot represent "
                f"faithfully: {exc}"
            ) from exc

    # -- reading -----------------------------------------------------------

    def _scan(self) -> tuple[list[tuple[int, Any]], int, int, int]:
        """Parse the log; returns (records, valid bytes, total bytes, floor).

        Records are ``(seq, decoded body)`` pairs.  ``floor`` is the
        highest compacted-through sequence recorded by a floor marker
        line (0 for never-compacted logs): a fresh open of a fully
        compacted log must not report cursor 0 as valid just because the
        file happens to hold no records.
        """
        if not self.path.exists():
            return [], 0, 0, 0
        raw = self.path.read_bytes()
        records: list[tuple[int, Any]] = []
        offset = last_seq = floor = 0
        # Only newline-terminated lines are records. append() fsyncs the
        # record *and* its newline in one write before acknowledging, so
        # an unterminated final chunk — even one that happens to parse as
        # complete JSON — is an unacknowledged torn write: parsing it
        # would let the next append concatenate onto the same line and a
        # later recovery destroy both records.
        *terminated, tail = raw.split(b"\n")
        for line in terminated:
            if line.strip():
                try:
                    core = json.loads(line)
                    if core.pop("crc") != _digest(core):
                        raise ValueError("crc mismatch")
                    if "seq" not in core:
                        # compaction floor marker, written by truncate_through
                        floor = max(floor, int(core["floor"]))
                        last_seq = max(last_seq, floor)
                    else:
                        seq = int(core["seq"])
                        if seq <= last_seq:
                            raise ValueError("sequence does not increase")
                        records.append((seq, self._decode(core)))
                        last_seq = seq
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    # A terminated line can never be a torn write — the
                    # newline is the last byte of the single append write,
                    # so a bad-but-complete record is *corruption of
                    # acknowledged data* (even in final position) and must
                    # refuse recovery rather than silently drop the record.
                    raise StoreError(
                        f"corrupt {self.noun} record at byte {offset} of "
                        f"{self.path}; refusing to replay an unreliable history"
                    ) from exc
            offset += len(line) + 1  # + the newline
        # `offset` == bytes through the last terminated line; a non-empty
        # `tail` beyond it is the torn write the caller truncates.
        assert offset + len(tail) == len(raw)
        return records, offset, len(raw), floor

    def _replay(self, after: int) -> list[tuple[int, Any]]:
        """Decoded records with sequence number greater than ``after``."""
        with self._lock:
            records = self._scan()[0]
        return [(seq, value) for seq, value in records if seq > after]

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent acknowledged record."""
        return self._last_seq

    @property
    def first_live_seq(self) -> int:
        """Sequence number of the oldest record still in the file.

        Checkpoint compaction silently drops the replayable prefix, so a
        tailing client holding cursor ``c`` can only trust
        ``replay(after=c)`` to be gap-free when ``c >= first_live_seq - 1``.
        An empty (or fully compacted) log exposes ``last_seq + 1`` — the
        next sequence number that could ever be replayed — so the same
        inequality works without special-casing emptiness.
        """
        with self._lock:
            if self._records:
                return self._first_seq
            return self._last_seq + 1

    def cursor_valid(self, cursor: int) -> bool:
        """Whether ``replay(after=cursor)`` returns a gap-free tail.

        False means compaction already dropped records the cursor never
        saw; the client must resnapshot (re-read full state) instead of
        replaying, or it would silently miss deltas.
        """
        return int(cursor) >= self.first_live_seq - 1

    def ensure_floor(self, seq: int) -> None:
        """Raise the sequence floor to at least ``seq``.

        After checkpoint compaction the log file alone no longer knows
        how far numbering has advanced (the prefix is gone); the snapshot
        manifest does. Recovery calls this with the manifest's
        ``wal_seq`` so post-restore appends continue the sequence instead
        of reusing numbers the manifest already covers.
        """
        with self._lock:
            self._last_seq = max(self._last_seq, int(seq))

    # -- writing -----------------------------------------------------------

    def _append(self, value: Any) -> tuple[int, float]:
        """Durably append one record; returns (seq, write→fsync seconds).

        The record is on disk (flushed + fsynced) before this returns.
        An I/O failure anywhere in the write → flush → fsync sequence
        puts the log in *read-only degraded mode*: the failed record was
        never acknowledged, the handle may hold unflushed or torn bytes,
        and blindly appending after it would reuse its sequence number or
        concatenate onto its torn line.  Degraded appends raise
        :class:`DegradedError` until the file is re-verified — the owning
        tenant's next restore (after an evict or a restart) does that.
        """
        with self._lock:
            if self._sealed:
                raise StoreError(
                    f"{self.noun} {self.path} is sealed (the session was "
                    "evicted); re-fetch the tenant from the registry"
                )
            if self._degraded is not None:
                raise DegradedError(
                    f"{self.noun} {self.path} is read-only degraded after an "
                    f"I/O failure ({self._degraded}); evict the tenant or "
                    "restart the server to re-verify the log"
                )
            seq = self._last_seq + 1
            line = self._line(seq, value)
            point = self.fault_prefix + ".append"
            try:
                if self._fh is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    created = not self.path.exists()
                    self._fh = open(self.path, "ab")
                    if created:
                        # the record's durability includes the file's own
                        # directory entry — fsync the parent once at creation
                        _fsync_dir(self.path.parent)
                write_started = time.perf_counter()
                _faults.inject(
                    point + ".write",
                    lambda: OSError(
                        f"injected {self.noun} write failure: {self.path}"
                    ),
                )
                if _faults.fires(point + ".torn"):
                    # stage the damage a crash mid-write leaves behind:
                    # half a record, no newline, then the failure
                    self._fh.write(line[: max(1, len(line) // 2)])
                    self._fh.flush()
                    raise OSError(f"injected torn {self.noun} write: {self.path}")
                self._fh.write(line)
                self._fh.flush()
                if self._fsync:
                    _faults.inject(
                        point + ".fsync",
                        lambda: OSError(
                            f"injected {self.noun} fsync failure: {self.path}"
                        ),
                    )
                    os.fsync(self._fh.fileno())
            except OSError as exc:
                self._degraded = str(exc)
                self._close_handle()
                raise DegradedError(
                    f"{self.noun} append failed, entering read-only degraded "
                    f"mode: {exc}"
                ) from exc
            elapsed = time.perf_counter() - write_started
            if self._records == 0:
                self._first_seq = seq
            self._last_seq = seq
            self._records += 1
            self._appended += 1
        return seq, elapsed

    def truncate_through(self, seq: int) -> int:
        """Checkpoint compaction: drop records with sequence <= ``seq``.

        Called after a snapshot captures the state through ``seq`` — the
        dropped prefix is redundant with the snapshot. The tail is
        rewritten atomically (temp file + rename); sequence numbers keep
        counting from where they were. Returns how many records remain.

        The rewritten file starts with a *floor marker* line recording
        the compacted-through sequence, so a fresh open of the file —
        even a fully compacted (record-free) one — still knows cursor 0
        points into dropped history and reports it as a gap instead of
        silently replaying an empty tail.
        """
        with self._lock:
            records, _valid, _total, disk_floor = self._scan()
            keep = [(s, value) for s, value in records if s > seq]
            if len(keep) == len(records):
                return len(keep)
            floor = max(self._floor, disk_floor, int(seq))
            self._close_handle()
            tmp = self.path.with_name(self.path.name + ".compact")
            point = self.fault_prefix + ".compact"
            try:
                with open(tmp, "wb") as fh:
                    fh.write(_dump({"floor": floor}))
                    for s, value in keep:
                        fh.write(self._line(s, value))
                    fh.flush()
                    _faults.inject(
                        point + ".fsync",
                        lambda: OSError(f"injected compaction fsync failure: {tmp}"),
                    )
                    os.fsync(fh.fileno())
                _faults.inject(
                    point + ".replace",
                    lambda: OSError(f"injected compaction replace failure: {tmp}"),
                )
                os.replace(tmp, self.path)
            except OSError as exc:
                # the original log is untouched until os.replace lands, so a
                # failed compaction is loud but harmless: replay still works
                # from the uncompacted file; only the temp file may be torn.
                raise StoreError(
                    f"checkpoint compaction of {self.path} failed; the "
                    f"uncompacted log remains authoritative: {exc}"
                ) from exc
            self._records = len(keep)
            self._first_seq = keep[0][0] if keep else 0
            self._floor = floor
            self._last_seq = max(self._last_seq, floor)
            return len(keep)

    # -- degraded mode -----------------------------------------------------

    @property
    def degraded(self) -> str | None:
        """Why the log is read-only degraded, or ``None`` when healthy."""
        return self._degraded

    def reopen(self) -> None:
        """Re-verify the file on disk and accept appends again.

        Construction is a reopen of a fresh instance; on a degraded log
        it heals.  Rescans the on-disk log (refusing mid-log corruption),
        truncates any torn tail a crash or failed append left behind, and
        restores in-memory counters from what is actually on disk.  The
        sequence floor never goes backwards.  A record whose *write
        completed* but whose fsync failed is adopted: it is a complete
        terminated line, indistinguishable from (and as safe as) an
        acknowledged one — replaying it is the standard resolution of the
        crash-after-write-before-ack window.
        """
        with self._lock:
            self._close_handle()
            records, valid_bytes, total_bytes, floor = self._scan()
            if valid_bytes < total_bytes:
                # torn tail: the record was never acknowledged, so
                # truncating it is the correct recovery.
                with open(self.path, "ab") as fh:
                    fh.truncate(valid_bytes)
            self._records = len(records)
            self._first_seq = records[0][0] if records else 0
            self._floor = max(self._floor, floor)
            self._last_seq = max(
                self._last_seq, floor, records[-1][0] if records else 0
            )
            self._degraded = None

    # -- lifecycle ---------------------------------------------------------

    def _close_handle(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass  # a degraded handle may fail to flush; the scan decides
            self._fh = None

    def close(self) -> None:
        """Close the append handle (reads still work; appends reopen)."""
        with self._lock:
            self._close_handle()

    def seal(self) -> None:
        """Permanently refuse further appends through this instance.

        Eviction hands the log file to the *next* restore of the tenant;
        sealing (after waiting out any in-flight append — the lock is
        held for the full append) guarantees a stale session reference
        can never interleave duplicate sequence numbers into a file now
        owned by a newer session. Reads still work.
        """
        with self._lock:
            self._sealed = True
            self._close_handle()

    def __enter__(self) -> "RecordLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """Log counters: size on disk, record count, last sequence."""
        return {
            "path": str(self.path),
            "last_seq": self._last_seq,
            "first_live_seq": self.first_live_seq,
            "compacted_through": self._floor,
            "records": self._records,
            "appended": self._appended,
            "bytes": self.path.stat().st_size if self.path.exists() else 0,
            "fsync": self._fsync,
            "degraded": self._degraded,
        }


__all__ = ["RecordLog"]
