"""Injected storage failures: every crash point recovers or refuses loudly.

Satellite contract for the fault-injection PR: under any injected
``OSError`` / torn write / fsync failure in ``DeltaLog.append``,
checkpoint compaction, or ``ArtifactStore`` writes, the store either
replays cleanly (acknowledged records only, sequence numbers intact) or
refuses with a typed error — it never loads corrupt state and never
silently drops acknowledged data.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faults as faults
from repro.service.updates import TableDelta
from repro.store import ArtifactStore, DeltaLog
from repro.utils.exceptions import (
    CorruptArtifactError,
    DegradedError,
    StoreError,
)


def delta(insert=(), delete=()):
    return TableDelta(insert=tuple(insert), delete=tuple(delete))


ROW = {"a": 1, "b": 0}
APPEND_POINTS = ("wal.append.write", "wal.append.torn", "wal.append.fsync")


class TestWalAppendFaults:
    def test_torn_write_leaves_no_partial_record_after_reopen(self, tmp_path):
        path = tmp_path / "t.jsonl"
        log = DeltaLog(path)
        log.append(delta(insert=[ROW]))
        with faults.plan({"wal.append.torn": {"once": True}}):
            with pytest.raises(DegradedError):
                log.append(delta(insert=[{"a": 2, "b": 3}]))
        # The torn half-record is on disk right now; reopen truncates it.
        log.reopen()
        log.close()
        fresh = DeltaLog(path)
        records = fresh.replay()
        assert len(records) == 1 and records[0][1].insert == (ROW,)

    def test_degraded_log_still_replays(self, tmp_path):
        # Read paths must survive a write-degraded log: that is the
        # "read-only degraded mode" half of the contract.
        log = DeltaLog(tmp_path / "t.jsonl")
        log.append(delta(insert=[ROW]))
        with faults.plan({"wal.append.fsync": {"once": True}}):
            with pytest.raises(DegradedError):
                log.append(delta(delete=[0]))
        # The acked record replays; the fsync-failed one may too (its
        # complete line is on disk) — what matters is nothing acked is
        # lost and reads keep working while appends refuse.
        replayed = [seq for seq, _d in log.replay()]
        assert replayed[0] == 1 and replayed == list(range(1, len(replayed) + 1))
        assert log.stats()["degraded"] is not None

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_appends=st.integers(1, 25),
        probability=st.floats(0.1, 0.6),
        point=st.sampled_from(APPEND_POINTS),
    )
    def test_acknowledged_appends_always_replay(
        self, tmp_path_factory, seed, n_appends, probability, point
    ):
        """Any seeded fault schedule: every acked append replays cleanly."""
        path = tmp_path_factory.mktemp("wal") / "t.jsonl"
        log = DeltaLog(path)
        acked: list[int] = []  # payload markers of acknowledged appends
        with faults.plan({point: {"probability": probability}}, seed=seed):
            for i in range(n_appends):
                attempt = delta(insert=[{"a": i, "b": seed % 7}])
                try:
                    log.append(attempt)
                    acked.append(i)
                except DegradedError:
                    log.reopen()  # heal; retry policy is the caller's
        log.close()

        recovered = DeltaLog(path)
        replayed = recovered.replay()
        markers = [d.insert[0]["a"] for _seq, d in replayed]
        # No acked record is ever lost...
        assert set(acked) <= set(markers)
        # ...the history is in submission order with no duplicates
        # (fsync-failed appends may legitimately replay: their complete
        # line reached the file before the failure)...
        assert markers == sorted(set(markers))
        # ...and sequence numbers are contiguous from 1.
        assert [seq for seq, _d in replayed] == list(range(1, len(markers) + 1))
        assert recovered.last_seq == len(markers)


class TestCompactionFaults:
    @pytest.mark.parametrize(
        "point", ["wal.compact.fsync", "wal.compact.replace"]
    )
    def test_failed_compaction_is_loud_but_harmless(self, tmp_path, point):
        path = tmp_path / "t.jsonl"
        log = DeltaLog(path)
        for i in range(4):
            log.append(delta(insert=[{"a": i, "b": 0}]))

        with faults.plan({point: {"once": True}}):
            with pytest.raises(StoreError, match="remains authoritative"):
                log.truncate_through(2)
        # The uncompacted log is untouched: every record still replays.
        assert [seq for seq, _d in log.replay()] == [1, 2, 3, 4]
        # And appends still work — compaction failure is not degradation.
        assert log.append(delta(delete=[0])) == 5

        # Without the fault the same compaction succeeds.
        assert log.truncate_through(2) == 3
        assert [seq for seq, _d in log.replay()] == [3, 4, 5]
        log.close()


class TestArtifactStoreFaults:
    @pytest.mark.parametrize(
        "point",
        ["store.atomic_write", "store.atomic_write.torn", "store.atomic_write.fsync"],
    )
    def test_failed_put_never_exposes_an_object(self, tmp_path, point):
        store = ArtifactStore(tmp_path)
        payload = b"x" * 256
        with faults.plan({point: {"once": True}}):
            with pytest.raises(StoreError, match="cannot store object"):
                store.put_bytes(payload)
        # The object address must be absent, not half-written: a torn
        # temp file is fine, a torn *object* would poison every reader.
        import hashlib

        digest = hashlib.sha256(payload).hexdigest()
        assert not store.has(digest)
        with pytest.raises(StoreError, match="no object"):
            store.get_bytes(digest)
        # The store heals with no intervention: the retry lands.
        assert store.put_bytes(payload) == digest
        assert store.get_bytes(digest) == payload

    def test_corrupt_object_refused_on_read(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put_bytes(b"precious state")
        path = store._object_path(digest)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError, match="refusing to load"):
            store.get_bytes(digest)

    def test_existing_object_survives_failed_rewrite(self, tmp_path):
        # put_bytes is idempotent and skips existing objects, so inject
        # into a manifest write instead: the previous manifest content
        # must survive a failed atomic_write of its successor.
        store = ArtifactStore(tmp_path)
        store.write_manifest("acme", {"wal_seq": 1})
        with faults.plan({"store.atomic_write.torn": {"once": True}}):
            with pytest.raises(StoreError, match="cannot write manifest"):
                store.write_manifest("acme", {"wal_seq": 2})
        # The failed successor never became visible: the latest manifest
        # is still the old, complete one.
        assert store.manifest("acme")["wal_seq"] == 1
        assert store.snapshots("acme") == ["00000001"]
        store.write_manifest("acme", {"wal_seq": 2})
        assert store.manifest("acme")["wal_seq"] == 2
