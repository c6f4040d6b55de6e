"""Crash-point matrix for the untrusted storage layer.

The recovery protocol leans on one invariant: **after any crash, the
main file holds exactly one previously saved snapshot** — the old blob
or the new one, never a torn mixture. This suite drives every injected
fault kind the ``storage.save`` / ``storage.load`` hook points support,
at every crash site around the write → fsync → rename → fsync sequence,
and checks the invariant plus the orphan-``.tmp`` cleanup that a
restart performs.
"""

import pytest

from repro.audit.persistence import InMemoryStorage, LogStorage
from repro.errors import StorageError
from repro.faults import hooks as _faults
from repro.faults.plan import FaultEvent, FaultPlan, InjectedCrash


@pytest.fixture
def store(tmp_path):
    return LogStorage(tmp_path / "audit.log")


def crash_plan(site, kind, at=1, **params):
    return FaultPlan([FaultEvent(site, kind, at=at, params=params)])


OLD = b"sealed-snapshot-v1"
NEW = b"sealed-snapshot-v2-longer-than-v1"


class TestSaveCrashMatrix:
    """One test per crash site in the atomic-replace sequence."""

    def test_crash_before_replace_keeps_old_blob(self, store):
        store.save(OLD)
        with _faults.inject(crash_plan("storage.save", "crash_before_replace")):
            with pytest.raises(InjectedCrash):
                store.save(NEW)
        # The tmp file was fully written but never renamed: the main
        # file still holds the *old* snapshot, untouched.
        assert store.load() == OLD
        assert store._tmp_path.exists()  # the orphan a restart cleans

    def test_crash_after_replace_keeps_new_blob(self, store):
        store.save(OLD)
        with _faults.inject(crash_plan("storage.save", "crash_after_replace")):
            with pytest.raises(InjectedCrash):
                store.save(NEW)
        # The rename completed and was flushed: the new snapshot is
        # durable even though save() never returned.
        assert store.load() == NEW
        assert not store._tmp_path.exists()

    def test_torn_write_never_reaches_the_main_file(self, store):
        store.save(OLD)
        with _faults.inject(crash_plan("storage.save", "torn_write")):
            with pytest.raises(InjectedCrash):
                store.save(NEW)
        # The torn prefix lives only in the tmp file; the main file is
        # byte-identical to the last completed save.
        assert store.load() == OLD
        torn = store._tmp_path.read_bytes()
        assert torn != NEW and len(torn) < len(NEW)

    def test_corrupt_then_crash_is_detectable_not_silent(self, store):
        store.save(OLD)
        with _faults.inject(crash_plan("storage.save", "corrupt_then_crash")):
            with pytest.raises(InjectedCrash):
                store.save(NEW)
        # The corrupted blob *did* replace the old one — storage is
        # adversarial and may hold anything; what matters is that it is
        # a complete replace (not torn) for the hash chain to reject.
        on_disk = store.load()
        assert on_disk != NEW and on_disk != OLD
        assert len(on_disk) == len(NEW)

    def test_io_error_surfaces_as_storage_error(self, store):
        store.save(OLD)
        with _faults.inject(crash_plan("storage.save", "io_error")):
            with pytest.raises(StorageError, match="injected I/O error"):
                store.save(NEW)
        assert store.load() == OLD

    def test_real_os_error_cleans_tmp_and_raises(self, tmp_path):
        target = tmp_path / "missing-dir" / "audit.log"
        store = LogStorage.__new__(LogStorage)
        store.path = target
        store.flush_count = 0
        store.bytes_written = 0
        store.total_latency_ms = 0.0
        store.orphans_cleaned = []
        with pytest.raises(StorageError, match="cannot write"):
            store.save(NEW)
        assert not store._tmp_path.exists()

    @pytest.mark.parametrize(
        "kind", ["crash_before_replace", "crash_after_replace", "torn_write"]
    )
    def test_crash_then_resave_converges(self, store, kind):
        """Whatever the crash site, a clean retry wins."""
        store.save(OLD)
        with _faults.inject(crash_plan("storage.save", kind)):
            with pytest.raises(InjectedCrash):
                store.save(NEW)
        store.save(NEW)
        assert store.load() == NEW
        assert not store._tmp_path.exists()


class TestOrphanCleanup:
    def test_restart_removes_orphan_tmp(self, tmp_path):
        path = tmp_path / "audit.log"
        first = LogStorage(path)
        first.save(OLD)
        with _faults.inject(crash_plan("storage.save", "crash_before_replace")):
            with pytest.raises(InjectedCrash):
                first.save(NEW)
        assert first._tmp_path.exists()
        # The restart (a fresh LogStorage over the same path) removes
        # the orphan and reports it as crash evidence.
        second = LogStorage(path)
        assert second.orphans_cleaned == [second._tmp_path]
        assert not second._tmp_path.exists()
        assert second.load() == OLD

    def test_clean_restart_reports_no_orphans(self, tmp_path):
        path = tmp_path / "audit.log"
        LogStorage(path).save(OLD)
        assert LogStorage(path).orphans_cleaned == []

    def test_orphan_cleanup_ignores_sidecars(self, tmp_path):
        path = tmp_path / "audit.log"
        first = LogStorage(path)
        first.save(OLD)
        first.save_intent(b"intent")
        first.save_intent(b"membership", "membership")
        second = LogStorage(path)
        assert second.orphans_cleaned == []
        assert second.load_intent() == b"intent"
        assert second.load_intent("membership") == b"membership"


class TestLoadFaults:
    def test_stale_read_serves_an_earlier_snapshot(self, store):
        with _faults.inject(crash_plan("storage.load", "stale_read", back=1)) as inj:
            store.save(OLD)
            store.save(NEW)
            assert store.load() == OLD  # rollback, served deterministically
            assert inj.fired and inj.fired[0].effect == "stale"
        assert store.load() == NEW  # plan gone, truth restored

    def test_stale_read_with_no_history_is_a_noop(self, store):
        store.save(OLD)  # saved before the plan: no recorded history
        with _faults.inject(crash_plan("storage.load", "stale_read")) as inj:
            assert store.load() == OLD
            assert inj.fired and inj.fired[0].effect == "noop"

    def test_corrupt_read_flips_bytes_deterministically(self, store):
        with _faults.inject(crash_plan("storage.load", "corrupt_read", at=1)):
            store.save(NEW)
            first = store.load()
        with _faults.inject(crash_plan("storage.load", "corrupt_read", at=1)):
            second = store.load()
        assert first != NEW
        assert first == second  # same seed, same corruption

    def test_io_error_on_load(self, store):
        store.save(OLD)
        with _faults.inject(crash_plan("storage.load", "io_error")):
            with pytest.raises(StorageError, match="injected I/O error"):
                store.load()

    def test_missing_file_is_a_typed_error(self, store):
        with pytest.raises(StorageError, match="no snapshot"):
            store.load()


class TestSidecars:
    """The write-ahead sidecars: intent, rotation, membership."""

    @pytest.mark.parametrize("name", ["intent", "rotation", "membership"])
    def test_sidecar_roundtrip_and_clear(self, store, name):
        assert store.load_intent(name) is None
        store.save_intent(b"wal-entry", name)
        assert store.load_intent(name) == b"wal-entry"
        store.save_intent(b"wal-entry-2", name)  # overwritten in place
        assert store.load_intent(name) == b"wal-entry-2"
        store.clear_intent(name)
        assert store.load_intent(name) is None
        store.clear_intent(name)  # idempotent

    def test_sidecars_are_independent_files(self, store):
        store.save_intent(b"a")
        store.save_intent(b"b", "rotation")
        store.save_intent(b"c", "membership")
        store.clear_intent("rotation")
        assert store.load_intent() == b"a"
        assert store.load_intent("rotation") is None
        assert store.load_intent("membership") == b"c"


class TestInMemoryParity:
    """LibSEAL-mem must honour the same hook points and interface."""

    def test_load_faults_apply(self):
        store = InMemoryStorage()
        store.save(OLD)
        with _faults.inject(crash_plan("storage.load", "corrupt_read")):
            assert store.load() != OLD
        assert store.load() == OLD

    def test_membership_sidecar(self):
        store = InMemoryStorage()
        assert store.load_intent("membership") is None
        store.save_intent(b"m", "membership")
        assert store.load_intent("membership") == b"m"
        store.clear_intent("membership")
        assert store.load_intent("membership") is None
