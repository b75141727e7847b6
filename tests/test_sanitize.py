"""The runtime lock sanitizer (repro.lint.sanitize)."""

import concurrent.futures as cf
import time

import pytest

from repro.lint import sanitize
from repro.lint.sanitize import (GuardViolation, LockOrderError,
                                 SanitizedLock)


@pytest.fixture
def armed():
    """Install the sanitizer for one test; restore the pristine classes
    afterwards unless the whole process runs armed (REPRO_SANITIZE=1 CI
    jobs must stay armed across tests)."""
    sanitize.reset()
    sanitize.install()
    yield sanitize
    if not sanitize.armed():
        sanitize.uninstall()
    sanitize.reset()


# -- arming -------------------------------------------------------------------

class TestArming:
    def test_env_gate(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize.armed()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.armed()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize.armed()

    def test_maybe_install_noop_unarmed(self, monkeypatch):
        if sanitize.installed():
            pytest.skip("process is running armed")
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitize.maybe_install() is False
        assert not sanitize.installed()

    def test_install_is_idempotent(self, armed):
        manifest = sanitize.install()
        assert sanitize.installed()
        assert "repro.serve.jobs.JobQueue" in manifest

    def test_unarmed_classes_untouched(self):
        if sanitize.installed():
            pytest.skip("process is running armed")
        from repro.serve.daemon import _HotSet
        hs = _HotSet(4)
        assert hs._d == {}                   # raw access: no proxy, no check
        assert not isinstance(hs._lock, SanitizedLock)


# -- guarded accesses ---------------------------------------------------------

class TestGuardChecks:
    def test_unguarded_read_raises(self, armed):
        from repro.serve.daemon import _HotSet
        hs = _HotSet(4)
        with pytest.raises(GuardViolation, match="_HotSet._d"):
            _ = hs._d
        with hs._lock:                       # held: same access is legal
            assert hs._d == {}

    def test_unguarded_write_raises(self, armed):
        from repro.serve.limiter import TokenBucket
        tb = TokenBucket(rate=1.0)
        with pytest.raises(GuardViolation, match="TokenBucket._buckets"):
            tb._buckets = {}

    def test_locked_api_still_works(self, armed):
        from repro.serve.daemon import _HotSet
        hs = _HotSet(2)
        hs.put("a", {"v": 1})
        hs.put("b", {"v": 2})
        hs.put("c", {"v": 3})                # evicts "a"
        assert hs.get("a") is None
        assert hs.get("c") == {"v": 3}
        assert len(hs) == 2

    def test_none_optouts_not_checked(self, armed):
        from repro.serve.jobs import Coalescer
        c = Coalescer()
        assert c.hits == 0                   # guarded-by: none -> no raise

    def test_condition_over_proxy(self, armed):
        from repro.serve.jobs import Job, JobQueue
        q = JobQueue()
        assert isinstance(q._lock, SanitizedLock)
        with cf.ThreadPoolExecutor(1) as pool:
            popped = pool.submit(q.pop)
            deadline = time.monotonic() + 5.0
            while not q._ready._waiters:     # wait path over the proxy
                assert time.monotonic() < deadline, "pop never waited"
                time.sleep(0.001)
            q.push(Job(kind="run", key="a" * 64, payload={}, client="c"))
            job = popped.result(timeout=5.0)
        assert job is not None and job.key == "a" * 64
        assert q.depth == 0

    def test_guard_checks_counted(self, armed):
        from repro.serve.daemon import _HotSet
        hs = _HotSet(4)
        before = sanitize.counters()["sanitize.guard_checks"]
        hs.put("k", {"v": 1})
        hs.get("k")
        assert sanitize.counters()["sanitize.guard_checks"] > before


# -- lock ordering and contention ---------------------------------------------

class TestLockOrder:
    def test_inversion_raises(self, armed):
        from repro.serve.jobs import JobQueue
        from repro.serve.limiter import TokenBucket
        tb = TokenBucket(rate=1.0)           # TokenBucket._lock: rank 3
        q = JobQueue()                       # JobQueue._lock:    rank 1
        with tb._lock:
            with pytest.raises(LockOrderError, match="inversion"):
                q._lock.acquire()

    def test_declared_order_allowed(self, armed):
        from repro.serve.jobs import JobQueue
        from repro.serve.limiter import TokenBucket
        tb = TokenBucket(rate=1.0)
        q = JobQueue()
        with q._lock:                        # rank 1 then rank 3: legal
            with tb._lock:
                pass

    def test_contention_counted(self, armed):
        from repro.serve.daemon import _HotSet
        hs = _HotSet(4)
        before = sanitize.counters()["sanitize.contended"]
        with hs._lock:
            assert hs._lock.acquire(blocking=False) is False
        assert sanitize.counters()["sanitize.contended"] == before + 1


# -- daemon integration -------------------------------------------------------

class TestDaemonIntegration:
    def test_daemon_lifecycle_armed(self, armed):
        from repro.serve.daemon import ServeConfig, ServeDaemon
        daemon = ServeDaemon(ServeConfig(shards=1, hot_set=4),
                             executor_factory=cf.ThreadPoolExecutor)
        daemon.start()
        try:
            assert daemon.healthz()["ok"]
            stats = daemon.stats()
            assert stats["queue_depth"] == 0
        finally:
            daemon.stop()
        assert not daemon.healthz()["ok"]
        # stop() folded the sanitize.* counters into the registry
        names = set(daemon.registry.counters)
        assert any(n.startswith("sanitize.") for n in names)
