"""Tests for the allocation-rate machinery: the DRAMRequest free list
and its reset() contract, and hop-walk recycling in the memory network
(docs/performance.md).  MSHR-full structural parking is checked by the
differential test in ``tests/test_baseline_recovery.py``; event ordering
by ``tests/test_sim_engine.py`` and ``tests/test_property_based.py``."""

import pytest

from repro.config import SystemConfig, ci_config
from repro.faults import get_scenario
from repro.memory.vault import DRAMRequest, DRAMRequestPool
from repro.network.fabric import MemoryNetwork
from repro.sim.engine import Engine, LinkCounters
from repro.sim.runner import build_system


class TestDRAMRequestPool:
    def test_reset_completeness(self):
        # A recycled record must be field-for-field equal to a freshly
        # constructed one -- the recycle invariant.  Dataclass equality
        # compares every field, so a field added without a reset() line
        # fails here.
        pool = DRAMRequestPool()
        req = pool.acquire(0x1234, True, lambda r: None, bank=3, row=7,
                           extra_latency=11, meta={"k": 1},
                           on_lost=lambda r: None)
        pool.release(req)
        assert req == DRAMRequest(0, False, None)

    def test_acquire_reuses_released_records(self):
        pool = DRAMRequestPool()
        req = pool.acquire(1, False, None)
        pool.release(req)
        again = pool.acquire(2, True, None, bank=5)
        assert again is req
        assert (again.line_addr, again.is_write, again.bank) == (2, True, 5)
        assert pool.metrics_snapshot() == {
            "created": 1, "reused": 1, "released": 1, "free": 0}

    def test_double_free_raises(self):
        pool = DRAMRequestPool()
        req = pool.acquire(1, False, None)
        pool.release(req)
        with pytest.raises(ValueError, match="double-free"):
            pool.release(req)

    def test_foreign_record_rejected(self):
        # Directly-constructed requests (tests, ad-hoc callers) are not
        # pool-owned and must never enter the free list.
        pool = DRAMRequestPool()
        with pytest.raises(ValueError):
            pool.release(DRAMRequest(1, False, None))

    def test_fault_replay_never_double_frees(self):
        # vault-read-loss exercises every release path: normal
        # completion, loss with an on_lost reissue, and loss with no
        # listener (released at service time).  A double-free would
        # raise inside the run; afterwards conservation must hold:
        # every acquired record was released exactly once.
        plan = get_scenario("vault-read-loss", rate=0.05, seed=1)
        system = build_system("VADD", "Baseline", base=ci_config(),
                              scale="ci", faults=plan)
        system.run(max_cycles=2_000_000)
        pools = [stack.pool for stack in system.hmcs]
        assert any(p.created + p.reused > 0 for p in pools)
        for p in pools:
            assert p.created + p.reused == p.released
            assert p.free == p.created


class TestHopWalkRecycling:
    def test_walk_recycled_and_reset_after_delivery(self):
        e = Engine()
        cfg = SystemConfig()
        net = MemoryNetwork(e, cfg, LinkCounters())
        delivered = []
        net.send(0, 3, 128, lambda: delivered.append(e.now))
        e.drain()
        assert len(delivered) == 1
        assert len(net._walks) == 1
        walk = net._walks[0]
        assert (walk.path, walk.hop, walk.size, walk.deliver) == \
            (None, 0, 0, None)

    def test_walks_reused_across_packets(self):
        e = Engine()
        cfg = SystemConfig()
        net = MemoryNetwork(e, cfg, LinkCounters())
        done = []
        net.send(0, 3, 128, lambda: done.append("a"))
        e.drain()
        first = net._walks[0]
        net.send(1, 2, 64, lambda: done.append("b"))
        assert not net._walks       # the recycled record is in flight
        e.drain()
        assert done == ["a", "b"]
        assert net._walks[0] is first
