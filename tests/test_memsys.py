"""Unit tests for the GPU memory hierarchy glue (repro.sim.memsys)."""

import dataclasses
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.config import LINE_SIZE, ci_config
from repro.gpu.coalescer import MemAccess
from repro.gpu.sm import _MemReplay
from repro.memory.address import AddressMap
from repro.memory.hmc import HMCStack
from repro.network.fabric import GPULinks
from repro.sim.engine import Engine, LinkCounters
from repro.sim.memsys import GPUMemSystem


class FakeSM:
    def __init__(self, sm_id=0):
        self.sm_id = sm_id


def mk_memsys(cfg=None):
    e = Engine()
    cfg = cfg or ci_config()
    counters = LinkCounters()
    amap = AddressMap(cfg)
    links = GPULinks(e, cfg, counters)
    hmcs = [HMCStack(e, cfg, i, amap, counters)
            for i in range(cfg.num_hmcs)]
    return e, GPUMemSystem(e, cfg, amap=amap, gpu_links=links, hmcs=hmcs)


def acc(line, words=32):
    return MemAccess(line, words, False)


class StubWarp:
    """The warp side of a load: the replay's completion resolves its
    destination register, which calls ``on_done``."""

    def __init__(self, engine, on_done):
        self.sm = SimpleNamespace(waker=None, engine=engine)
        self.inflight_loads = 1
        self.on_done = on_done

    def mark_inflight(self, reg):
        pass

    def resolve_reg(self, reg, now):
        self.on_done()


def load(mem, sm, line, on_done):
    """One coalesced line load of ``line`` from ``sm`` through a replay
    record, committed once sent; returns False on a structural reject."""
    replay = _MemReplay(StubWarp(mem.engine, on_done), 0, (acc(line),))
    ok = mem.load(sm, replay)
    if ok:
        replay.commit()
    return ok


class TestLoadPath:
    def test_cold_load_goes_to_dram_and_fills(self):
        e, mem = mk_memsys()
        done = []
        assert load(mem, FakeSM(), 100, lambda: done.append(e.now))
        e.drain()
        assert len(done) == 1
        assert done[0] > 50                    # full DRAM round trip
        assert mem.l1[0].contains(100)
        part = mem.amap.hmc_of(100 * LINE_SIZE)
        assert mem.l2[part].contains(100)

    def test_l1_hit_is_fast(self):
        e, mem = mk_memsys()
        load(mem, FakeSM(), 5, lambda: None)
        e.drain()
        t0 = e.now
        done = []
        load(mem, FakeSM(), 5, lambda: done.append(e.now - t0))
        e.drain()
        assert done == [mem.l1_latency]

    def test_l2_hit_skips_dram(self):
        e, mem = mk_memsys()
        # SM 0 fetches; SM 1 then hits in the shared L2.
        load(mem, FakeSM(0), 9, lambda: None)
        e.drain()
        reads_before = sum(h.stats.reads for h in mem.hmcs)
        done = []
        load(mem, FakeSM(1), 9, lambda: done.append(1))
        e.drain()
        assert done
        assert sum(h.stats.reads for h in mem.hmcs) == reads_before

    def test_l1_mshr_merge_single_dram_access(self):
        e, mem = mk_memsys()
        done = []
        for _ in range(4):
            load(mem, FakeSM(), 7, lambda: done.append(1))
        e.drain()
        assert len(done) == 4
        assert sum(h.stats.reads for h in mem.hmcs) == 1

    def test_l1_mshr_full_rejects(self):
        e, mem = mk_memsys()
        cap = mem.l1_mshr[0].num_entries
        for i in range(cap):
            assert load(mem, FakeSM(), 1000 + i, lambda: None)
        assert not load(mem, FakeSM(), 5000, lambda: None)

    def test_l2_mshr_full_parks_and_drains(self):
        e, mem = mk_memsys()
        # Flood one slice beyond its MSHR capacity from several SMs.
        part = mem.amap.hmc_of(0)
        lines = [l for l in range(4000)
                 if mem.amap.hmc_of(l * LINE_SIZE) == part]
        done = []
        n = mem.l2_mshr[part].num_entries + 20
        for i, l in enumerate(lines[:n]):
            ok = load(mem, FakeSM(i % len(mem.l1)), l,
                      lambda: done.append(1))
            assert ok   # L1 MSHRs spread across SMs; L2 parks overflow
        e.drain()
        assert len(done) == n
        assert all(len(wq) == 0 for wq in mem._l2_waiters)

    def test_l2_miss_queue_admits_in_arrival_order(self):
        # One L2 MSHR entry: the first miss takes it, the next two park,
        # and each fill admits the oldest parked request.
        cfg = ci_config()
        l2 = dataclasses.replace(cfg.gpu.l2, mshr_entries=1)
        e, mem = mk_memsys(dataclasses.replace(
            cfg, gpu=dataclasses.replace(cfg.gpu, l2=l2)))
        part = mem.amap.hmc_of(0)
        lines = [l for l in range(4000)
                 if mem.amap.hmc_of(l * LINE_SIZE) == part][:3]
        done = []
        for sm_id, line in enumerate(lines):
            assert load(mem, FakeSM(sm_id), line,
                        lambda line=line: done.append(line))
        while len(mem._l2_waiters[part]) < 2:
            e.now = e.next_event_time()
            e.process_due()
        assert list(mem._l2_waiters[part]) == [(1, lines[1]),
                                               (2, lines[2])]
        e.drain()
        assert done == lines
        assert mem.l2_stats.mshr_rejects == 2
        assert not mem._l2_waiters[part]


class TestRejectProbe:
    """``l1_would_reject`` is the test oracle's view of :meth:`load`'s
    admission path (``reference_stepper.struct_park_cost`` prices a
    parked SM's retries with it), so the two must agree."""

    LINES = st.integers(0, 511)     # twice the ci L1's 256 lines

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_probe_agrees_with_load(self, data):
        e, mem = mk_memsys()
        l1, mshr = mem.l1[0], mem.l1_mshr[0]
        for line in data.draw(st.lists(self.LINES, max_size=300)):
            l1.insert(line)
        full = mshr.num_entries
        n = data.draw(st.sampled_from([full, full - 1])
                      | st.integers(0, full))
        pending = data.draw(st.lists(self.LINES, min_size=n, max_size=n,
                                     unique=True))
        for line in pending:
            mshr.allocate(line, None)
        line = data.draw(st.sampled_from(pending) | self.LINES
                         if pending else self.LINES)
        before = data.draw(st.lists(self.LINES, max_size=3))
        after = data.draw(st.lists(self.LINES, max_size=3))

        stats = dataclasses.replace(mem.l1_stats)
        lru = [list(s) for s in l1._sets]
        would_reject = mem.l1_would_reject(0, line)
        assert mem.l1_stats == stats          # the probe counts nothing
        assert [list(s) for s in l1._sets] == lru   # nor ages a line

        # A replay mid-way whose next unsent line is ``line``.
        replay = _MemReplay(StubWarp(e, lambda: None), 0,
                            tuple(acc(l) for l in before + [line] + after))
        replay.sent = len(before)
        ok = mem.load(FakeSM(0), replay)
        rejected_at_line = not ok and replay.sent == len(before)
        assert rejected_at_line == would_reject


class TestStorePath:
    def test_write_through_reaches_dram(self):
        e, mem = mk_memsys()
        mem.store(FakeSM(), acc(42, words=8))
        e.drain()
        assert sum(h.stats.writes for h in mem.hmcs) == 1

    def test_store_does_not_allocate(self):
        e, mem = mk_memsys()
        mem.store(FakeSM(), acc(42))
        e.drain()
        assert not mem.l1[0].contains(42)


class TestNDPHooks:
    def test_rdf_probe_checks_l1_then_l2(self):
        e, mem = mk_memsys()
        assert not mem.rdf_probe(0, 77)
        part = mem.amap.hmc_of(77 * LINE_SIZE)
        mem.l2[part].insert(77)
        assert mem.rdf_probe(0, 77)
        mem.l1[0].insert(78)
        assert mem.rdf_probe(0, 78)

    def test_rdf_probe_does_not_fill(self):
        e, mem = mk_memsys()
        mem.rdf_probe(0, 99)
        assert not mem.l1[0].contains(99)

    def test_invalidate_everywhere(self):
        e, mem = mk_memsys()
        part = mem.amap.hmc_of(7 * LINE_SIZE)
        mem.l2[part].insert(7)
        for l1 in mem.l1:
            l1.insert(7)
        mem.invalidate(7)
        assert not mem.l2[part].contains(7)
        assert all(not l1.contains(7) for l1 in mem.l1)
