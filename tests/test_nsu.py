"""Unit tests for the NSU model (repro.core.nsu) driven directly through
a stub controller."""

import pytest

from repro.config import ci_config
from repro.core.nsu import NSU
from repro.gpu.coalescer import MemAccess
from repro.isa import BasicBlock, Kernel, alu, analyze_kernel, ld, st
from repro.sim.engine import Engine


def vadd_block():
    k = Kernel("vadd", [BasicBlock([
        ld(4, 0, "A"), ld(5, 1, "B"), alu(6, 4, 5),
        alu(10, 2), st(6, 10, "C"),
    ])])
    return analyze_kernel(k).blocks[0]


def loadonly_block():
    k = Kernel("k", [BasicBlock([ld(4, 0, "A"), ld(5, 1, "B"),
                                 alu(6, 4, 5)])],
               live_out=frozenset({6}))
    return analyze_kernel(k).blocks[0]


class StubController:
    """Records credit releases, writes, and ACKs."""

    def __init__(self):
        self.released = []
        self.writes = []
        self.acks = []
        self.code_layout = {0: (0, 2)}

    def release_credits(self, hmc, inst=None, **kw):
        self.released.append((hmc, kw))
        return True

    def ndp_write(self, nsu, warp, acc):
        self.writes.append(acc)
        # Immediate write completion for unit testing.
        nsu.engine.after(5, lambda: nsu.write_done(warp))

    def send_ack(self, nsu, inst):
        self.acks.append(inst)


class FakeInstance:
    def __init__(self, block, uid=("u", 0, 0)):
        self.block = block
        self.uid = uid
        self.active_threads = 32


def mk_nsu():
    e = Engine()
    ctrl = StubController()
    nsu = NSU(e, ci_config("naive"), hmc_id=0, controller=ctrl)
    return e, ctrl, nsu


def tick_until(e, nsu, cond, limit=5000):
    for _ in range(limit):
        e.process_due()
        nsu.tick()
        if cond():
            return
        e.now += 1
    raise AssertionError("condition never met")


class TestSpawn:
    def test_cmd_spawns_warp_with_live_ins(self):
        e, ctrl, nsu = mk_nsu()
        blk = loadonly_block()
        ctrl.code_layout = {blk.block_id: (0, 2)}
        inst = FakeInstance(blk)
        nsu.receive_cmd(inst)
        assert len(nsu.warps) == 1
        # Command-buffer credit returns at spawn.
        assert ctrl.released == [(0, {"cmd": 1})]

    def test_icache_lines_touched(self):
        e, ctrl, nsu = mk_nsu()
        blk = loadonly_block()
        ctrl.code_layout = {blk.block_id: (3, 4)}
        nsu.receive_cmd(FakeInstance(blk))
        assert {3, 4, 5, 6} <= nsu.icache_touched

    def test_slots_limit_and_queue(self):
        e, ctrl, nsu = mk_nsu()
        nsu.num_slots = 2
        blk = loadonly_block()
        ctrl.code_layout = {blk.block_id: (0, 1)}
        for i in range(4):
            nsu.receive_cmd(FakeInstance(blk, uid=("u", 0, i)))
        assert len(nsu.warps) == 2
        assert len(nsu.cmd_queue) == 2


class TestExecution:
    def test_load_waits_for_read_data(self):
        e, ctrl, nsu = mk_nsu()
        blk = loadonly_block()
        ctrl.code_layout = {blk.block_id: (0, 1)}
        inst = FakeInstance(blk)
        nsu.receive_cmd(inst)
        # No data yet: the warp blocks on the first LD.
        for _ in range(10):
            e.process_due()
            nsu.tick()
            e.now += 1
        assert nsu.instructions == 0
        # Deliver both loads' data.
        nsu.expect_read((inst.uid, 0), 32)
        nsu.deliver_read((inst.uid, 0), 32)
        nsu.expect_read((inst.uid, 1), 32)
        nsu.deliver_read((inst.uid, 1), 32)
        tick_until(e, nsu, lambda: ctrl.acks == [inst])
        # ld, ld, alu, end
        assert nsu.instructions == 4

    def test_read_credit_released_on_consume(self):
        e, ctrl, nsu = mk_nsu()
        blk = loadonly_block()
        ctrl.code_layout = {blk.block_id: (0, 1)}
        inst = FakeInstance(blk)
        nsu.receive_cmd(inst)
        for seq in (0, 1):
            nsu.expect_read((inst.uid, seq), 32)
            nsu.deliver_read((inst.uid, seq), 32)
        tick_until(e, nsu, lambda: ctrl.acks)
        rd = sum(kw.get("read_data", 0) for _, kw in ctrl.released)
        assert rd == 2

    def test_store_consumes_wta_and_waits_for_writes(self):
        e, ctrl, nsu = mk_nsu()
        blk = vadd_block()
        ctrl.code_layout = {blk.block_id: (0, 2)}
        inst = FakeInstance(blk)
        nsu.receive_cmd(inst)
        for seq in (0, 1):
            nsu.expect_read((inst.uid, seq), 32)
            nsu.deliver_read((inst.uid, seq), 32)
        nsu.expect_wta((inst.uid, 2), 1)
        nsu.deliver_wta((inst.uid, 2), MemAccess(77, 32, False))
        tick_until(e, nsu, lambda: ctrl.acks)
        assert [a.line_addr for a in ctrl.writes] == [77]
        wa = sum(kw.get("write_addr", 0) for _, kw in ctrl.released)
        assert wa == 1

    def test_wta_arriving_before_expectation(self):
        # The controller announces every entry before its first packet
        # leaves the GPU, so an early WTA is a protocol bug, not a race.
        e, ctrl, nsu = mk_nsu()
        key = (("u", 0, 0), 2)
        with pytest.raises(AssertionError, match="write-address"):
            nsu.deliver_wta(key, MemAccess(5, 4, False))
        nsu.expect_wta(key, 1)
        assert len(nsu.wta_buf) == 1 and not nsu.wta_buf.complete(key)
        nsu.deliver_wta(key, MemAccess(5, 4, False))
        assert nsu.wta_buf.complete(key)

    def test_occupancy_accounting(self):
        e, ctrl, nsu = mk_nsu()
        blk = loadonly_block()
        ctrl.code_layout = {blk.block_id: (0, 1)}
        nsu.receive_cmd(FakeInstance(blk))
        for _ in range(10):
            nsu.tick()
        assert nsu.cycles == 10
        assert nsu.occupancy_sum == 10.0
        nsu.account_idle(5)
        assert nsu.cycles == 15

    def test_warp_slot_freed_after_ack(self):
        e, ctrl, nsu = mk_nsu()
        blk = loadonly_block()
        ctrl.code_layout = {blk.block_id: (0, 1)}
        inst = FakeInstance(blk)
        nsu.receive_cmd(inst)
        for seq in (0, 1):
            nsu.expect_read((inst.uid, seq), 32)
            nsu.deliver_read((inst.uid, seq), 32)
        tick_until(e, nsu, lambda: ctrl.acks)
        assert nsu.warps == []
        assert nsu.idle
