"""Tests for the greedy-then-oldest (GTO) warp scheduler."""

from repro.gpu.sm import SM
from repro.gpu.trace import DynInstr
from repro.isa import alu
from repro.sim.engine import Engine

class RecordingMemSys:
    def __init__(self, engine, latency=10):
        self.engine = engine
        self.latency = latency

    def load(self, sm, replay):
        for _ in range(replay.sent, len(replay.accesses)):
            self.engine.after(self.latency, replay.line_done)
        replay.outstanding += len(replay.accesses) - replay.sent
        replay.sent = len(replay.accesses)
        return True

    def store(self, sm, access):
        pass

def mk_sm(engine):
    return SM(engine, 0, warps_per_sm=4, alu_latency=4,
              max_inflight_loads=4, memsys=RecordingMemSys(engine))

def drive(engine, sm, record):
    # The traces are ALU-only, so a warp's pc advances once per issue.
    while not sm.done and engine.now < 10_000:
        engine.process_due()
        before = {w.wid: w.pc for w in sm.warps}
        sm.tick()
        for w in sm.warps:
            if w.pc > before.get(w.wid, 0):
                record.append(w.wid)
        engine.now += 1

def alu_trace(n=8):
    return [DynInstr(alu(100 + i, 0)) for i in range(n)]

class TestPolicies:
    def test_gto_runs_one_warp_greedily(self):
        e = Engine()
        sm = mk_sm(e)
        sm.assign([alu_trace(), alu_trace()])
        order = []
        drive(e, sm, order)
        # GTO: long runs of the same warp id.
        runs = sum(1 for a, b in zip(order, order[1:]) if a != b)
        assert runs <= 3

    def test_both_complete_same_work(self):
        # Every warp of a three-warp assignment retires all its work.
        e = Engine()
        sm = mk_sm(e)
        sm.assign([alu_trace(), alu_trace(), alu_trace()])
        drive(e, sm, [])
        assert sm.warps_completed == 3
        assert sm.instructions == 24
