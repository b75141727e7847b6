"""Unit tests for the SM issue engine against a scriptable fake memory
system (no caches/DRAM -- pure latency/reject control)."""

from repro.gpu.coalescer import MemAccess
from repro.gpu.sm import SM
from repro.gpu.trace import DynInstr

from repro.isa import alu, ld, sfu, st
from repro.sim.engine import Engine

class FakeMemSys:
    """Loads complete after a fixed latency; optional load-reject budget."""

    def __init__(self, engine, latency=10, rejects=0):
        self.engine = engine
        self.latency = latency
        self.rejects = rejects
        self.loads = []
        self.stores = []

    def load(self, sm, replay):
        while replay.sent < len(replay.accesses):
            if self.rejects > 0:
                self.rejects -= 1
                return False
            self.loads.append(replay.accesses[replay.sent])
            self.engine.after(self.latency, replay.line_done)
            replay.sent += 1
            replay.outstanding += 1
        return True

    def store(self, sm, access):
        self.stores.append(access)

def acc(line=0, words=32):
    return MemAccess(line, words, False)

def mk_sm(engine, **kw):
    mem = FakeMemSys(engine, **kw)
    sm = SM(engine, 0, warps_per_sm=4, alu_latency=4,
            max_inflight_loads=2, memsys=mem)
    return sm, mem

def drive(engine, sm, max_cycles=10_000):
    while not sm.done and engine.now < max_cycles:
        engine.process_due()
        sm.tick()
        engine.now += 1
    assert sm.done, "SM did not finish"

class TestBasicIssue:
    def test_alu_chain_respects_latency(self):
        e = Engine()
        sm, _ = mk_sm(e)
        trace = [DynInstr(alu(1, 0)), DynInstr(alu(2, 1)),
                 DynInstr(alu(3, 2))]
        sm.assign([trace])
        drive(e, sm)
        # 3 dependent ALUs at latency 4: at least 2 * 4 cycles of
        # dependency stalls.
        assert sm.stalls.dependency_stall >= 6
        assert sm.instructions == 3

    def test_independent_alus_pipeline(self):
        e = Engine()
        sm, _ = mk_sm(e)
        trace = [DynInstr(alu(i, 0)) for i in range(1, 9)]
        sm.assign([trace])
        drive(e, sm)
        assert sm.stalls.dependency_stall == 0

    def test_load_use_stall(self):
        e = Engine()
        sm, mem = mk_sm(e, latency=50)
        trace = [DynInstr(ld(1, 0, "A"), (acc(),)), DynInstr(alu(2, 1))]
        sm.assign([trace])
        drive(e, sm)
        assert sm.stalls.dependency_stall >= 45
        assert len(mem.loads) == 1

    def test_independent_loads_overlap(self):
        e = Engine()
        sm, mem = mk_sm(e, latency=100)
        trace = [DynInstr(ld(1, 0, "A"), (acc(0),)),
                 DynInstr(ld(2, 0, "B"), (acc(1),)),
                 DynInstr(alu(3, 1, 2))]
        sm.assign([trace])
        drive(e, sm)
        # Both loads issue back-to-back; total runtime ~ one latency.
        assert e.now < 180

    def test_max_inflight_loads_enforced(self):
        e = Engine()
        sm, mem = mk_sm(e, latency=200)
        trace = [DynInstr(ld(i, 0, "A"), (acc(i),)) for i in range(1, 5)]
        sm.assign([trace])
        drive(e, sm)
        # max 2 in flight: the third load structurally stalls.
        assert sm.stalls.exec_unit_busy > 0

    def test_store_reads_data_register(self):
        e = Engine()
        sm, mem = mk_sm(e, latency=30)
        trace = [DynInstr(ld(1, 0, "A"), (acc(),)),
                 DynInstr(st(1, 2, "B"), (acc(5),))]
        sm.assign([trace])
        drive(e, sm)
        assert len(mem.stores) == 1
        # The store waited for the load's 30-cycle latency.
        assert sm.stalls.dependency_stall >= 25

    def test_sfu_slower_than_alu(self):
        e = Engine()
        sm1, _ = mk_sm(e)
        trace = [DynInstr(sfu(1, 0)), DynInstr(alu(2, 1))]
        sm1.assign([trace])
        drive(e, sm1)
        assert sm1.stalls.dependency_stall >= 12

class TestStructuralReplay:
    def test_rejected_load_retries_and_completes(self):
        e = Engine()
        sm, mem = mk_sm(e, latency=10, rejects=3)
        trace = [DynInstr(ld(1, 0, "A"), (acc(),)), DynInstr(alu(2, 1))]
        sm.assign([trace])
        drive(e, sm)
        assert len(mem.loads) == 1
        assert sm.stalls.exec_unit_busy >= 3
        assert sm.instructions == 2

    def test_issue_pass_records_retry_cost(self):
        e = Engine()
        sm, _ = mk_sm(e, latency=50, rejects=1)
        sm.assign([[DynInstr(ld(i, 0, "A"), (acc(i),)) for i in (1, 2, 3)]])
        records = []
        for _ in range(5):
            e.process_due()
            sm.tick()
            records.append(sm.struct_park_probe())
            e.now += 1
        # An MSHR-full retry costs 1, an issue records None, and a load
        # held by the inflight cap (2 loads out) costs 0.
        assert records == [1, None, None, 0, 0]

    def test_divergent_load_partial_reject_no_duplicates(self):
        e = Engine()
        sm, mem = mk_sm(e, latency=10, rejects=2)
        accesses = tuple(acc(i, 1) for i in range(4))
        trace = [DynInstr(ld(1, 0, "A"), accesses), DynInstr(alu(2, 1))]
        sm.assign([trace])
        drive(e, sm)
        # All 4 lines requested exactly once despite mid-way rejects.
        assert sorted(a.line_addr for a in mem.loads) == [0, 1, 2, 3]

class TestSchedulingAndOccupancy:
    def test_warp_slots_limit_concurrency(self):
        e = Engine()
        sm, mem = mk_sm(e, latency=20)
        traces = [[DynInstr(ld(1, 0, "A"), (acc(i),)), DynInstr(alu(2, 1))]
                  for i in range(10)]
        sm.assign(traces)
        assert len(sm.pending_traces) == 10
        sm.tick()
        assert sm.live_warps == 4    # warps_per_sm
        drive(e, sm)
        assert sm.warps_completed == 10

    def test_latency_hiding_across_warps(self):
        e = Engine()
        # One warp: load + dependent ALU = exposed latency.  Four warps:
        # the SM switches while each waits (the GPU's whole point).
        sm1, _ = mk_sm(e, latency=40)
        sm1.assign([[DynInstr(ld(1, 0, "A"), (acc(),)), DynInstr(alu(2, 1))]])
        drive(e, sm1)
        single = e.now

        e2 = Engine()
        sm4, _ = mk_sm(e2, latency=40)
        sm4.assign([[DynInstr(ld(1, 0, "A"), (acc(i),)), DynInstr(alu(2, 1))]
                    for i in range(4)])
        drive(e2, sm4)
        quad = e2.now
        assert quad < 4 * single * 0.5

    def test_classification_priority(self):
        e = Engine()
        sm, _ = mk_sm(e)
        # No warps at all: a drained SM adds nothing.
        sm.tick()
        assert sm.stalls.total == 0
