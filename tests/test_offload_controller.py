"""Targeted tests for the GPU-side NDP controller (repro.core.offload)."""


from repro.config import LINE_SIZE, ci_config
from repro.core.target_select import first_instr_target
from repro.gpu.coalescer import MemAccess
from repro.gpu.trace import DynBlock
from repro.sim.runner import make_config
from repro.sim.system import System
from repro.workloads import get_workload


def build_system(workload="VADD", config="NaiveNDP"):
    cfg = make_config(config, ci_config())
    system = System(cfg, config_name=config)
    inst = get_workload(workload).build(cfg, "ci")
    system.set_code_layout(inst.blocks)
    return system, inst


def lines_on(amap, hmc, n, start=0):
    out, line = [], start
    while len(out) < n:
        if amap.hmc_of(line * LINE_SIZE) == hmc:
            out.append(line)
        line += 1
    return out


class FakeWarp:
    wid = 0

    def __init__(self):
        self.completed = False


class FakeSM:
    def __init__(self, sm_id=0):
        self.sm_id = sm_id
        self.completions = []

    def complete_offload(self, warp):
        self.completions.append(warp)


def mk_dynblock(system, inst, hmc=0):
    block = inst.blocks[0]
    lines = lines_on(system.amap, hmc, 3)
    groups = tuple((MemAccess(l, 32, False),) for l in lines)
    return DynBlock(block, groups, 32)


class TestStartBlock:
    def test_target_follows_first_access(self):
        system, inst = build_system()
        item = mk_dynblock(system, inst, hmc=1)
        off = system.ndp.start_block(FakeSM(), FakeWarp(), item)
        assert off.target == 1
        assert off.target == first_instr_target(item.mem_accesses[0],
                                                system.amap)

    def test_pending_buffer_limit_rejects(self):
        system, inst = build_system()
        system.ndp.pending_cap = 0
        off = system.ndp.start_block(FakeSM(), FakeWarp(), mk_dynblock(
            system, inst))
        assert off is None
        assert system.ndp.stats.pending_rejects == 1

    def test_cmd_reaches_nsu(self):
        system, inst = build_system()
        item = mk_dynblock(system, inst, hmc=0)
        system.ndp.start_block(FakeSM(), FakeWarp(), item)
        system.engine.drain()
        assert system.nsus[0].cmds_received == 1

    def test_unique_instance_ids(self):
        system, inst = build_system()
        a = system.ndp.start_block(FakeSM(), FakeWarp(),
                                   mk_dynblock(system, inst))
        b = system.ndp.start_block(FakeSM(), FakeWarp(),
                                   mk_dynblock(system, inst))
        assert a.uid != b.uid


class TestFullBlockFlow:
    def test_end_to_end_ack(self):
        system, inst = build_system()
        sm = FakeSM()
        warp = FakeWarp()
        item = mk_dynblock(system, inst, hmc=0)
        off = system.ndp.start_block(sm, warp, item)
        # VADD block: LD, LD, (alu on NSU), ST -> two RDFs and one WTA.
        assert system.ndp.rdf(off, item.mem_accesses[0])
        assert system.ndp.rdf(off, item.mem_accesses[1])
        assert system.ndp.wta(off, item.mem_accesses[2])
        system.ndp.end_block(off)
        # Drive NSU + events to completion.
        for _ in range(200_000):
            system.engine.process_due()
            k = system._nsu_acc.step()
            for nsu in system.nsus:
                for _ in range(k):
                    nsu.tick()
            if sm.completions:
                break
            system.engine.now += 1
        assert sm.completions == [warp]
        assert system.ndp.stats.acks == 1
        # The NSU write happened and invalidated GPU caches.
        assert system.ndp.stats.ndp_writes == 1
        assert system.ndp.stats.invalidations_sent == 1

    def test_rdf_cache_hit_ships_from_gpu(self):
        system, inst = build_system()
        item = mk_dynblock(system, inst, hmc=0)
        # Pre-warm the L2 slice with the first load's line.
        line = item.mem_accesses[0][0].line_addr
        part = system.amap.hmc_of(line * LINE_SIZE)
        system.memsys.l2[part].insert(line)
        off = system.ndp.start_block(FakeSM(), FakeWarp(), item)
        system.ndp.rdf(off, item.mem_accesses[0])
        assert off.rdf_hits == 1
        # Cache-hit responses travel over the GPU link, not through DRAM.
        assert system.gpu_links.bytes_down() > 0

    def test_wta_inflight_tracks_owner(self):
        system, inst = build_system()
        item = mk_dynblock(system, inst, hmc=0)
        off = system.ndp.start_block(FakeSM(), FakeWarp(), item)
        store_acc = item.mem_accesses[2][0]
        owner = system.amap.hmc_of(store_acc.line_addr * LINE_SIZE)
        system.ndp.wta(off, item.mem_accesses[2])
        assert system.ndp.wta_inflight[owner] == 1


class TestSeqNumbers:
    def test_seq_increments_across_mem_instrs(self):
        system, inst = build_system()
        item = mk_dynblock(system, inst)
        off = system.ndp.start_block(FakeSM(), FakeWarp(), item)
        assert off.next_seq == 0
        system.ndp.rdf(off, item.mem_accesses[0])
        assert off.next_seq == 1
        system.ndp.rdf(off, item.mem_accesses[1])
        assert off.next_seq == 2
        system.ndp.wta(off, item.mem_accesses[2])
        assert off.next_seq == 3
