"""Integration tests: full-system runs at CI scale.

These exercise the complete pipeline -- workload build, static analysis,
partitioned execution, credits, NSU execution, coherence -- and check
conservation invariants rather than performance numbers (shape assertions
live in benchmarks/, at a larger scale).
"""

import contextlib
import gc

import pytest

from repro.config import ci_config
from repro.core.offload import OffloadInstance
from repro.faults import get_scenario
from repro.sim.metrics import MetricsRegistry
from repro.sim.runner import build_system, make_config, run_workload
from repro.sim.system import System
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def base():
    return ci_config()


def run(w, c, base, **kw):
    return run_workload(w, c, base=base, scale="ci", **kw)


class TestBaseline:
    def test_all_warps_complete(self, base):
        r = run("VADD", "Baseline", base)
        inst = get_workload("VADD").build(base, "ci")
        assert r.warps_completed == inst.num_warps

    def test_instruction_count_matches_trace(self, base):
        from repro.gpu.trace import trace_instruction_count

        inst = get_workload("VADD").build(base, "ci")
        expected = sum(trace_instruction_count(t) for t in inst.traces)
        r = run("VADD", "Baseline", base)
        assert r.instructions == expected

    def test_no_ndp_traffic_in_baseline(self, base):
        r = run("VADD", "Baseline", base)
        assert r.traffic.mem_net == 0
        assert r.traffic.invalidations == 0
        assert r.offloads_issued == 0
        assert r.nsu_instructions == 0

    def test_dram_reads_cover_misses(self, base):
        r = run("VADD", "Baseline", base)
        # Streaming VADD: loads miss everywhere; every primary L2 miss
        # fetches a full line (MSHR merges make dram_reads <= l2_misses).
        assert r.dram_reads > 0
        assert r.dram_reads >= 0.5 * r.l2_misses * 128

    def test_write_through_stores_reach_dram(self, base):
        r = run("VADD", "Baseline", base)
        inst = get_workload("VADD").build(base, "ci")
        stores = sum(1 for t in inst.traces for i in t)  # upper bound sanity
        assert r.dram_writes > 0

    def test_morecore_has_more_sms(self, base):
        cfg = make_config("Baseline_MoreCore", base)
        assert cfg.gpu.num_sms == base.gpu.num_sms + base.num_hmcs


class TestNaiveNDP:
    def test_all_blocks_offloaded(self, base):
        r = run("VADD", "NaiveNDP", base)
        assert r.offloads_issued == r.blocks_total
        assert r.offloads_issued > 0

    def test_acks_match_offloads(self, base):
        # Every offloaded block completes exactly once.
        cfg = make_config("NaiveNDP", base)
        system = System(cfg, config_name="NaiveNDP")
        inst = get_workload("VADD").build(cfg, "ci")
        system.set_code_layout(inst.blocks)
        system.load_workload(inst.name, inst.traces)
        r = system.run()
        assert system.ndp.stats.acks == system.ndp.stats.offloads
        assert r.warps_completed == inst.num_warps

    def test_nsu_executes_block_bodies(self, base):
        r = run("VADD", "NaiveNDP", base)
        # VADD: 4-instr body + OFLD.END per instance.
        assert r.nsu_instructions == r.offloads_issued * 5

    def test_memory_network_carries_data(self, base):
        r = run("VADD", "NaiveNDP", base)
        assert r.traffic.mem_net > 0

    def test_gpu_traffic_reduced_vs_baseline(self, base):
        b = run("VADD", "Baseline", base)
        n = run("VADD", "NaiveNDP", base)
        assert n.traffic.gpu_link < 0.5 * b.traffic.gpu_link

    def test_invalidations_flow(self, base):
        r = run("VADD", "NaiveNDP", base)
        # One store per block instance -> at least one INV per instance.
        assert r.traffic.invalidations >= r.offloads_issued * 16

    def test_warp_idle_dominates_stalls(self, base):
        r = run("VADD", "NaiveNDP", base)
        assert r.stalls.warp_idle > r.stalls.dependency_stall

    def test_credits_conserved_after_run(self, base):
        cfg = make_config("NaiveNDP", base)
        system = System(cfg, config_name="NaiveNDP")
        inst = get_workload("SP").build(cfg, "ci")
        system.set_code_layout(inst.blocks)
        system.load_workload(inst.name, inst.traces)
        system.run()
        system.ndp.credits.assert_conserved()
        for hmc in range(cfg.num_hmcs):
            cmd, rd, wa = system.ndp.credits.available(hmc)
            assert (cmd, rd, wa) == (cfg.nsu.cmd_buffer_entries,
                                     cfg.nsu.read_data_entries,
                                     cfg.nsu.write_addr_entries)

    def test_nsu_buffers_empty_after_run(self, base):
        cfg = make_config("NaiveNDP", base)
        system = System(cfg, config_name="NaiveNDP")
        inst = get_workload("BFS").build(cfg, "ci")
        system.set_code_layout(inst.blocks)
        system.load_workload(inst.name, inst.traces)
        system.run()
        for nsu in system.nsus:
            assert len(nsu.read_buf) == 0
            assert len(nsu.wta_buf) == 0
            assert not nsu.warps and not nsu.cmd_queue

    def test_wta_inflight_drains(self, base):
        cfg = make_config("NaiveNDP", base)
        system = System(cfg, config_name="NaiveNDP")
        inst = get_workload("VADD").build(cfg, "ci")
        system.set_code_layout(inst.blocks)
        system.load_workload(inst.name, inst.traces)
        system.run()
        assert all(v == 0 for v in system.ndp.wta_inflight)


class TestStaticRatio:
    def test_ratio_zero_equals_baseline_work(self, base):
        r = run_workload("VADD", "NDP(0.2)", base=base, scale="ci")
        assert 0 < r.offloads_issued < r.blocks_total

    def test_results_deterministic(self, base):
        r1 = run("KMN", "NDP(0.4)", base)
        r2 = run("KMN", "NDP(0.4)", base)
        assert r1.cycles == r2.cycles
        assert r1.traffic.gpu_link == r2.traffic.gpu_link
        assert r1.offloads_issued == r2.offloads_issued

    def test_work_conserved_across_ratios(self, base):
        # Completed warps and baseline-equivalent instructions must not
        # depend on the offload ratio.
        rs = [run("SP", c, base)
              for c in ("Baseline", "NDP(0.4)", "NDP(1.0)")]
        assert len({r.warps_completed for r in rs}) == 1
        assert len({r.instructions for r in rs}) == 1


class TestDynamic:
    def test_epoch_log_populated(self, base):
        from repro.workloads import Scale

        r = run_workload("VADD", "NDP(Dyn)", base=base,
                         scale=Scale("ci", 96, 8))
        assert len(r.extra["epoch_log"]) >= 1
        assert all(0.0 <= ratio <= 1.0 for _, ratio in r.extra["epoch_log"])

    def test_cache_aware_records_stats(self, base):
        r = run("BPROP", "NDP(Dyn)_Cache", base)
        assert r.rdf_packets >= 0
        assert r.rdf_cache_hits <= r.rdf_packets

    def test_bprop_suppression_engages(self, base):
        from repro.workloads import Scale

        # BPROP's hot 68-byte structure gives its blocks high RDF hit
        # rates; the Section 7.3 filter must suppress instances once
        # measurements accumulate (needs a long enough run).
        r = run_workload("BPROP", "NDP(Dyn)_Cache", base=base,
                         scale=Scale("ci", 96, 16))
        assert r.offloads_suppressed > 0


class TestAllWorkloadsRun:
    @pytest.mark.parametrize("name", ["BPROP", "BFS", "BICG", "FWT", "KMN",
                                      "MiniFE", "SP", "STN", "STCL", "VADD"])
    def test_ndp_dyn_cache_completes(self, base, name):
        r = run(name, "NDP(Dyn)_Cache", base)
        inst = get_workload(name).build(base, "ci")
        assert r.warps_completed == inst.num_warps
        assert r.cycles > 0


class TestTrafficTotals:
    """``RunResult.traffic`` and the metrics' ``traffic.*`` counters read
    the links' own bytes and the stacks' NoC bytes."""

    @pytest.mark.parametrize("backend", ["hmc", "cxl"])
    @pytest.mark.parametrize("workload,config", [
        ("BFS", "NaiveNDP"), ("STCL", "Baseline")])
    def test_totals_are_the_links_and_stacks_bytes(self, base, backend,
                                                   workload, config):
        metrics = MetricsRegistry(heartbeat_cycles=100)
        system = build_system(workload, config,
                              base=base.with_backend(backend), scale="ci",
                              metrics=metrics)
        # Read the links' and stacks' bytes at each heartbeat, just
        # before the system publishes it.
        sampled = []
        publish = system._publish_heartbeat

        def sample_then_publish():
            sampled.append((system.gpu_links.total_bytes(),
                            system.network.total_bytes(),
                            sum(h.noc_bytes for h in system.hmcs)))
            publish()

        system._publish_heartbeat = sample_then_publish
        res = system.run()
        t = res.traffic
        assert t.gpu_link == system.gpu_links.total_bytes() > 0
        assert t.mem_net == system.network.total_bytes()
        assert t.intra_hmc == sum(h.noc_bytes for h in system.hmcs)
        if backend == "cxl":
            assert t.intra_hmc == 0
        else:
            assert t.intra_hmc > 0
        if config == "NaiveNDP":
            assert t.mem_net > 0
        counters = metrics.snapshot()["counters"]
        assert {k: counters[f"traffic.{k}"] for k in t.as_dict()} == (
            t.as_dict())
        # Each heartbeat carries the bytes of that moment, and the late
        # ones have seen traffic.
        beats = [tuple(hb["counters"][f"traffic.{k}"]
                       for k in ("gpu_link", "mem_net", "intra_hmc"))
                 for hb in metrics.heartbeats]
        assert len(beats) >= 2 and beats == sampled
        gpu_link, mem_net, intra_hmc = beats[-1]
        assert 0 < gpu_link <= t.gpu_link
        if config == "NaiveNDP":
            assert mem_net > 0
        if backend == "hmc":
            assert intra_hmc > 0


@contextlib.contextmanager
def collector_off():
    """Collect what earlier code left, then keep the cyclic collector off
    for the block: what the block frees, reference counting freed."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class TestFreedByReferenceCounting:
    """A finished offload block, and a finished system, hold no reference
    cycle: a cycle would keep them, and the traces they reach, alive
    until the next full collection, which then runs in a later cell."""

    def test_no_offload_instance_outlives_run(self):
        with collector_off():
            system = build_system("FWT", "NaiveNDP", scale="ci")
            system.run()
            assert system.ndp.stats.offloads > 0
            alive = sum(1 for o in gc.get_objects()
                        if type(o) is OffloadInstance)
        assert alive == 0

    @pytest.mark.parametrize("workload,config", [
        ("FWT", "NaiveNDP"), ("KMN", "NDP(Dyn)")])
    def test_dropped_system_leaves_no_cyclic_garbage(self, workload,
                                                     config):
        with collector_off():
            system = build_system(workload, config, scale="ci")
            system.run()
            del system
            assert gc.collect() == 0

    def test_dropped_armed_system_leaves_no_cyclic_garbage(self):
        # The NDP controller and the memory system hold the recovery
        # watchdog, which holds their deadline handlers weakly.
        with collector_off():
            plan = get_scenario("link-corrupt", rate=0.05, seed=1)
            system = build_system("BFS", "NaiveNDP", scale="ci",
                                  faults=plan)
            system.run()
            assert system.ndp.rstats.watchdog_fires > 0
            assert system.memsys.rstats.mshr_reissues > 0
            del system
            assert gc.collect() == 0
