"""Unit tests for the energy model (Figure 10 accounting)."""

import pytest

from repro.config import ci_config, paper_config
from repro.energy import EnergyParams, compute_energy
from repro.sim.results import RunResult, StallBreakdown, TrafficBytes


def mk_result(**kw):
    defaults = dict(
        workload="w", config_name="c", cycles=1000, instructions=5000,
        nsu_instructions=0, warps_completed=10,
        stalls=StallBreakdown(), traffic=TrafficBytes(),
        dram_activations=0, dram_reads=0, dram_writes=0)
    defaults.update(kw)
    return RunResult(**defaults)


class TestComponents:
    def test_baseline_has_no_nsu_energy(self):
        e = compute_energy(mk_result(), paper_config())
        assert e.nsu == 0.0
        assert e.gpu > 0

    def test_nsu_energy_when_offloading(self):
        r = mk_result(nsu_instructions=100, nsu_cycles=500,
                      offloads_issued=10)
        e = compute_energy(r, paper_config())
        assert e.nsu > 0

    @pytest.mark.parametrize("backend,constant", [
        pytest.param("hmc", "offchip_link_nj_per_byte", id="hmc"),
        pytest.param("cxl", "cxl_link_nj_per_byte", id="cxl"),
    ])
    def test_link_energy_proportional_to_bytes(self, backend, constant):
        p = EnergyParams()
        cfg = paper_config().with_backend(backend)
        r1 = mk_result(traffic=TrafficBytes(gpu_link=1000))
        r2 = mk_result(traffic=TrafficBytes(gpu_link=3000))
        e1 = compute_energy(r1, cfg, p)
        e2 = compute_energy(r2, cfg, p)
        assert (e2.offchip_icnt - e1.offchip_icnt) == pytest.approx(
            2000 * getattr(p, constant))

    def test_memory_network_counted_as_offchip(self):
        r = mk_result(traffic=TrafficBytes(mem_net=4000))
        e = compute_energy(r, paper_config())
        assert e.offchip_icnt > 0

    def test_dram_activation_energy(self):
        p = EnergyParams()
        r0 = mk_result()
        r1 = mk_result(dram_activations=100)
        d = (compute_energy(r1, paper_config(), p).dram
             - compute_energy(r0, paper_config(), p).dram)
        assert d == pytest.approx(100 * p.dram_activate_nj)

    def test_published_constants(self):
        p = EnergyParams()
        assert p.offchip_link_nj_per_byte == pytest.approx(2e-3 * 8)  # 2 pJ/b
        assert p.dram_activate_nj == 11.8
        assert p.dram_rw_nj_per_byte == pytest.approx(4e-3 * 8)       # 4 pJ/b

    def test_static_energy_scales_with_runtime(self):
        e1 = compute_energy(mk_result(cycles=1000), paper_config())
        e2 = compute_energy(mk_result(cycles=2000), paper_config())
        assert e2.gpu > e1.gpu
        assert e2.dram > e1.dram

    def test_more_sms_cost_more(self):
        cfg = paper_config()
        big = cfg.scaled_gpu(num_sms=cfg.gpu.num_sms * 2)
        r = mk_result()
        assert compute_energy(r, big).gpu > compute_energy(r, cfg).gpu


class TestBreakdown:
    def test_total_is_sum(self):
        r = mk_result(traffic=TrafficBytes(gpu_link=100, intra_hmc=50),
                      dram_activations=5, dram_reads=640)
        e = compute_energy(r, paper_config())
        assert e.total == pytest.approx(
            e.gpu + e.nsu + e.intra_hmc_noc + e.offchip_icnt + e.dram)

    def test_normalization(self):
        r = mk_result()
        e = compute_energy(r, paper_config())
        n = e.normalized_to(e)
        assert n["Total"] == pytest.approx(1.0)
        assert sum(v for k, v in n.items()
                   if k != "Total") == pytest.approx(1.0)

    def test_end_to_end_energy_from_simulation(self):
        from repro.sim.runner import make_config, run_workload

        cfg = ci_config()
        base = run_workload("VADD", "Baseline", base=cfg, scale="ci")
        e = compute_energy(base, make_config("Baseline", cfg))
        assert e.total > 0
        assert e.nsu == 0
        # GPU static + DRAM should dominate a short memory-bound run.
        assert e.gpu + e.dram > 0.5 * e.total
