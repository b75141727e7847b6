"""Unit tests for the system configuration (Table 2 values, derived
rates, and variant constructors)."""


import pytest

from repro.config import (
    CacheConfig,
    GPUConfig,
    NDPConfig,
    OffloadMode,
    SystemConfig,
    ci_config,
    onchip_storage_bytes,
    paper_config,
)


class TestTable2Defaults:
    def test_gpu(self):
        cfg = paper_config()
        assert cfg.gpu.num_sms == 64
        assert cfg.num_hmcs == 8
        assert cfg.gpu.warps_per_sm * cfg.gpu.warp_width == 1536
        assert cfg.gpu.l1d.size_bytes == 32 * 1024
        assert cfg.gpu.l2.size_bytes == 2 * 1024 * 1024
        assert cfg.gpu.sm_clock_mhz == 700.0

    def test_hmc(self):
        cfg = paper_config()
        assert cfg.hmc.num_vaults == 16
        assert cfg.hmc.banks_per_vault == 16
        assert cfg.hmc.memory_bytes == 4 * 1024 ** 3
        assert cfg.hmc.vault_queue_size == 64
        assert cfg.hmc.timing.tck_ns == 1.50

    def test_nsu(self):
        cfg = paper_config()
        assert cfg.nsu.clock_mhz == 350.0
        assert cfg.nsu.num_warp_slots == 48
        assert cfg.nsu.read_data_entries == 256
        assert cfg.nsu.cmd_buffer_entries == 10

    def test_algorithm1_parameters(self):
        ndp = NDPConfig()
        assert ndp.epoch_cycles == 30_000
        assert ndp.ratio_init == 0.1
        assert ndp.step_init == 0.15
        assert ndp.step_unit == 0.05
        assert (ndp.step_min, ndp.step_max) == (0.05, 0.15)
        assert ndp.history_window == 4


class TestDerivedRates:
    def test_link_bytes_per_cycle(self):
        cfg = paper_config()
        # 20 GB/s at 700 MHz = 28.57 B/cycle.
        assert cfg.gpu.link_bytes_per_sm_cycle == pytest.approx(28.57, abs=0.01)

    def test_nsu_half_rate(self):
        cfg = paper_config()
        assert cfg.nsu.cycles_per_sm_cycle(700.0) == pytest.approx(0.5)


class TestVariants:
    def test_with_mode(self):
        cfg = paper_config().with_mode(OffloadMode.STATIC, static_ratio=0.3)
        assert cfg.ndp.mode == OffloadMode.STATIC
        assert cfg.ndp.static_ratio == 0.3

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            NDPConfig(mode="bogus")

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            NDPConfig(static_ratio=1.5)

    def test_scaled_gpu(self):
        cfg = paper_config().scaled_gpu(num_sms=128)
        assert cfg.gpu.num_sms == 128

    def test_with_nsu_clock(self):
        cfg = paper_config().with_nsu_clock(175.0)
        assert cfg.nsu.clock_mhz == 175.0

    def test_non_power_of_two_hmcs_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(num_hmcs=6)

    def test_ci_preserves_compute_ratio(self):
        # GPU SMs per NSU must match the paper config (64/8 == 8/1 per
        # stack -- the saturation behaviour depends on it).
        p, c = paper_config(), ci_config()
        assert p.gpu.num_sms / p.num_hmcs == c.gpu.num_sms / c.num_hmcs


class TestCacheConfig:
    def test_num_sets(self):
        assert CacheConfig(32 * 1024, 4).num_sets == 64

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 3)

    # Below 1, an L2 hit latency failed mid-run in Engine.after, and no
    # MSHR entry spun the run to its cycle budget.
    @pytest.mark.parametrize("field", ["mshr_entries", "hit_latency"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_unrunnable_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            CacheConfig(32 * 1024, 4, **{field: value})


class TestGPUConfig:
    # A cap of 0 spun every load to the cycle budget.
    @pytest.mark.parametrize("value", [0, -1])
    def test_zero_inflight_load_cap_rejected(self, value):
        with pytest.raises(ValueError, match="max_inflight_loads_per_warp"):
            GPUConfig(max_inflight_loads_per_warp=value)

    def test_inflight_load_cap_of_one_accepted(self):
        assert GPUConfig(
            max_inflight_loads_per_warp=1).max_inflight_loads_per_warp == 1


class TestStorageOverhead:
    def test_sm_buffer_bytes_match_paper(self):
        cfg = paper_config()
        assert cfg.sm_buffers.storage_bytes == 2912   # 2.84 KB

    def test_onchip_storage_positive(self):
        assert onchip_storage_bytes(paper_config()) > 8 * 1024 * 1024

    def test_max_mem_instrs_from_seq_bits(self):
        assert NDPConfig(seq_num_bits=6).max_mem_instrs_per_block == 64
