"""Unit tests for the memory substrate: address map, DRAM timing,
FR-FCFS vault scheduling, and the one device class behind both
backends."""

import pytest

from repro.config import LINE_SIZE, PAGE_SIZE, SystemConfig, ci_config
from repro.memory import (
    AddressMap,
    DRAMRequest,
    DRAMStats,
    DRAMTimingSM,
    HMCStack,
    VaultController,
)
from repro.faults import FaultInjector, get_scenario
from repro.memory.backend import backend_of
from repro.memory.dram import BankState
from repro.sim.engine import Engine


@pytest.fixture
def cfg():
    return SystemConfig(num_hmcs=8)


@pytest.fixture
def amap(cfg):
    return AddressMap(cfg)


def _geometries(cfg):
    """``cfg`` on each substrate, with the record that sets its geometry."""
    for name in ("hmc", "cxl"):
        on = cfg.with_backend(name)
        yield on, backend_of(on)


class TestAddressMap:
    def test_hmc_mapping_is_page_granular(self, amap):
        base = 17 * PAGE_SIZE
        hmcs = {amap.hmc_of(base + off) for off in range(0, PAGE_SIZE, 256)}
        assert len(hmcs) == 1

    def test_hmc_mapping_spreads_pages(self, amap):
        hmcs = {amap.hmc_of(p * PAGE_SIZE) for p in range(256)}
        assert hmcs == set(range(8))

    def test_mapping_depends_on_seed(self, cfg):
        a = AddressMap(cfg)
        import dataclasses
        b = AddressMap(dataclasses.replace(cfg, seed=99))
        pages = list(range(200))
        pa = [a.hmc_of(p * PAGE_SIZE) for p in pages]
        pb = [b.hmc_of(p * PAGE_SIZE) for p in pages]
        assert pa != pb

    def test_consecutive_lines_interleave_vaults(self, cfg):
        for cfg_, be in _geometries(cfg):
            amap = AddressMap(cfg_)
            vaults = [amap.locate(l)[0] for l in range(2 * be.vaults)]
            assert vaults == list(range(be.vaults)) * 2

    def test_row_groups_lines(self, cfg):
        # Lines of the same (vault, bank) row share a row number; the
        # row's last column is followed by the next row.
        for cfg_, be in _geometries(cfg):
            amap = AddressMap(cfg_)
            stride = be.vaults * be.banks          # next column, same bank
            cols = be.row_bytes // LINE_SIZE
            assert amap.locate(0) == amap.locate(stride) == (0, 0, 0)
            assert amap.locate((cols - 1) * stride) == (0, 0, 0)
            assert amap.locate(cols * stride) == (0, 0, 1)

    def test_decode_matches_components(self, cfg):
        # locate() is the documented bit-field split, computed here by
        # division: vault, then bank, then column, then row.
        for cfg_, be in _geometries(cfg):
            amap = AddressMap(cfg_)
            cols = be.row_bytes // LINE_SIZE
            for line in (0, 1, 0xABCDE, 0x1234567, (1 << 40) + 3):
                assert amap.locate(line) == (
                    line % be.vaults,
                    line // be.vaults % be.banks,
                    line // (be.vaults * be.banks * cols))

    def test_bad_geometry_rejected(self, cfg):
        import dataclasses
        hmc = dataclasses.replace(cfg.hmc, num_vaults=12)
        bad = dataclasses.replace(cfg, hmc=hmc)
        with pytest.raises(ValueError):
            AddressMap(bad)


class TestDRAMTiming:
    def test_conversion_to_sm_cycles(self):
        cfg = SystemConfig()
        t = DRAMTimingSM.from_config(cfg.hmc.timing, cfg.gpu.sm_clock_mhz,
                                     cfg.hmc.vault_bus_bytes_per_dram_cycle)
        # 9 DRAM cycles * 1.5ns = 13.5ns = 9.45 SM cycles -> ceil 10
        assert t.tCL == 10
        assert t.tRP == 10
        assert t.tRAS == 26
        assert t.burst == 5   # 128B / 32B-per-cycle = 4 DRAM cyc -> 4.2 -> 5

    def test_row_hit_faster_than_miss(self):
        cfg = SystemConfig()
        t = DRAMTimingSM.from_config(cfg.hmc.timing, cfg.gpu.sm_clock_mhz, 32)
        bank = BankState()
        ready1, act1 = bank.access(row=5, is_write=False, now=0, t=t)
        assert act1
        bank.busy_until = 0  # isolate latency effects
        ready2, act2 = bank.access(row=5, is_write=False, now=100, t=t)
        assert not act2
        assert (ready2 - 100) < ready1

    def test_row_conflict_pays_precharge(self):
        cfg = SystemConfig()
        t = DRAMTimingSM.from_config(cfg.hmc.timing, cfg.gpu.sm_clock_mhz, 32)
        bank = BankState()
        bank.access(row=1, is_write=False, now=0, t=t)
        now = 1000
        ready, act = bank.access(row=2, is_write=False, now=now, t=t)
        assert act
        assert ready - now >= t.tRP + t.tRCD + t.tCL

    def test_write_recovery_holds_bank(self):
        cfg = SystemConfig()
        t = DRAMTimingSM.from_config(cfg.hmc.timing, cfg.gpu.sm_clock_mhz, 32)
        bank = BankState()
        ready, _ = bank.access(row=1, is_write=True, now=0, t=t)
        assert bank.busy_until == ready + t.tWR


def _mk_vault(engine):
    cfg = SystemConfig()
    t = DRAMTimingSM.from_config(cfg.hmc.timing, cfg.gpu.sm_clock_mhz, 32)
    stats = DRAMStats()
    return VaultController(engine, t, num_banks=16, stats=stats), stats, t


class TestVaultController:
    def test_single_request_completes(self):
        e = Engine()
        vault, stats, t = _mk_vault(e)
        done = []
        vault.submit(DRAMRequest(0, False, lambda r: done.append(e.now),
                                 bank=0, row=0))
        e.drain()
        assert len(done) == 1
        assert stats.reads == 1
        assert stats.activations == 1

    def test_fr_fcfs_prefers_row_hits(self):
        e = Engine()
        vault, stats, t = _mk_vault(e)
        order = []
        # Open row 1 on bank 0 with a first access, then queue a row-2 and
        # a row-1 request; the row-1 (hit) must be served first even though
        # the row-2 request is older.
        vault.submit(DRAMRequest(0, False, lambda r: order.append("warm"),
                                 bank=0, row=1))
        e.drain()
        vault.submit(DRAMRequest(1, False, lambda r: order.append("miss"),
                                 bank=0, row=2))
        vault.submit(DRAMRequest(2, False, lambda r: order.append("hit"),
                                 bank=0, row=1))
        e.drain()
        assert order == ["warm", "hit", "miss"]

    def test_banks_overlap(self):
        e = Engine()
        vault, stats, t = _mk_vault(e)
        done = []
        for b in range(4):
            vault.submit(DRAMRequest(b, False,
                                     lambda r: done.append(e.now),
                                     bank=b, row=0))
        e.drain()
        # Four independent banks: completion should be spaced by the data
        # bus (tCCD/burst), not by full access latency.
        spacing = max(done) - min(done)
        assert spacing <= 4 * max(t.tCCD, t.burst) + 2

    def test_row_hit_rate_stat(self):
        e = Engine()
        vault, stats, t = _mk_vault(e)
        for i in range(8):
            vault.submit(DRAMRequest(i, False, lambda r: None, bank=0, row=0))
        e.drain()
        assert stats.row_hits == 7
        assert stats.row_misses == 1
        assert stats.row_hit_rate == pytest.approx(7 / 8)

    def test_queue_peak_tracked(self):
        e = Engine()
        vault, stats, t = _mk_vault(e)
        for i in range(20):
            vault.submit(DRAMRequest(i, False, lambda r: None,
                                     bank=i % 16, row=i))
        assert stats.queue_peak == 20
        e.drain()


    def test_read_loss_notifies_on_lost_only(self):
        # Reference: the unarmed read completes at cycle done_at.
        e = Engine()
        vault, _, _ = _mk_vault(e)
        done = []
        vault.submit(DRAMRequest(0, False, lambda r: done.append(e.now),
                                 bank=0, row=0, extra_latency=4))
        e.drain()
        [done_at] = done
        # Armed: every read response is swallowed.  on_lost fires once,
        # at the cycle on_done would have; on_done never fires.
        e = Engine()
        vault, stats, _ = _mk_vault(e)
        vault.faults = FaultInjector(
            get_scenario("vault-read-loss", rate=1.0), e)
        fired, lost = [], []
        req = DRAMRequest(0, False, fired.append, bank=0, row=0,
                          extra_latency=4,
                          on_lost=lambda r: lost.append((r, e.now)))
        vault.submit(req)
        # No listener: neither callback fires, and the vault still drains.
        vault.submit(DRAMRequest(1, False, fired.append, bank=1, row=0))
        e.drain()
        assert lost == [(req, done_at)]
        assert fired == []
        assert stats.reads == 2
        assert not vault.queue
        assert e.next_event_time() is None


class TestVaultWakeups:
    """The vault's wake-up protocol, counted in ``_service`` events: a
    submit arms a wake-up unless one is armed for its very cycle, and a
    service that finds the bus busy rearms at ``bus_free_at``."""

    @pytest.fixture
    def services(self, monkeypatch):
        """The cycle of every ``_service`` event, in dispatch order."""
        log = []
        service = VaultController._service

        def counted(vault):
            log.append(vault.engine.now)
            service(vault)

        monkeypatch.setattr(VaultController, "_service", counted)
        return log

    @staticmethod
    def _req(bank):
        return DRAMRequest(bank, False, lambda r: None, bank=bank, row=0)

    def test_second_submit_same_cycle_arms_nothing(self, services):
        e = Engine()
        vault, stats, t = _mk_vault(e)
        vault.submit(self._req(0))
        vault.submit(self._req(1))
        assert e.pending == 1
        e.drain()
        slot = max(t.tCCD, t.burst)
        assert services == [0, slot]
        assert stats.reads == 2

    def test_submit_with_later_wakeup_pending_arms_one_now(self, services):
        e = Engine()
        vault, stats, t = _mk_vault(e)
        vault.submit(self._req(0))
        vault.submit(self._req(1))
        e.process_due()
        later = vault.bus_free_at
        assert later > 1 and vault._wakeup_scheduled_at == later
        e.now = 1
        vault.submit(self._req(2))
        assert vault._wakeup_scheduled_at == 1
        assert e.next_event_time() == 1
        e.process_due()
        assert services == [0, 1]
        e.drain()
        assert stats.reads == 3 and not vault.queue

    def test_busy_bus_rearms_at_bus_free_at(self, services):
        e = Engine()
        vault, stats, t = _mk_vault(e)
        for bank in range(3):
            vault.submit(self._req(bank))
        e.process_due()
        # The service at 0 served one request, then found the bus busy.
        slot = max(t.tCCD, t.burst)
        assert stats.reads == 1
        assert vault._wakeup_scheduled_at == vault.bus_free_at == slot
        e.drain()
        assert services == [0, slot, 2 * slot]
        assert stats.reads == 3


class TestHMCStack:
    @pytest.mark.parametrize("backend", ["hmc", "cxl"])
    def test_access_routes_to_owner_only(self, backend):
        e = Engine()
        cfg = ci_config().with_backend(backend)
        amap = AddressMap(cfg)
        stack = HMCStack(e, cfg, 0, amap)
        # find a line owned by device 0
        line = next(l for l in range(10000)
                    if amap.hmc_of(l * LINE_SIZE) == 0)
        wrong = next(l for l in range(10000)
                     if amap.hmc_of(l * LINE_SIZE) != 0)
        done = []
        stack.access_line(line, False, lambda r: done.append(r.line_addr))
        with pytest.raises(ValueError, match=f"{backend}0"):
            stack.access_line(wrong, False, lambda r: None)
        e.drain()
        assert done == [line]
        # Only the HMC's logic-layer NoC carries (and charges) bytes.
        assert stack.noc_bytes == (LINE_SIZE if backend == "hmc" else 0)

    def test_peak_bandwidth_near_spec(self):
        e = Engine()
        cfg = SystemConfig()
        amap = AddressMap(cfg)
        stack = HMCStack(e, cfg, 0, amap)
        bw = stack.peak_bandwidth_bytes_per_cycle()
        gbps = bw * cfg.gpu.sm_clock_mhz * 1e6 / 1e9
        # HMC spec: ~320 GB/s peak DRAM bandwidth per stack.
        assert 200 <= gbps <= 400
