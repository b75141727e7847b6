"""Micro-benchmarks of the simulator's hot components (throughput tracking
for the infrastructure itself, via pytest-benchmark's timing machinery)."""

import numpy as np
import pytest

from repro.config import SystemConfig, WORD_SIZE
from repro.gpu.cache import Cache
from repro.gpu.coalescer import coalesce
from repro.memory.address import AddressMap
from repro.memory.dram import DRAMTimingSM
from repro.memory.vault import DRAMRequest, DRAMStats, VaultController
from repro.sim.engine import Engine, Link


@pytest.mark.parametrize("form", ["scheduled", "chained"])
def test_engine_event_throughput(benchmark, form):
    """10k events: pre-scheduled at() calls, or 100 chains of 50 hops in
    which each hop schedules one at(now) event and passes the chain on
    with a call_after that binds an argument (the shape of the
    simulator's packet traffic)."""
    def noop():
        pass

    def run():
        e = Engine()

        def hop(left):
            e.at(e.now, noop)
            if left > 1:
                e.call_after(1 + left % 3, hop, left - 1)

        if form == "chained":
            for i in range(100):
                e.call_after(1 + i % 7, hop, 50)
        else:
            for i in range(10_000):
                e.at(i % 997, lambda: None)
        e.drain()
        return e.events_processed

    n = benchmark(run)
    assert n == 10_000


def test_link_throughput(benchmark):
    def run():
        e = Engine()
        link = Link(e, "l", bytes_per_cycle=32)
        for _ in range(5_000):
            link.send(128, lambda: None)
        e.drain()
        return link.packets_sent

    assert benchmark(run) == 5_000


def test_cache_lookup_throughput(benchmark):
    c = Cache(32 * 1024, 4, 128)
    lines = np.random.default_rng(0).integers(0, 4096, 20_000)

    def run():
        hits = 0
        for l in lines:
            if not c.lookup(int(l)):
                c.insert(int(l))
            else:
                hits += 1
        return hits

    benchmark(run)


@pytest.mark.parametrize("form", ["rows", "batch"])
def test_coalescer_throughput(benchmark, form):
    """200 warp instructions: 200 one-row calls, or one call on all 200
    rows (how trace generation coalesces a warp)."""
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 1 << 24, (200, 32)) * WORD_SIZE

    def run():
        if form == "rows":
            return sum(len(coalesce(r)) for r in rows)
        return sum(len(g) for g in coalesce(rows))

    assert benchmark(run) > 0


def test_vault_frfcfs_throughput(benchmark):
    cfg = SystemConfig()
    timing = DRAMTimingSM.from_config(cfg.hmc.timing, cfg.gpu.sm_clock_mhz, 32)

    def run():
        e = Engine()
        stats = DRAMStats()
        vault = VaultController(e, timing, 16, stats)
        rng = np.random.default_rng(1)
        for i in range(2_000):
            vault.submit(DRAMRequest(i, bool(i % 7 == 0), lambda r: None,
                                     bank=int(rng.integers(16)),
                                     row=int(rng.integers(64))))
        e.drain()
        return stats.reads + stats.writes

    assert benchmark(run) == 2_000


def test_address_decode_throughput(benchmark):
    amap = AddressMap(SystemConfig(num_hmcs=8))
    lines = np.arange(100_000, dtype=np.int64)

    def run():
        return amap.hmc_of_lines(lines).sum()

    benchmark(run)
