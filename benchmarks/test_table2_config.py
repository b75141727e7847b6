"""Table 2: system configuration, regenerated from the config objects."""

from repro.analysis.tables import format_table, table2
from repro.config import paper_config


def test_table2(benchmark):
    rows = benchmark.pedantic(table2, rounds=1, iterations=1)
    print()
    print(format_table(rows, "Table 2: System configuration"))
    d = {r["Parameter"]: r["Value"] for r in rows}
    assert d["# of SMs"] == "64 SMs"
    assert d["# of HMCs"] == "8"
    assert "FR-FCFS" in d["Memory scheduler"]
    assert "tCK=1.50ns" in d["DRAM timing"]
    assert "350 MHz, 48 warps" in d["NSU"]
    assert "128 B x 256 read data" in d["Buffers in NSU"]


def test_bandwidth_premise(benchmark):
    """Section 1's premise: aggregate DRAM bandwidth greatly exceeds the
    GPU's off-chip bandwidth (the '~4 TB/s unused' argument)."""
    def premise():
        from repro.memory import AddressMap, HMCStack
        from repro.sim.engine import Engine

        cfg = paper_config()
        stack = HMCStack(Engine(), cfg, 0, AddressMap(cfg))
        dram = stack.peak_bandwidth_bytes_per_cycle() * cfg.num_hmcs
        gpu = cfg.gpu.total_offchip_bytes_per_sm_cycle * 2  # both directions
        return dram, gpu

    dram, gpu = benchmark.pedantic(premise, rounds=1, iterations=1)
    to_gbps = paper_config().gpu.sm_clock_mhz * 1e6 / 1e9
    print(f"\naggregate DRAM bandwidth : {dram * to_gbps:7.0f} GB/s")
    print(f"GPU off-chip bandwidth   : {gpu * to_gbps:7.0f} GB/s")
    print(f"unused without NDP       : {(dram - gpu) * to_gbps:7.0f} GB/s")
    assert dram > 4 * gpu
