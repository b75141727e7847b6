"""System configuration for the NDP-enabled GPU system (paper Table 2).

All clock-domain quantities are normalized to *SM cycles* (the 700 MHz GPU
core clock) inside the simulator.  This module holds the raw physical
parameters and provides the derived per-SM-cycle rates.

Two scale presets are provided:

* ``paper``  -- the full Table 2 system (64 SMs, 8 HMCs).  Used by the
  benchmark harness that regenerates the paper's figures.
* ``ci``     -- a scaled-down system (8 SMs, 4 HMCs) with identical
  bandwidth *ratios*, used by the unit/integration test suite so the
  whole suite runs in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: Cache line size used throughout the system (bytes).
LINE_SIZE = 128

#: Word size for data elements (bytes) -- 32-bit floats/ints as in the
#: evaluated CUDA workloads.
WORD_SIZE = 4

#: Page size for the random page->HMC mapping (bytes).
PAGE_SIZE = 4096

#: Register size transferred in offload command / ack packets (bytes).
REG_SIZE = 4

#: Fixed header overhead of every packet (bytes): routing info, offload
#: packet ID (SM id, warp id, sequence number), type/flag fields.
PKT_HEADER = 16

#: Bytes per memory address carried in request/WTA packets.
ADDR_SIZE = 8


@dataclass(frozen=True)
class CacheConfig:
    """Set-associative cache geometry and MSHR capacity."""

    size_bytes: int
    assoc: int
    line_size: int = LINE_SIZE
    mshr_entries: int = 48
    hit_latency: int = 1  # in SM cycles

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.assoc * self.line_size)
        if sets < 1:
            raise ValueError("cache too small for its associativity/line size")
        return sets

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.line_size):
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_size})"
            )
        # With no MSHR entry every miss is rejected forever, and a hit
        # must land in a later cycle (Engine.after needs a positive delay).
        for name in ("mshr_entries", "hit_latency"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class DRAMTiming:
    """DRAM timing parameters in DRAM cycles (Table 2: DDR3-1333H-like)."""

    tck_ns: float = 1.50
    tRP: int = 9
    tCCD: int = 4
    tRCD: int = 9
    tCL: int = 9
    tWR: int = 12
    tRAS: int = 24
    # Refresh: every tREFI the vault stalls all banks for tRFC (values in
    # DRAM cycles; ~7.8 us / ~260 ns for a DDR3-class 4Gb device).  Set
    # tREFI to 0 to disable refresh modelling.
    tREFI: int = 5200
    tRFC: int = 174


@dataclass(frozen=True)
class GPUConfig:
    """Host GPU configuration (Table 2, 'GPU' section).  Every SM
    schedules warps greedy-then-oldest, the GPGPU-sim default."""

    num_sms: int = 64
    warps_per_sm: int = 48          # 1536 threads / warp width 32
    warp_width: int = 32
    max_ctas_per_sm: int = 8
    registers_per_sm: int = 32768
    scratchpad_bytes: int = 48 * 1024
    sm_clock_mhz: float = 700.0
    xbar_clock_mhz: float = 1250.0
    l2_clock_mhz: float = 700.0
    # 8 bidirectional off-chip links, 20 GB/s in each direction per link.
    num_links: int = 8
    link_gbps_per_dir: float = 20.0
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(4 * 1024, 4, mshr_entries=2)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            32 * 1024, 4, mshr_entries=48, hit_latency=20
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            2 * 1024 * 1024, 16, mshr_entries=48, hit_latency=80
        )
    )
    alu_latency: int = 4            # SM cycles until result is ready
    max_inflight_loads_per_warp: int = 6
    # Graphics-era SRAM the NSU drops (Section 4.5) but the GPU carries;
    # counted in the Section 7.5 on-chip storage total.
    const_cache_bytes: int = 8 * 1024
    tex_cache_bytes: int = 24 * 1024

    def __post_init__(self) -> None:
        # A warp allowed no load in flight can never issue one.
        if self.max_inflight_loads_per_warp < 1:
            raise ValueError(
                "max_inflight_loads_per_warp must be at least 1, got "
                f"{self.max_inflight_loads_per_warp}")

    @property
    def link_bytes_per_sm_cycle(self) -> float:
        """Per-link per-direction bandwidth in bytes per SM cycle."""
        return self.link_gbps_per_dir * 1e9 / (self.sm_clock_mhz * 1e6)

    @property
    def total_offchip_bytes_per_sm_cycle(self) -> float:
        return self.num_links * self.link_bytes_per_sm_cycle


@dataclass(frozen=True)
class HMCConfig:
    """Per-stack HMC configuration (Table 2, 'HMC' section)."""

    num_vaults: int = 16
    banks_per_vault: int = 16
    num_layers: int = 8
    memory_bytes: int = 4 * 1024 ** 3
    vault_queue_size: int = 64
    timing: DRAMTiming = field(default_factory=DRAMTiming)
    # Off-chip serdes links per HMC: 4 bidirectional, 20 GB/s each direction.
    num_links: int = 4
    link_gbps_per_dir: float = 20.0
    # DRAM data bus: 32B/DRAM-cycle per vault gives ~20 GB/s/vault
    # (320 GB/s/stack peak as in the HMC 2.1 spec cited by the paper).
    vault_bus_bytes_per_dram_cycle: int = 32
    row_bytes: int = 4096

    def link_bytes_per_sm_cycle(self, sm_clock_mhz: float) -> float:
        return self.link_gbps_per_dir * 1e9 / (sm_clock_mhz * 1e6)


@dataclass(frozen=True)
class CXLConfig:
    """CXL memory-expander parameters: the ``cxl`` branch of
    :func:`repro.memory.backend.backend_of` reads them into the substrate
    record (see docs/backends.md).

    Departures from the HMC substrate, all deliberate:

    * the host link is **asymmetric** -- CXL.mem read/write flows share
      PCIe lanes but pay different protocol overheads, so the down
      (host->device) and up (device->host) directions carry their own
      bandwidth and latency;
    * there is **no intra-stack NoC** -- DDR channel controllers hang
      directly off the expander controller, so local accesses pay a flat
      ``port_latency`` and charge no intra-stack NoC bytes;
    * the expander-side NDP unit sits behind a **device command queue**
      (``ndp_cmd_queue``) sized independently of the NSU's own buffers.
    """

    num_channels: int = 8           # DDR channels per expander
    banks_per_channel: int = 16
    channel_queue_size: int = 64
    # Host CXL port, per expander: asymmetric effective bandwidth.
    host_link_gbps_down: float = 16.0
    host_link_gbps_up: float = 24.0
    link_latency_down: int = 40     # SM cycles (CXL port + flit framing)
    link_latency_up: int = 30
    # Inter-expander fabric (CXL switch), per link per direction.
    fabric_gbps_per_dir: float = 12.0
    # Expander controller traversal for a local channel access.
    port_latency: int = 10
    # Expander-side NDP command queue entries (credits per device).
    ndp_cmd_queue: int = 16
    # DDR5-class channel: narrower bus, larger rows than an HMC vault.
    channel_bus_bytes_per_dram_cycle: int = 16
    row_bytes: int = 8192
    timing: DRAMTiming = field(default_factory=DRAMTiming)

    def host_link_bytes_per_sm_cycle(self, sm_clock_mhz: float
                                     ) -> tuple[float, float]:
        scale = 1e9 / (sm_clock_mhz * 1e6)
        return (self.host_link_gbps_down * scale,
                self.host_link_gbps_up * scale)

    def fabric_bytes_per_sm_cycle(self, sm_clock_mhz: float) -> float:
        return self.fabric_gbps_per_dir * 1e9 / (sm_clock_mhz * 1e6)


@dataclass(frozen=True)
class NSUConfig:
    """Near-data-processing SIMD Unit configuration (Table 2, NDP section)."""

    clock_mhz: float = 350.0
    num_warp_slots: int = 48
    warp_width: int = 32
    # Physical SIMD lanes (Section 4.5: "the physical SIMD width of the
    # NSU can be made small while supporting larger or variable logical
    # SIMD width through temporal SIMT").  A 32-wide warp instruction
    # occupies ceil(32 / simd_width) issue slots.
    simd_width: int = 32
    icache_bytes: int = 4 * 1024
    icache_line: int = 64
    const_cache_bytes: int = 4 * 1024
    alu_latency: int = 4            # NSU cycles
    # NSU-side NDP buffers.
    read_data_entries: int = 256    # 128 B each
    write_addr_entries: int = 256   # 128 B each
    cmd_buffer_entries: int = 10
    # Optional extension (paper Section 7.1: workloads like BPROP "can
    # benefit from adding a small read-only cache to each NSU"): when
    # non-zero, RDF responses for GPU-cache hits are cached at the NSU so
    # repeat hits ship only a header instead of the data.
    ro_cache_bytes: int = 0

    def cycles_per_sm_cycle(self, sm_clock_mhz: float) -> float:
        """NSU cycles that elapse per SM cycle (<1 when NSU is slower)."""
        return self.clock_mhz / sm_clock_mhz


@dataclass(frozen=True)
class SMBufferConfig:
    """Per-SM NDP packet buffers (Section 4.1.1 / Section 7.5)."""

    pending_entries: int = 300      # 8 B each
    ready_entries: int = 64         # 8 B each
    entry_bytes: int = 8

    @property
    def storage_bytes(self) -> int:
        return (self.pending_entries + self.ready_entries) * self.entry_bytes


#: Target-NSU selection policies (see repro.core.target_select).
TARGET_POLICIES = ("first", "optimal", "coda")

#: Memory-substrate backend names; repro.memory.backend.backend_of turns
#: each into its record of device facts.
BACKEND_NAMES = ("hmc", "cxl")


class OffloadMode:
    """Named offload-decision policies evaluated in the paper."""

    OFF = "off"                  # Baseline: never offload
    NAIVE = "naive"              # Section 6: offload every block instance
    STATIC = "static"            # Section 7.1: fixed random ratio
    DYNAMIC = "dynamic"          # Section 7.2: hill-climbing ratio
    DYNAMIC_CACHE = "dynamic_cache"  # Section 7.3: + cache-locality filter

    ALL = (OFF, NAIVE, STATIC, DYNAMIC, DYNAMIC_CACHE)


@dataclass(frozen=True)
class NDPConfig:
    """Offload decision parameters (Algorithm 1 defaults from Section 7.2)."""

    mode: str = OffloadMode.OFF
    static_ratio: float = 1.0
    epoch_cycles: int = 30_000
    ratio_init: float = 0.1
    step_init: float = 0.15
    step_unit: float = 0.05
    step_min: float = 0.05
    step_max: float = 0.15
    history_window: int = 4
    seq_num_bits: int = 6           # bounds #LD/ST per offload block
    # Target-NSU selection: "first" (the paper's policy, Section 4.1.1),
    # "optimal" (the oracle alternative of Figure 5; needs unbounded
    # address buffering in real hardware, modelled here for the ablation)
    # or "coda" (CODA-style compute/data co-location: weight the block's
    # write set so compute lands with the data it will mutate).
    target_policy: str = "first"

    def __post_init__(self) -> None:
        if self.mode not in OffloadMode.ALL:
            raise ValueError(f"unknown offload mode {self.mode!r}")
        if not 0.0 <= self.static_ratio <= 1.0:
            raise ValueError("static_ratio must be in [0, 1]")
        if self.target_policy not in TARGET_POLICIES:
            raise ValueError(f"unknown target policy {self.target_policy!r}")

    @property
    def max_mem_instrs_per_block(self) -> int:
        return 2 ** self.seq_num_bits


@dataclass(frozen=True)
class SystemConfig:
    """Complete system: GPU + HMC stacks + memory network + NDP policy."""

    gpu: GPUConfig = field(default_factory=GPUConfig)
    hmc: HMCConfig = field(default_factory=HMCConfig)
    nsu: NSUConfig = field(default_factory=NSUConfig)
    sm_buffers: SMBufferConfig = field(default_factory=SMBufferConfig)
    ndp: NDPConfig = field(default_factory=NDPConfig)
    num_hmcs: int = 8
    # Memory-network links per HMC used for the hypercube (Table 2 footnote:
    # 3 links of the HMC's 4 are used for the 3D hypercube of 8 stacks).
    seed: int = 1
    # Memory substrate: "hmc" (the paper's stacks, the default) or "cxl"
    # (memory expanders; parameters in ``cxl``).  ``num_hmcs`` counts
    # devices for either substrate.  The store key strips these two
    # fields at their defaults so every pre-backend key survives
    # (see repro.sim.store.config_fingerprint).
    backend: str = "hmc"
    cxl: CXLConfig = field(default_factory=CXLConfig)

    def __post_init__(self) -> None:
        if self.num_hmcs & (self.num_hmcs - 1):
            raise ValueError("num_hmcs must be a power of two (hypercube)")
        if self.backend not in BACKEND_NAMES:
            raise ValueError(f"unknown memory backend {self.backend!r}; "
                             f"choose from {', '.join(BACKEND_NAMES)}")

    def with_mode(self, mode: str, *, static_ratio: float | None = None) -> "SystemConfig":
        """Return a copy of this config with a different offload policy."""
        ndp = replace(
            self.ndp,
            mode=mode,
            static_ratio=self.ndp.static_ratio if static_ratio is None else static_ratio,
        )
        return replace(self, ndp=ndp)

    def scaled_gpu(self, *, num_sms: int | None = None) -> "SystemConfig":
        """Return a copy with a different SM count (Baseline_MoreCore, §7.3)."""
        gpu = replace(self.gpu, num_sms=num_sms if num_sms is not None else self.gpu.num_sms)
        return replace(self, gpu=gpu)

    def with_nsu_clock(self, clock_mhz: float) -> "SystemConfig":
        """Return a copy with a different NSU frequency (§7.6)."""
        return replace(self, nsu=replace(self.nsu, clock_mhz=clock_mhz))

    def with_ro_cache(self, nbytes: int) -> "SystemConfig":
        """Return a copy with the optional NSU read-only cache (§7.1)."""
        return replace(self, nsu=replace(self.nsu, ro_cache_bytes=nbytes))

    def with_nsu_simd_width(self, width: int) -> "SystemConfig":
        """Return a copy with a narrower NSU datapath (temporal SIMT,
        §4.5)."""
        return replace(self, nsu=replace(self.nsu, simd_width=width))

    def with_target_policy(self, policy: str) -> "SystemConfig":
        """Return a copy using "first", "optimal" or "coda" target
        selection."""
        return replace(self, ndp=replace(self.ndp, target_policy=policy))

    def with_backend(self, name: str) -> "SystemConfig":
        """Return a copy on a different memory substrate ("hmc"/"cxl")."""
        return replace(self, backend=name)


def paper_config(mode: str = OffloadMode.OFF, **kwargs) -> SystemConfig:
    """The full Table 2 configuration: 64 SMs, 8 HMCs."""
    cfg = SystemConfig(num_hmcs=8)
    cfg = cfg.with_mode(mode, **kwargs)
    return cfg


def ci_config(mode: str = OffloadMode.OFF, **kwargs) -> SystemConfig:
    """A scaled-down configuration for fast tests: 16 SMs, 2 HMCs.

    The GPU:NSU ratio (8 SMs per stack) and the per-link bandwidths are
    kept identical to the paper configuration so the qualitative
    behaviour (GPU bandwidth bottleneck, NSU saturation under naive
    offload) is preserved at the smaller scale.
    """
    gpu = GPUConfig(num_sms=16, num_links=2)
    cfg = SystemConfig(gpu=gpu, num_hmcs=2)
    cfg = cfg.with_mode(mode, **kwargs)
    return cfg


def onchip_storage_bytes(cfg: SystemConfig) -> int:
    """Total per-GPU on-chip storage used for the §7.5 overhead ratio.

    Counts per-SM L1I + L1D + scratchpad + constant + texture caches plus
    the shared L2 (the storage classes the paper enumerates).
    """
    per_sm = (cfg.gpu.l1i.size_bytes + cfg.gpu.l1d.size_bytes
              + cfg.gpu.scratchpad_bytes + cfg.gpu.const_cache_bytes
              + cfg.gpu.tex_cache_bytes)
    return cfg.gpu.num_sms * per_sm + cfg.gpu.l2.size_bytes
