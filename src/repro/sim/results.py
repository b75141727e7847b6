"""Result records produced by a simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class StallBreakdown:
    """Per-GPU no-issue-cycle classification (paper Figure 8).

    One SM-cycle with no instruction issued is attributed to exactly one
    category:

    * ``exec_unit_busy`` -- a warp had a ready instruction but the execution
      unit / memory pipeline could not accept it (MSHR full, NDP packet
      buffer full, port conflict).
    * ``dependency_stall`` -- every otherwise-runnable warp was waiting for
      an operand (cache/DRAM access in flight, ALU latency).
    * ``warp_idle`` -- no warp had a valid instruction to issue: empty warp
      slot, finished warp, or a warp blocked at ``OFLD.END`` waiting for the
      offload acknowledgment (the dominant NaiveNDP effect).
    """

    exec_unit_busy: int = 0
    dependency_stall: int = 0
    warp_idle: int = 0

    @property
    def total(self) -> int:
        return self.exec_unit_busy + self.dependency_stall + self.warp_idle

    def merged(self, other: "StallBreakdown") -> "StallBreakdown":
        return StallBreakdown(
            self.exec_unit_busy + other.exec_unit_busy,
            self.dependency_stall + other.dependency_stall,
            self.warp_idle + other.warp_idle,
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "ExecUnitBusy": self.exec_unit_busy,
            "DependencyStall": self.dependency_stall,
            "WarpIdle": self.warp_idle,
        }


@dataclass
class TrafficBytes:
    """Byte counts by traffic class."""

    gpu_link: int = 0       # GPU off-chip links (both directions)
    mem_net: int = 0        # inter-HMC memory network
    intra_hmc: int = 0      # logic-layer NoC between I/O, vaults and NSU
    invalidations: int = 0  # subset of gpu_link used by INV packets (§4.2)

    def as_dict(self) -> dict[str, int]:
        return {
            "gpu_link": self.gpu_link,
            "mem_net": self.mem_net,
            "intra_hmc": self.intra_hmc,
            "invalidations": self.invalidations,
        }


@dataclass
class RunResult:
    """Everything a single simulation run reports."""

    workload: str
    config_name: str
    cycles: int
    instructions: int            # warp-instructions retired on the GPU
    nsu_instructions: int        # warp-instructions retired on NSUs
    warps_completed: int
    stalls: StallBreakdown
    traffic: TrafficBytes
    dram_activations: int
    dram_reads: int              # bytes
    dram_writes: int             # bytes
    l1_hits: int = 0
    # Misses count lookup attempts, not lines: every MSHR-full structural
    # retry is one more (the L1's include the ones replay_struct_rejects
    # settles for parked SMs; an L2 request that parks counts again when
    # it leaves the miss queue).
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0           # attempts, like l1_misses
    rdf_packets: int = 0
    rdf_cache_hits: int = 0
    offloads_issued: int = 0
    offloads_suppressed: int = 0
    blocks_total: int = 0        # offload-block instances encountered
    nsu_occupancy_sum: float = 0.0   # sum over NSU-cycles of busy warp slots
    nsu_cycles: int = 0
    nsu_icache_lines_touched: int = 0
    nsu_icache_lines_total: int = 0
    gpu_alu_ops: int = 0
    nsu_alu_ops: int = 0
    l1_accesses: int = 0
    l2_accesses: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """GPU-side instructions per cycle (the paper's performance metric
        normalizes runtime; at fixed work 1/cycles and IPC rank equally)."""
        return self.instructions / max(1, self.cycles)

    @property
    def avg_nsu_occupancy(self) -> float:
        """Average busy warp slots per NSU cycle (Figure 11)."""
        return self.nsu_occupancy_sum / max(1, self.nsu_cycles)

    @property
    def nsu_icache_utilization(self) -> float:
        """Fraction of NSU I-cache lines ever touched (Figure 11)."""
        return self.nsu_icache_lines_touched / max(1, self.nsu_icache_lines_total)

    @property
    def invalidation_overhead(self) -> float:
        """INV bytes as a fraction of all GPU off-chip traffic (§4.2)."""
        return self.traffic.invalidations / max(1, self.traffic.gpu_link)

    def speedup_over(self, baseline: "RunResult") -> float:
        """Runtime speedup vs. a baseline run of the same workload."""
        if self.workload != baseline.workload:
            raise ValueError("speedup comparison across different workloads")
        return baseline.cycles / max(1, self.cycles)
