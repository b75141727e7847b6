"""The paper's contribution: partitioned-execution NDP without an MMU on
the memory stack.

Modules
-------
packets
    Offload packet formats and size accounting (Figure 4).
credit
    Credit-based NSU buffer management / deadlock prevention (Section 4.3).
buffers
    NSU-side read-data, write-address and command buffers (Section 4.1.2).
target_select
    Target-NSU selection policies and the Figure 5 study.
nsu
    The Near-data-processing SIMD Unit (Section 4.5).
offload
    GPU-side NDP controller: OFLD.BEG/END semantics, RDF/WTA generation,
    cache probing, ACK delivery (Section 4.1.1).
decision
    Offload decision policies: naive, static ratio, hill-climbing dynamic
    ratio (Algorithm 1), cache-locality-aware filtering (Section 7.3).
coherence
    Cache-invalidation-based coherence and dynamic-memory-management
    guards (Sections 4.2 and 4.1.1).
"""

from repro.core.packets import PacketSizes
from repro.core.credit import BufferCreditManager, Reservation
from repro.core.buffers import NDPBuffer
from repro.core.target_select import (
    first_instr_target,
    optimal_target,
    target_policy_traffic_study,
)
from repro.core.decision import (
    AlwaysOffload,
    CacheLocalityTracker,
    HillClimbingController,
    NeverOffload,
    StaticRatioDecider,
    DynamicDecider,
    make_decider,
)

__all__ = [
    "PacketSizes",
    "BufferCreditManager",
    "Reservation",
    "NDPBuffer",
    "first_instr_target",
    "optimal_target",
    "target_policy_traffic_study",
    "AlwaysOffload",
    "NeverOffload",
    "StaticRatioDecider",
    "DynamicDecider",
    "HillClimbingController",
    "CacheLocalityTracker",
    "make_decider",
]
