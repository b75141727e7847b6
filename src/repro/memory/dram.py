"""DRAM bank timing in SM-cycle units.

The Table 2 timing parameters are specified in DRAM cycles (tCK = 1.5 ns);
this module converts them once into SM cycles (1.4286 ns at 700 MHz) and
tracks per-bank row-buffer state.  The model is the standard simplified
open-page model:

* row hit       : tCL + burst
* row conflict  : tRP + tRCD + tCL + burst   (precharge the open row first)
* row closed    : tRCD + tCL + burst         (bank idle, just activate)

Writes replace tCL with the write latency and hold the bank for tWR after
the burst.  tRAS lower-bounds the activate-to-precharge window; tCCD gates
back-to-back column commands on the shared vault data bus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import DRAMTiming, LINE_SIZE


@dataclass(frozen=True, slots=True)
class DRAMTimingSM:
    """Table 2 timing converted to integer SM cycles."""

    tRP: int
    tRCD: int
    tCL: int
    tWR: int
    tRAS: int
    tCCD: int
    burst: int   # cycles to move one cache line over the vault bus
    tREFI: int = 0   # refresh interval (0 = refresh disabled)
    tRFC: int = 0    # refresh cycle time (all banks blocked)

    @classmethod
    def from_config(cls, timing: DRAMTiming, sm_clock_mhz: float,
                    bus_bytes_per_dram_cycle: int) -> "DRAMTimingSM":
        scale = timing.tck_ns * sm_clock_mhz * 1e-3  # SM cycles per DRAM cycle
        conv = lambda c: max(1, math.ceil(c * scale))
        burst_dram = math.ceil(LINE_SIZE / bus_bytes_per_dram_cycle)
        return cls(
            tRP=conv(timing.tRP),
            tRCD=conv(timing.tRCD),
            tCL=conv(timing.tCL),
            tWR=conv(timing.tWR),
            tRAS=conv(timing.tRAS),
            tCCD=conv(timing.tCCD),
            burst=conv(burst_dram),
            tREFI=conv(timing.tREFI) if timing.tREFI else 0,
            tRFC=conv(timing.tRFC) if timing.tRFC else 0,
        )


class BankState:
    """Row-buffer and busy-horizon state of one DRAM bank."""

    __slots__ = ("open_row", "busy_until", "activated_at")

    def __init__(self) -> None:
        self.open_row: int | None = None
        self.busy_until: int = 0
        self.activated_at: int = -(10 ** 9)

    def access(self, row: int, is_write: bool, now: int,
               t: DRAMTimingSM) -> tuple[int, bool]:
        """Perform an access; returns (data_ready_cycle, activated).

        The caller guarantees ``now >= busy_until``, so the access
        starts at ``now``.
        """
        start = now
        activated = False
        if self.open_row == row:
            latency = t.tCL
        else:
            if self.open_row is not None:
                # Respect tRAS before the implicit precharge.
                start = max(start, self.activated_at + t.tRAS)
                latency = t.tRP + t.tRCD + t.tCL
            else:
                latency = t.tRCD + t.tCL
            activated = True
            self.activated_at = start + (t.tRP if self.open_row is not None else 0)
            self.open_row = row
        ready = start + latency + t.burst
        recovery = t.tWR if is_write else 0
        self.busy_until = ready + recovery
        return ready, activated
