"""Warp execution state.

A warp walks its dynamic trace one instruction per issue slot.  Offload
block instances (:class:`~repro.gpu.trace.DynBlock`) expand on the fly into
either the original instruction sequence ("inline") or the partitioned
GPU-side sequence ("offload", Figure 3(a)); in the latter case the warp
blocks at ``OFLD.END`` until the NSU's acknowledgment arrives (the SM keeps
issuing other warps meanwhile -- Section 4.1.1).

Register dependencies use a scoreboard-style map ``reg -> ready_cycle``;
in-flight loads use an "infinite" sentinel resolved by the memory response
callback.
"""

from __future__ import annotations

import enum

from repro.gpu.trace import WarpTrace

#: Sentinel ready-cycle for registers whose producer completion time is
#: unknown (outstanding loads, offload ACKs).
INFLIGHT = 1 << 60


class WarpState(enum.Enum):
    READY = "ready"        # has an issuable instruction (may still be
                           # rejected structurally this cycle)
    DEP = "dep"            # waiting on a source register
    ACK = "ack"            # blocked at OFLD.END for the NSU acknowledgment
    DONE = "done"          # trace exhausted


class Warp:
    """Dynamic state of one warp resident on an SM."""

    __slots__ = (
        "sm", "wid", "trace", "pc", "state",
        "mode", "sub_pc", "mem_seq",
        "reg_ready", "inflight_loads", "waiting_reg",
        "offload_instance", "force_inline",
    )

    def __init__(self, sm, wid: int, trace: WarpTrace) -> None:
        self.sm = sm
        self.wid = wid
        self.trace = trace
        self.pc = 0
        self.state = WarpState.READY
        # Block-expansion state: mode is None (between items), "inline",
        # or "offload"; sub_pc indexes the expanded sequence; mem_seq
        # counts memory instructions seen inside the current block.
        self.mode: str | None = None
        self.sub_pc = 0
        self.mem_seq = 0
        self.reg_ready: dict[int, int] = {}
        self.inflight_loads = 0
        self.waiting_reg: int | None = None
        self.offload_instance = None
        # One-shot recovery flag: the next block decision is forced inline
        # (set by SM.fallback_inline after an offload is abandoned).
        self.force_inline = False

    # -- trace navigation ---------------------------------------------------

    def current_item(self):
        if self.pc >= len(self.trace):
            return None
        return self.trace[self.pc]

    def enter_block(self, mode: str) -> None:
        assert self.mode is None
        self.mode = mode
        self.sub_pc = 0
        self.mem_seq = 0

    def exit_block(self) -> None:
        self.mode = None
        self.sub_pc = 0
        self.mem_seq = 0
        self.offload_instance = None
        self.pc += 1

    def advance(self) -> None:
        """Step past the current non-block instruction."""
        self.pc += 1

    # -- register scoreboard --------------------------------------------------

    def srcs_ready_at(self, regs) -> int:
        """Latest ready cycle among source registers (0 if all initial)."""
        rr = self.reg_ready
        worst = 0
        for r in regs:
            t = rr.get(r, 0)
            if t > worst:
                worst = t
        return worst

    def set_reg_ready(self, reg: int, cycle: int) -> None:
        self.reg_ready[reg] = cycle

    def mark_inflight(self, reg: int) -> None:
        self.reg_ready[reg] = INFLIGHT

    def resolve_reg(self, reg: int, now: int) -> None:
        """A pending producer (load / ACK) delivered register ``reg``."""
        self.reg_ready[reg] = now
        if self.state is WarpState.DEP and self.waiting_reg == reg:
            self.waiting_reg = None
            self.sm.wake_warp(self)

    def block_on_reg(self, reg: int) -> None:
        self.state = WarpState.DEP
        self.waiting_reg = reg

    # -- progress accounting --------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.state is WarpState.DONE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Warp(sm={getattr(self.sm, 'sm_id', '?')}, wid={self.wid}, "
                f"pc={self.pc}/{len(self.trace)}, state={self.state.value}, "
                f"mode={self.mode})")
