"""Streaming Multiprocessor model: warp slots, greedy-then-oldest issue,
scoreboard dependency tracking, and Figure 8 no-issue-cycle accounting.

The SM issues at most one warp-instruction per cycle.  Offload block
instances expand into either their original code (inline) or the
partitioned GPU-side code (Figure 3(a)); the NDP controller object wired in
by the system performs packet generation, buffer reservation and cache
probing for the offload path.

Interfaces expected from the system:

* ``memsys.load(sm, replay) -> bool`` -- baseline/inline load: sends
  the :class:`_MemReplay`'s lines from its first unsent one until the
  L1 MSHR file rejects one; ``False`` means that structural reject, and
  the load retries next cycle from the rejected line.  Each sent line
  completes through ``replay.line_done``.
* ``memsys.store(sm, access)`` -- write-through store of one line; it
  always goes out (no MSHR), so a store never retries.
* ``ndp.start_block / rdf / wta / end_block`` -- partitioned execution
  (absent in pure-baseline systems).
* ``decider.decide(sm_id, dynblock) -> bool`` -- the offload decision.
"""

from __future__ import annotations

from collections import deque

from repro.gpu.trace import DynBlock
from repro.gpu.warp import INFLIGHT, Warp, WarpState
from repro.isa.instructions import Opcode
from repro.sim.engine import Engine
from repro.sim.results import StallBreakdown

#: Maximum scheduler attempts per cycle before declaring a no-issue cycle.
MAX_ISSUE_ATTEMPTS = 4

#: SFU (transcendental) latency in SM cycles.
SFU_LATENCY = 16
#: Scratchpad access latency in SM cycles.
SHMEM_LATENCY = 24


class SM:
    """One streaming multiprocessor with a greedy-then-oldest (GTO) warp
    scheduler, the GPGPU-sim default the paper inherits."""

    def __init__(self, engine: Engine, sm_id: int, *, warps_per_sm: int,
                 alu_latency: int, max_inflight_loads: int,
                 memsys, ndp=None, decider=None) -> None:
        self.engine = engine
        self.sm_id = sm_id
        self.warps_per_sm = warps_per_sm
        self.alu_latency = alu_latency
        self.max_inflight_loads = max_inflight_loads
        self.memsys = memsys
        self.ndp = ndp
        self.decider = decider

        # Active-set scheduling hook: ``System.run`` installs a callback
        # here and every external wake path (fill, timed dep release,
        # offload ACK, recovery fallback) reports through it BEFORE
        # mutating warp state, so lazily-deferred idle accounting is settled
        # against the still-frozen pre-wake state (invariant I1 in
        # docs/performance.md).  ``None`` outside a run.
        self.waker = None

        self.pending_traces: deque = deque()
        self.warps: list[Warp] = []
        self._next_wid = 0
        # Ready "set": insertion-ordered dict wid -> Warp.  Warps here have
        # an issuable (or structurally-rejected) instruction.
        self.ready: dict[int, Warp] = {}
        self.dep_count = 0
        self.current: Warp | None = None    # greedy-then-oldest anchor

        # Per-load replay state (partial structural rejects).
        self._replays: dict[int, "_MemReplay"] = {}
        # Retry cost recorded by the last issue pass (see _issue).
        self._retry_cost: int | None = None

        # Statistics.
        self.stalls = StallBreakdown()
        self.instructions = 0            # baseline-equivalent work retired
        self.block_instrs_retired = 0    # offload-block work (Algorithm 1)
        self.alu_ops = 0
        self.warps_completed = 0
        self.offloads = 0
        self.inlines = 0

    # -- workload assignment --------------------------------------------------

    def assign(self, traces) -> None:
        self.pending_traces.extend(traces)

    def _launch(self) -> None:
        while (len(self.warps) < self.warps_per_sm and self.pending_traces):
            trace = self.pending_traces.popleft()
            warp = Warp(self, self._next_wid, trace)
            self._next_wid += 1
            self.warps.append(warp)
            self.ready[warp.wid] = warp

    @property
    def live_warps(self) -> int:
        return len(self.warps)

    @property
    def done(self) -> bool:
        return not self.warps and not self.pending_traces

    # -- wake/block plumbing --------------------------------------------------

    def wake_warp(self, warp: Warp) -> None:
        if self.waker is not None:
            self.waker(self)
        if warp.state is WarpState.DEP:
            self.dep_count -= 1
        warp.state = WarpState.READY
        self.ready.setdefault(warp.wid, warp)

    def _block_dep(self, warp: Warp, reg: int, ready_at: int) -> None:
        self.ready.pop(warp.wid, None)
        warp.block_on_reg(reg)
        self.dep_count += 1
        if ready_at != INFLIGHT:
            self.engine.call_at(ready_at, self._timed_wake, warp, reg)

    def _timed_wake(self, warp: Warp, reg: int) -> None:
        if warp.state is WarpState.DEP and warp.waiting_reg == reg:
            warp.waiting_reg = None
            self.wake_warp(warp)

    def _finish_warp(self, warp: Warp) -> None:
        self.ready.pop(warp.wid, None)
        warp.state = WarpState.DONE
        self.warps.remove(warp)
        self.warps_completed += 1
        if self.current is warp:
            self.current = None

    # -- per-cycle tick ---------------------------------------------------------

    def tick(self) -> bool:
        """Attempt one issue slot; returns True if an instruction issued."""
        if self.pending_traces and len(self.warps) < self.warps_per_sm:
            self._launch()
        issued = self._issue()
        if not issued:
            self._classify_no_issue(1)
        return issued

    def _issue(self) -> bool:
        """Try up to ``MAX_ISSUE_ATTEMPTS`` ready warps: the current one
        first (GTO), then the ready set in insertion order.

        The pass records in ``_retry_cost`` what the next cycle's pass
        will cost: 1 per ``"mshr_full"`` attempt (an L1 miss + an MSHR
        reject), 0 per ``"cap_spin"``, and ``None`` if any attempt had
        another outcome, an issue included.  Exact, because only engine
        events, which fire ``waker`` first, can change a retry's outcome
        (docs/performance.md).
        """
        retries = 0
        clean = True
        attempts = 0
        cur = self.current
        if cur is not None and cur.wid in self.ready:
            status = self._try_issue(cur)
            if status == "issued":
                self._retry_cost = None
                return True
            if status == "mshr_full":
                retries += 1
            elif status != "cap_spin":
                clean = False
            attempts += 1
        for wid in list(self.ready):
            if attempts >= MAX_ISSUE_ATTEMPTS:
                break
            warp = self.ready.get(wid)
            if warp is None or warp is cur:
                continue
            status = self._try_issue(warp)
            attempts += 1
            if status == "issued":
                self.current = warp
                self._retry_cost = None
                return True
            if status == "mshr_full":
                retries += 1
            elif status != "cap_spin":
                clean = False
        self._retry_cost = retries if clean else None
        return False

    def _classify_no_issue(self, cycles: int) -> None:
        """Attribute ``cycles`` no-issue cycles to one Figure 8 category."""
        if self.ready:
            self.stalls.exec_unit_busy += cycles
        elif self.dep_count > 0:
            self.stalls.dependency_stall += cycles
        elif self.warps or self.pending_traces:
            self.stalls.warp_idle += cycles
        # A fully drained SM contributes no no-issue cycles.

    def classify_idle_bulk(self, cycles: int) -> None:
        """Used by the system when fast-forwarding over quiet regions."""
        self._classify_no_issue(cycles)

    @property
    def pending_replays(self) -> int:
        """Number of loads currently mid-replay (line requests spanning
        several issue attempts).  Must be zero at end of simulation."""
        return len(self._replays)

    @property
    def can_issue_now(self) -> bool:
        return bool(self.ready) or (
            bool(self.pending_traces) and len(self.warps) < self.warps_per_sm)

    # -- structural-reject parking (System.run) -------------------------------

    def struct_park_probe(self) -> int | None:
        """The retry cost :meth:`_issue` recorded: ``System.run`` asks
        after a tick that issued nothing, and on a number parks the SM
        and replays that many L1 misses + MSHR rejects per elided cycle
        on wake (docs/performance.md)."""
        return self._retry_cost

    def metrics_snapshot(self) -> dict:
        """Counters/gauges published into the metrics registry."""
        return {
            "live_warps": len(self.warps),
            "ready_warps": len(self.ready),
            "pending_traces": len(self.pending_traces),
            "instructions": self.instructions,
            "offloads": self.offloads,
            "inlines": self.inlines,
            "stall_exec_unit_busy": self.stalls.exec_unit_busy,
            "stall_dependency": self.stalls.dependency_stall,
            "stall_warp_idle": self.stalls.warp_idle,
        }

    # -- instruction execution ---------------------------------------------------

    def _try_issue(self, warp: Warp) -> str:
        """One attempt: ``"issued"``, ``"blocked"``, ``"done"``, the
        offload path's ``"struct"``, or a load's ``"mshr_full"`` (L1
        MSHR file full) or ``"cap_spin"`` (per-warp inflight cap).

        A warp with a load mid-replay retries only that load.  The walk
        below would reach the same replay with no side effect on the
        way: the warp's block mode is already set, and its sources were
        ready when the replay began and only its own issues change
        them.  Once the last line is out, the walk commits the load."""
        replay = self._replays.get(warp.wid)
        if replay is not None and not self.memsys.load(self, replay):
            return "mshr_full"
        item = warp.current_item()
        if item is None:
            self._finish_warp(warp)
            return "done"
        if isinstance(item, DynBlock):
            return self._issue_block(warp, item)
        return self._issue_normal(warp, item.instr, item.accesses)

    # ............ offload block handling ............

    def _issue_block(self, warp: Warp, item: DynBlock) -> str:
        if warp.mode is None:
            offload = (self.ndp is not None and self.decider is not None
                       and self.decider.decide(self.sm_id, item))
            if warp.force_inline:
                # Recovery fallback: re-execute this block inline once.
                warp.force_inline = False
                offload = False
            if offload:
                inst = self.ndp.start_block(self, warp, item)
                if inst is None:
                    return "struct"        # pending buffer / credits
                warp.offload_instance = inst
                warp.enter_block("offload")
                warp.sub_pc = 1            # OFLD.BEG consumed this slot
                self.offloads += 1
                return "issued"
            warp.enter_block("inline")
            self.inlines += 1
            # Fall through: the first inline instruction issues this cycle.
        if warp.mode == "inline":
            return self._issue_inline(warp, item)
        return self._issue_offload(warp, item)

    def _issue_inline(self, warp: Warp, item: DynBlock) -> str:
        instrs = item.block.instrs
        instr = instrs[warp.sub_pc]
        accesses = (item.mem_accesses[warp.mem_seq]
                    if instr.is_mem else ())
        status = self._exec_instr(warp, instr, accesses)
        if status != "issued":
            return status
        if instr.is_mem:
            warp.mem_seq += 1
        warp.sub_pc += 1
        if warp.sub_pc >= len(instrs):
            self.block_instrs_retired += len(instrs)
            warp.exit_block()
        return "issued"

    def _issue_offload(self, warp: Warp, item: DynBlock) -> str:
        gpu_code = item.block.gpu_code
        g = gpu_code[warp.sub_pc]
        inst = warp.offload_instance
        if g.kind == "rdf" or g.kind == "wta":
            # Only the address register gates packet generation; the data
            # register (for stores) lives on the NSU.
            addr_reg = g.instr.addr_src
            if addr_reg is not None:
                ready_at = warp.reg_ready.get(addr_reg, 0)
                if ready_at > self.engine.now:
                    self._block_dep(warp, addr_reg, ready_at)
                    return "blocked"
            accesses = item.mem_accesses[warp.mem_seq]
            ok = (self.ndp.rdf(inst, accesses) if g.kind == "rdf"
                  else self.ndp.wta(inst, accesses))
            if not ok:
                return "struct"
            warp.mem_seq += 1
        elif g.kind == "addr_alu":
            ready_at = warp.srcs_ready_at(g.instr.reads)
            if ready_at > self.engine.now:
                self._block_dep(warp, self._unready_reg(warp, g.instr.reads),
                                ready_at)
                return "blocked"
            warp.set_reg_ready(g.instr.dst, self.engine.now + self.alu_latency)
            self.alu_ops += 1
        elif g.kind == "nop":
            pass
        elif g.kind == "end":
            self.ndp.end_block(inst)
            self.ready.pop(warp.wid, None)
            warp.state = WarpState.ACK
            return "issued"
        else:  # pragma: no cover - beg handled in _issue_block
            raise AssertionError(f"unexpected GPU-side op {g.kind}")
        warp.sub_pc += 1
        return "issued"

    def fallback_inline(self, warp: Warp) -> None:
        """Recovery gave up on the warp's current offload block: rewind
        the block-expansion state and re-issue it inline.  The warp may be
        parked in ACK (at OFLD.END) or still mid-emission; either way the
        block restarts from its first instruction."""
        if self.waker is not None:
            self.waker(self)
        item = warp.current_item()
        assert isinstance(item, DynBlock) and warp.mode == "offload"
        warp.offload_instance = None
        warp.mode = None
        warp.sub_pc = 0
        warp.mem_seq = 0
        warp.force_inline = True
        if warp.state is WarpState.ACK:
            warp.state = WarpState.READY
            self.ready.setdefault(warp.wid, warp)

    def complete_offload(self, warp: Warp) -> None:
        """ACK arrived: live-out registers are in, the warp resumes."""
        if self.waker is not None:
            self.waker(self)
        item = warp.current_item()
        assert isinstance(item, DynBlock) and warp.state is WarpState.ACK
        now = self.engine.now
        for reg in item.block.ret_regs:
            warp.set_reg_ready(reg, now)
        n = len(item.block.instrs)
        self.block_instrs_retired += n
        self.instructions += n
        warp.exit_block()
        warp.state = WarpState.READY
        self.ready.setdefault(warp.wid, warp)

    # ............ ordinary instructions ............

    @staticmethod
    def _unready_reg(warp: Warp, regs) -> int:
        now_ready = warp.reg_ready
        worst_reg, worst_t = regs[0], -1
        for r in regs:
            t = now_ready.get(r, 0)
            if t > worst_t:
                worst_reg, worst_t = r, t
        return worst_reg

    def _issue_normal(self, warp: Warp, instr, accesses) -> str:
        status = self._exec_instr(warp, instr, accesses)
        if status == "issued":
            warp.advance()
        return status

    def _exec_instr(self, warp: Warp, instr, accesses) -> str:
        now = self.engine.now
        op = instr.op
        reads = instr.reads
        if reads:
            ready_at = warp.srcs_ready_at(reads)
            if ready_at > now:
                self._block_dep(warp, self._unready_reg(warp, reads), ready_at)
                return "blocked"

        if op is Opcode.LD:
            return self._exec_load(warp, instr, accesses)
        if op is Opcode.ST:
            return self._exec_store(warp, instr, accesses)

        if op is Opcode.ALU:
            lat = self.alu_latency
            self.alu_ops += 1
        elif op is Opcode.SFU:
            lat = SFU_LATENCY
            self.alu_ops += 1
        elif op in (Opcode.SHMEM_LD, Opcode.SHMEM_ST):
            lat = SHMEM_LATENCY
        else:   # SYNC, BRANCH, NOP: single-slot, no register effect
            lat = 0
        if instr.dst is not None and lat:
            warp.set_reg_ready(instr.dst, now + lat)
        self.instructions += 1
        return "issued"

    def _exec_load(self, warp: Warp, instr, accesses) -> str:
        if not accesses:
            # Fully-masked access degenerates to a register write.
            warp.set_reg_ready(instr.dst, self.engine.now + self.alu_latency)
            self.instructions += 1
            return "issued"
        # A replay here has sent its last line (``_try_issue``).
        replay = self._replays.pop(warp.wid, None)
        if replay is None:
            if warp.inflight_loads >= self.max_inflight_loads:
                return "cap_spin"
            replay = _MemReplay(warp, instr.dst, accesses)
            warp.inflight_loads += 1
            if not self.memsys.load(self, replay):
                self._replays[warp.wid] = replay
                return "mshr_full"
        # All line requests of this load are out.
        replay.commit()
        self.instructions += 1
        return "issued"

    def _exec_store(self, warp: Warp, instr, accesses) -> str:
        for acc in accesses:
            self.memsys.store(self, acc)
        self.instructions += 1
        return "issued"


class _MemReplay:
    """Replay state of one load whose line requests span several attempts.

    Structural rejects (MSHR full) can interrupt a divergent load midway;
    ``sent`` indexes the first line not yet sent and ``outstanding``
    counts sent lines still in flight, so retries neither duplicate
    requests nor lose responses.  The memory system sends the lines
    (``GPUMemSystem.load``) and completes each one with
    :meth:`line_done`: an L1 hit as the event's argument, a miss from
    the L1 MSHR entry the replay waits in.
    """

    __slots__ = ("warp", "dst", "accesses", "sent", "outstanding",
                 "committed")

    def __init__(self, warp: Warp, dst: int, accesses) -> None:
        self.warp = warp
        self.dst = dst
        self.accesses = accesses
        self.sent = 0
        self.outstanding = 0
        self.committed = False

    def commit(self) -> None:
        self.committed = True
        if self.outstanding == 0:
            self._finish()
        else:
            self.warp.mark_inflight(self.dst)

    def line_done(self) -> None:
        self.outstanding -= 1
        if self.committed and self.outstanding == 0:
            self._finish()

    def _finish(self) -> None:
        warp = self.warp
        sm = warp.sm
        # Wake the SM before any mutation (invariant I1): an inflight-cap
        # slot is about to free, and a warp spinning on the cap sits in
        # READY state -- its release does NOT funnel through wake_warp
        # (resolve_reg only wakes DEP-blocked warps), so a struct-parked
        # SM would otherwise sleep through it.  Spurious wakes (own-tick
        # commit path, active SM) are no-ops by design.
        if sm.waker is not None:
            sm.waker(sm)
        warp.inflight_loads -= 1
        warp.resolve_reg(self.dst, sm.engine.now)
