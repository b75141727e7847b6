"""GPU-side NDP controller: partitioned execution on the SM (Section 4.1.1).

The controller implements everything the paper adds to the GPU:

* ``OFLD.BEG``: target-NSU selection (first memory instruction's majority
  HMC), NSU buffer reservation through the credit manager, and the offload
  command packet with live-in registers;
* load instructions: RDF packet generation with a GPU cache probe -- hits
  ship the cached data to the target NSU from the GPU (no DRAM access),
  misses send the RDF to the owning HMC whose response is forwarded over
  the memory network (Figure 6(a));
* store instructions: WTA packets carrying translated addresses to the
  target NSU (Figure 6(b));
* ``OFLD.END``: parking the warp until the NSU's acknowledgment returns
  the live-out registers;
* the per-SM pending packet buffer: packets of not-yet-granted blocks wait
  on-chip, and a full buffer back-pressures the warp (ExecUnitBusy);
* NSU write routing + cache-invalidation coherence (Section 4.2) and the
  in-flight WTA counters used for dynamic memory management (Section 4.1.1);
* the protocol-recovery layer (``repro.faults``): when a fault plan with a
  recovery policy is armed, every offload instance carries an ACK watchdog.
  A block that stops making progress is retried -- its reservation is
  re-queued if it was never granted, or its NSU-side state is purged and
  every packet replayed from the SM (the GPU generated all addresses, so
  replay needs no recomputation) -- and after ``max_retries`` the block
  falls back to inline execution on the SM.  Credits are reconciled from a
  per-instance ledger whenever an instance closes or aborts, so dropped
  credit-return messages cannot wedge the manager.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from repro.config import LINE_SIZE, SystemConfig
from repro.core.credit import BufferCreditManager
from repro.core.packets import PacketSizes
from repro.core.target_select import select_target
from repro.faults.recovery import RecoveryStats
from repro.gpu.coalescer import MemAccess
from repro.memory.backend import backend_of
from repro.sim.engine import Engine


class OffloadInstance:
    """Runtime state of one offloaded block instance."""

    __slots__ = ("uid", "sm", "warp", "item", "block", "target",
                 "granted", "deferred", "pending_packets", "next_seq",
                 "rdf_packets", "rdf_hits", "gpu_end_reached", "ack_arrived",
                 "active_threads", "start_cycle",
                 # recovery state (inert unless a recovery policy is armed)
                 "attempt", "retries", "completed", "held", "reservation",
                 "wd_token", "progress_sig")

    def __init__(self, uid, sm, warp, item, target: int) -> None:
        self.uid = uid
        self.sm = sm
        self.warp = warp
        self.item = item
        self.block = item.block
        self.target = target
        self.granted = False
        self.deferred: list[tuple[Callable, object]] = []   # (fn, arg)
        self.pending_packets = 0
        self.next_seq = 0
        self.rdf_packets = 0
        self.rdf_hits = 0
        self.gpu_end_reached = False
        self.ack_arrived = False
        self.active_threads = item.active_threads
        self.start_cycle = 0
        self.attempt = 0           # bumped per abort; stales old packets
        self.retries = 0
        self.completed = False
        self.held = None           # [cmd, read_data, write_addr] ledger
        self.reservation = None
        self.wd_token = 0
        self.progress_sig = None


class _ReadForward:
    """One RDF packet (Figure 6(a)), from the SM to the target NSU's read
    buffer.  A miss crosses the GPU link to the ``owner`` stack, reads
    its vault and is forwarded to the target; a GPU cache hit ships the
    data (or, with the NSU read-only cache, a header) straight to the
    target, and records the target as its owner.

    Each stage is a method that rides its event as the event's argument
    or as a bound method, as :class:`~repro.network.fabric._HopWalk`
    does for network hops, so the chain builds no closure.
    """

    __slots__ = ("ctl", "inst", "attempt", "key", "seq", "words", "line",
                 "owner", "target", "cacheable_line")

    def __init__(self, ctl: NDPController, inst: OffloadInstance,
                 attempt: int, key: tuple, seq: int, words: int, line: int,
                 owner: int, cacheable_line: int | None = None) -> None:
        self.ctl = ctl
        self.inst = inst
        self.attempt = attempt
        self.key = key
        self.seq = seq
        self.words = words
        self.line = line
        self.owner = owner
        self.target = inst.target
        self.cacheable_line = cacheable_line

    def at_owner(self) -> None:
        """The request reached the owning stack: read the line."""
        self.ctl.hmcs[self.owner].access_line(
            self.line, False, self.on_read, noc_bytes=LINE_SIZE)

    def on_read(self, req) -> None:
        """DRAM completion: forward the touched words to the target."""
        ctl = self.ctl
        owner, target = self.owner, self.target
        resp = PacketSizes.rdf_response(self.words)
        if ctl.trace is not None:
            ctl.trace.record(ctl.engine.now, "RDF_RESP", f"hmc{owner}",
                             f"hmc{target}", resp, self.inst.uid,
                             f"seq {self.seq}")
        if owner == target:
            if ctl._noc:
                ctl.hmcs[target].noc_bytes += resp
            ctl.engine.call_after(ctl._hop_latency, _ReadForward.deliver,
                                  self)
        else:
            ctl.network.send(owner, target, resp, self.deliver)

    def deliver(self) -> None:
        self.ctl._deliver_read(self)


class _WriteAddress:
    """One WTA packet (Figure 6(b)): a translated store address on its
    way to the target NSU, counted in ``wta_inflight`` until the write it
    announces is invalidated or the packet dies."""

    __slots__ = ("ctl", "inst", "attempt", "key", "acc", "owner")

    def __init__(self, ctl: NDPController, inst: OffloadInstance,
                 attempt: int, key: tuple, acc: MemAccess,
                 owner: int) -> None:
        self.ctl = ctl
        self.inst = inst
        self.attempt = attempt
        self.key = key
        self.acc = acc
        self.owner = owner

    def deliver(self) -> None:
        self.ctl._deliver_wta(self)

    def lost(self) -> None:
        ctl = self.ctl
        ctl.rstats.wta_lost += 1
        ctl._dec_wta_inflight(self.owner)


class _NDPWrite:
    """One NSU store routed to its owning vault (Section 4.1.2): the
    write, the cache invalidation it sends the GPU (Section 4.2), and the
    write acknowledgment back to the NSU."""

    __slots__ = ("ctl", "nsu", "warp", "line", "owner", "size")

    def __init__(self, ctl: NDPController, nsu, warp, line: int, owner: int,
                 size: int) -> None:
        self.ctl = ctl
        self.nsu = nsu
        self.warp = warp
        self.line = line
        self.owner = owner
        self.size = size

    def at_owner(self) -> None:
        self.ctl.hmcs[self.owner].access_line(
            self.line, True, self.written, noc_bytes=self.size)

    def written(self, req) -> None:
        ctl = self.ctl
        nsu = self.nsu
        ctl._send_invalidation(self)
        for peer in ctl.nsus:
            peer.ro_invalidate(self.line)
        if self.owner == nsu.hmc_id:
            nsu.write_done(self.warp)
        else:
            ctl.network.send(self.owner, nsu.hmc_id,
                             PacketSizes.write_ack(), self.acked,
                             lost=ctl._write_ack_lost)

    def acked(self) -> None:
        self.nsu.write_done(self.warp)

    def lost(self) -> None:
        ctl = self.ctl
        ctl.rstats.writes_lost += 1
        ctl._dec_wta_inflight(self.owner)

    def invalidate(self) -> None:
        """The INV reached the GPU."""
        ctl = self.ctl
        ctl.memsys.invalidate(self.line)
        ctl._dec_wta_inflight(self.owner)

    def inv_lost(self) -> None:
        ctl = self.ctl
        ctl.rstats.invs_lost += 1
        ctl._dec_wta_inflight(self.owner)


@dataclass
class NDPStats:
    offloads: int = 0
    acks: int = 0
    rdf_packets: int = 0
    rdf_hits: int = 0
    wta_packets: int = 0
    ndp_writes: int = 0
    invalidations_sent: int = 0
    pending_peak: int = 0
    pending_rejects: int = 0

    def packet_counts(self) -> dict[str, int]:
        """Packet counts keyed by the MessageTrace kind names."""
        return {
            "CMD": self.offloads,
            "ACK": self.acks,
            "RDF": self.rdf_packets - self.rdf_hits,
            "RDF_HIT_RESP": self.rdf_hits,
            "WTA": self.wta_packets,
            "WRITE": self.ndp_writes,
            "INV": self.invalidations_sent,
        }


class NDPController:
    """One controller per GPU; owns the credit manager and packet plumbing."""

    def __init__(self, engine: Engine, cfg: SystemConfig, *, amap, memsys,
                 gpu_links, network, hmcs, decider=None) -> None:
        self.engine = engine
        self.cfg = cfg
        self.amap = amap
        self.memsys = memsys
        self.gpu_links = gpu_links
        self.network = network
        self.hmcs = hmcs
        self.decider = decider
        # Substrate facts: the device queue depth, and the NoC charge and
        # latency of a device-local response hop.
        be = backend_of(cfg)
        self._noc = be.noc
        self._hop_latency = be.hop_latency
        self._target_policy = cfg.ndp.target_policy
        self.credits = BufferCreditManager(
            engine, cfg.num_hmcs,
            cmd_entries=be.cmd_entries,
            read_data_entries=cfg.nsu.read_data_entries,
            write_addr_entries=cfg.nsu.write_addr_entries)
        self.nsus: list = []               # filled by the system after build
        self.code_layout: dict[int, tuple[int, int]] = {}
        self.pending = [0] * cfg.gpu.num_sms
        self.pending_cap = cfg.sm_buffers.pending_entries
        self.wta_inflight = [0] * cfg.num_hmcs   # Section 4.1.1 page guard
        self._wta_drain_waiters: dict[int, list[Callable[[], None]]] = {}
        self.stats = NDPStats()
        self._uid_counter = 0
        # Optional packet-level tracing (repro.sim.tracing.MessageTrace).
        self.trace = None
        # Protocol recovery (repro.faults): a RecoveryPolicy when armed,
        # plus the system-wide TimeoutTracker ("ack" site) that resolves
        # the watchdog deadline -- static, per-site override or adaptive.
        self.recovery = None
        self.timeouts = None
        self.rstats = RecoveryStats()
        self._instances: dict[tuple, OffloadInstance] = {}
        self._watchdogs: list[tuple] = []   # (deadline, uid, token) heap

    def metrics_snapshot(self) -> dict:
        """Counters/gauges published into the metrics registry."""
        return {
            "packets": self.stats.packet_counts(),
            "pending_total": sum(self.pending),
            "pending_peak": self.stats.pending_peak,
            "pending_rejects": self.stats.pending_rejects,
            "wta_inflight": sum(self.wta_inflight),
        }

    def set_code_layout(self, blocks) -> None:
        """Lay the NSU code for each block out in I-cache lines.

        Each NSU instruction occupies :data:`~repro.core.nsu.NSU_INSTR_BYTES`;
        blocks are padded to line granularity (Figure 11's footprint)."""
        from repro.core.nsu import NSU_INSTR_BYTES

        line = self.cfg.nsu.icache_line
        cursor = 0
        for b in blocks:
            nbytes = len(b.nsu_code) * NSU_INSTR_BYTES
            n_lines = max(1, -(-nbytes // line))
            self.code_layout[b.block_id] = (cursor, n_lines)
            cursor += n_lines

    # -- OFLD.BEG ------------------------------------------------------------

    def start_block(self, sm, warp, item) -> OffloadInstance | None:
        sm_id = sm.sm_id
        if self.pending[sm_id] + 1 > self.pending_cap:
            self.stats.pending_rejects += 1
            return None
        target = select_target(self._target_policy, item, self.amap)
        self._uid_counter += 1
        uid = (sm_id, warp.wid, self._uid_counter)
        inst = OffloadInstance(uid, sm, warp, item, target)
        inst.start_cycle = self.engine.now
        self.stats.offloads += 1
        block = item.block
        if self.recovery is not None:
            self._instances[uid] = inst
            inst.progress_sig = self._progress_sig(inst)
            self._arm_watchdog(inst)

        # Reserve NSU buffer space for the whole block (Section 4.3).  The
        # grant may fire synchronously when credits are available.
        inst.reservation = self.credits.reserve(
            target, num_loads=block.num_loads, num_stores=block.num_stores,
            # perf: alloc-ok -- once per block
            on_grant=lambda: self._grant(inst))
        self._emit(inst, self._send_cmd, inst)
        return inst

    def _send_cmd(self, inst: OffloadInstance) -> None:
        block = inst.block
        attempt = inst.attempt
        cmd_size = PacketSizes.offload_cmd(len(block.send_regs),
                                           inst.active_threads)
        if self.trace is not None:
            self.trace.record(self.engine.now, "CMD", "gpu",
                              f"hmc{inst.target}", cmd_size, inst.uid,
                              f"{len(block.send_regs)} regs")
        self.gpu_links.to_hmc(inst.target, cmd_size, self._deliver_cmd,
                              arg=(inst, attempt))

    def _deliver_cmd(self, sent: tuple[OffloadInstance, int]) -> None:
        inst, attempt = sent
        if inst.completed or inst.attempt != attempt:
            self.rstats.stale_cmds += 1
            return
        self.nsus[inst.target].receive_cmd(inst)

    def _grant(self, inst: OffloadInstance) -> None:
        inst.granted = True
        if self.recovery is not None:
            inst.held = [1, inst.block.num_loads, inst.block.num_stores]
        if inst.deferred:
            for fn, arg in inst.deferred:
                fn(arg)
            inst.deferred.clear()
        if inst.pending_packets:
            self.pending[inst.sm.sm_id] -= inst.pending_packets
            inst.pending_packets = 0

    def _emit(self, inst: OffloadInstance, fn: Callable, arg) -> None:
        """Run ``fn(arg)`` now if the block is granted, else park the pair
        in the SM's pending packet buffer."""
        if inst.granted:
            fn(arg)
        else:
            inst.deferred.append((fn, arg))
            inst.pending_packets += 1
            p = self.pending[inst.sm.sm_id] = self.pending[inst.sm.sm_id] + 1
            self.stats.pending_peak = max(self.stats.pending_peak, p)

    def _pending_room(self, inst: OffloadInstance, needed: int) -> bool:
        if inst.granted:
            return True
        return self.pending[inst.sm.sm_id] + needed <= self.pending_cap

    # -- credit plumbing -------------------------------------------------------

    def release_credits(self, hmc: int, inst=None, *, cmd: int = 0,
                        read_data: int = 0, write_addr: int = 0) -> bool:
        """NSU-side credit return, routed through the owning instance's
        ledger so recovery can reconcile entries whose return message an
        armed fault plan dropped."""
        ok = self.credits.release(hmc, cmd=cmd, read_data=read_data,
                                  write_addr=write_addr)
        held = getattr(inst, "held", None)
        if ok and held is not None:
            held[0] -= cmd
            held[1] -= read_data
            held[2] -= write_addr
        return ok

    def _reconcile_held(self, inst: OffloadInstance) -> None:
        held = inst.held
        inst.held = None
        if held and any(held):
            self.credits.reconcile(inst.target, cmd=held[0],
                                   read_data=held[1], write_addr=held[2])
            self.rstats.credits_reclaimed += sum(held)

    # -- WTA conservation under faults ----------------------------------------

    def _dec_wta_inflight(self, owner: int) -> None:
        self.wta_inflight[owner] -= 1
        if self.wta_inflight[owner] == 0:
            for cb in self._wta_drain_waiters.pop(owner, []):
                cb()

    def wta_discarded(self, acc: MemAccess) -> None:
        """An NSU discarded a corrupted WTA delivery (fault injection)."""
        self.rstats.wta_lost += 1
        self._dec_wta_inflight(self.amap.hmc_of(acc.line_addr * LINE_SIZE))

    # -- load instructions (RDF) -----------------------------------------------

    def rdf(self, inst: OffloadInstance,
            accesses: tuple[MemAccess, ...]) -> bool:
        if not self._pending_room(inst, len(accesses)):
            self.stats.pending_rejects += 1
            return False
        seq = inst.next_seq
        inst.next_seq += 1
        self._emit(inst, self._send_reads,
                   (inst, inst.attempt, seq, accesses))
        return True

    def _send_reads(self, batch: tuple) -> None:
        """Emit one load instruction's RDF packets, in access order."""
        inst, attempt, seq, accesses = batch
        key = (inst.uid, seq)
        target = inst.target
        nsu = self.nsus[target]
        nsu.expect_read(key, sum(a.words for a in accesses))
        for acc in accesses:
            inst.rdf_packets += 1
            self.stats.rdf_packets += 1
            line = acc.line_addr
            if self.memsys.rdf_probe(inst.sm.sm_id, line):
                # GPU cache hit: ship the cached words to the target NSU
                # (minimizes DRAM access but costs GPU-link bandwidth --
                # the Section 7.1 BPROP effect).  With the optional NSU
                # read-only cache, a line the NSU already holds costs only
                # a header-sized "use cached copy" message.
                inst.rdf_hits += 1
                self.stats.rdf_hits += 1
                if nsu.ro_cache_hit(line):
                    size, cacheable = PacketSizes.invalidation(), None
                else:
                    size, cacheable = PacketSizes.rdf_response(acc.words), line
                    if self.trace is not None:
                        self.trace.record(self.engine.now, "RDF_HIT_RESP",
                                          "gpu", f"hmc{target}", size,
                                          inst.uid,
                                          f"seq {seq}, {acc.words} words")
                self.gpu_links.to_hmc(
                    target, size, _ReadForward.deliver,
                    arg=_ReadForward(self, inst, attempt, key, seq,
                                     acc.words, line, target, cacheable))
                continue
            owner = self.amap.hmc_of(line * LINE_SIZE)
            req = PacketSizes.rdf_request(acc.irregular, acc.words)
            if self.trace is not None:
                self.trace.record(self.engine.now, "RDF", "gpu",
                                  f"hmc{owner}", req, inst.uid,
                                  f"seq {seq}, line {line:#x}")
            self.gpu_links.to_hmc(
                owner, req, _ReadForward.at_owner,
                arg=_ReadForward(self, inst, attempt, key, seq, acc.words,
                                 line, owner))

    def _deliver_read(self, rf: _ReadForward) -> None:
        inst = rf.inst
        if inst.completed or inst.attempt != rf.attempt:
            self.rstats.stale_reads += 1
            return
        self.nsus[inst.target].deliver_read(
            rf.key, rf.words, cacheable_line=rf.cacheable_line)

    def _deliver_wta(self, wa: _WriteAddress) -> None:
        inst = wa.inst
        if inst.completed or inst.attempt != wa.attempt:
            self.rstats.stale_wta += 1
            self._dec_wta_inflight(wa.owner)
            return
        self.nsus[inst.target].deliver_wta(wa.key, wa.acc)

    # -- store instructions (WTA) -------------------------------------------------

    def wta(self, inst: OffloadInstance,
            accesses: tuple[MemAccess, ...]) -> bool:
        if not self._pending_room(inst, len(accesses)):
            self.stats.pending_rejects += 1
            return False
        seq = inst.next_seq
        inst.next_seq += 1
        self._emit(inst, self._send_wtas,
                   (inst, inst.attempt, seq, accesses))
        return True

    def _send_wtas(self, batch: tuple) -> None:
        """Emit one store instruction's WTA packets, in access order."""
        inst, attempt, seq, accesses = batch
        key = (inst.uid, seq)
        target = inst.target
        self.nsus[target].expect_wta(key, len(accesses))
        for acc in accesses:
            self.stats.wta_packets += 1
            owner = self.amap.hmc_of(acc.line_addr * LINE_SIZE)
            self.wta_inflight[owner] += 1
            size = PacketSizes.wta(acc.irregular, acc.words)
            if self.trace is not None:
                self.trace.record(self.engine.now, "WTA", "gpu",
                                  f"hmc{target}", size, inst.uid,
                                  f"seq {seq}, line {acc.line_addr:#x}")
            self.gpu_links.to_hmc(
                target, size, _WriteAddress.deliver,
                lost=_WriteAddress.lost,
                arg=_WriteAddress(self, inst, attempt, key, acc, owner))

    # -- OFLD.END -------------------------------------------------------------------

    def end_block(self, inst: OffloadInstance) -> None:
        inst.gpu_end_reached = True
        if inst.ack_arrived:
            # The NSU finished before the GPU-side code did (no-store
            # blocks with fast cache-hit data): resume next cycle.
            self.engine.call_after(1, self._complete, inst)

    def send_ack(self, nsu, inst: OffloadInstance) -> None:
        size = PacketSizes.offload_ack(len(inst.block.ret_regs),
                                       inst.active_threads)
        attempt = inst.attempt
        if self.trace is not None:
            self.trace.record(self.engine.now, "ACK", f"hmc{nsu.hmc_id}",
                              "gpu", size, inst.uid,
                              f"{len(inst.block.ret_regs)} regs")
        self.gpu_links.to_gpu(nsu.hmc_id, size, self._ack,
                              arg=(inst, attempt))

    def _ack(self, sent: tuple[OffloadInstance, int]) -> None:
        inst, attempt = sent
        if inst.completed or inst.attempt != attempt:
            self.rstats.stale_acks += 1
            return
        inst.ack_arrived = True
        self.stats.acks += 1
        if self.timeouts is not None:
            # Feed the adaptive deadline: offload-issue -> ACK round-trip.
            self.timeouts.observe("ack", self.engine.now - inst.start_cycle)
        if self.decider is not None and hasattr(self.decider,
                                                "record_instance"):
            self.decider.record_instance(
                inst.block.block_id, inst.rdf_packets, inst.rdf_hits)
        if inst.gpu_end_reached:
            self._complete(inst)

    def _complete(self, inst: OffloadInstance) -> None:
        if self.recovery is not None:
            inst.completed = True
            self._instances.pop(inst.uid, None)
            # Any entries whose credit-return message was dropped are
            # restored here: the manager knows what the block reserved.
            self._reconcile_held(inst)
        # complete_offload is a waker-hooked mutator: ``System.run``
        # settles the SM's parked idle cycles before the ACK
        # registers land (invariant I1, docs/performance.md).  We only
        # reach here from engine events (ACK delivery), never from
        # another SM's tick (invariant I3).
        inst.sm.complete_offload(inst.warp)

    # -- NSU write routing + coherence (Sections 4.1.2 / 4.2) -----------------------

    def ndp_write(self, nsu, warp, acc: MemAccess) -> None:
        """Route one NSU store access to the owning vault; invalidate GPU
        caches when the write completes; acknowledge the NSU."""
        owner = self.amap.hmc_of(acc.line_addr * LINE_SIZE)
        size = PacketSizes.ndp_write(acc.words)
        self.stats.ndp_writes += 1
        if self.trace is not None:
            self.trace.record(self.engine.now, "WRITE", f"hmc{nsu.hmc_id}",
                              f"hmc{owner}", size, warp.inst.uid,
                              f"line {acc.line_addr:#x}")
        write = _NDPWrite(self, nsu, warp, acc.line_addr, owner, size)
        if owner == nsu.hmc_id:
            write.at_owner()
        else:
            self.network.send(nsu.hmc_id, owner, size, write.at_owner,
                              lost=write.lost)

    def _write_ack_lost(self) -> None:
        # The write landed and was invalidated; only the NSU warp's
        # completion signal died.  Recovery replays the block.
        self.rstats.write_acks_lost += 1

    def _send_invalidation(self, write: _NDPWrite) -> None:
        size = PacketSizes.invalidation()
        self.stats.invalidations_sent += 1
        self.memsys.count_invalidation_bytes(size)
        if self.trace is not None:
            self.trace.record(self.engine.now, "INV", f"hmc{write.owner}",
                              "gpu", size, None, f"line {write.line:#x}")
        self.gpu_links.to_gpu(write.owner, size, _NDPWrite.invalidate,
                              lost=_NDPWrite.inv_lost, arg=write)

    # -- dynamic memory management guard (Section 4.1.1) ------------------------------

    def can_swap_page_now(self, hmc: int) -> bool:
        """True when a new page mapped to ``hmc`` can be written immediately
        (no in-flight WTA packets to that stack)."""
        return self.wta_inflight[hmc] == 0

    def wait_for_wta_drain(self, hmc: int, cb: Callable[[], None]) -> None:
        """Defer ``cb`` until the stack has no in-flight WTA packets.  Other
        stacks' data remains accessible meanwhile (per the paper)."""
        if self.wta_inflight[hmc] == 0:
            cb()
        else:
            self._wta_drain_waiters.setdefault(hmc, []).append(cb)

    # -- protocol recovery: ACK watchdogs, replay, inline fallback ----------------

    @staticmethod
    def _progress_sig(inst: OffloadInstance) -> tuple:
        return (inst.attempt, inst.granted, inst.next_seq,
                inst.pending_packets, inst.gpu_end_reached, inst.ack_arrived)

    def _arm_watchdog(self, inst: OffloadInstance) -> None:
        inst.wd_token += 1
        timeout = (self.timeouts.timeout("ack") if self.timeouts is not None
                   else self.recovery.ack_timeout)
        heapq.heappush(self._watchdogs,
                       (self.engine.now + timeout, inst.uid, inst.wd_token))

    def next_watchdog_deadline(self) -> int | None:
        """Earliest armed deadline (the system folds this into its
        fast-forward target; stale heap entries only wake it early)."""
        return self._watchdogs[0][0] if self._watchdogs else None

    def poll_watchdogs(self, now: int) -> None:
        """Fire every due watchdog.  Called from the system main loop so
        watchdog timers never appear as engine events -- an unarmed run's
        event stream (and cycle count) stays untouched."""
        wd = self._watchdogs
        while wd and wd[0][0] <= now:
            _, uid, token = heapq.heappop(wd)
            inst = self._instances.get(uid)
            if inst is None or token != inst.wd_token:
                continue
            self._watchdog_check(inst)

    def _watchdog_check(self, inst: OffloadInstance) -> None:
        sig = self._progress_sig(inst)
        if sig != inst.progress_sig:
            # The block moved since the last check; keep watching.
            inst.progress_sig = sig
            self._arm_watchdog(inst)
            return
        self.rstats.watchdog_fires += 1
        exhausted = inst.retries >= self.recovery.max_retries
        if not inst.granted:
            # Wedged waiting for buffer credits (e.g. a lost credit-return
            # message starved the FIFO): re-queue or give up.
            self._fallback(inst) if exhausted else self._retry_queued(inst)
        elif inst.gpu_end_reached and not inst.ack_arrived:
            # Every packet left the GPU but the ACK never came back:
            # a CMD/RDF/WTA/WRITE/ACK packet died somewhere.
            self._fallback(inst) if exhausted else self._retry(inst)
        else:
            # Mid-emission on the SM with no safe replay point (e.g. an
            # address operand is still outstanding); keep watching.  A
            # truly dead block surfaces as a simulation timeout.
            self._arm_watchdog(inst)

    def _retry_queued(self, inst: OffloadInstance) -> None:
        """Re-queue a never-granted reservation.  Parked packets stay in
        the SM's pending buffer; the new grant flushes them."""
        inst.retries += 1
        self.rstats.retries += 1
        block = inst.block
        self.credits.cancel(inst.reservation)
        inst.reservation = self.credits.reserve(
            inst.target, num_loads=block.num_loads,
            num_stores=block.num_stores,
            # perf: alloc-ok -- recovery only
            on_grant=lambda: self._grant(inst))
        inst.progress_sig = self._progress_sig(inst)
        self._arm_watchdog(inst)

    def _retry(self, inst: OffloadInstance) -> None:
        """Full replay: abort the NSU-side attempt, re-reserve, re-emit
        every packet from the SM's already-generated addresses."""
        inst.retries += 1
        self.rstats.retries += 1
        self._abort_attempt(inst)
        attempt = inst.attempt
        block = inst.block
        inst.reservation = self.credits.reserve(
            inst.target, num_loads=block.num_loads,
            num_stores=block.num_stores,
            # perf: alloc-ok -- recovery only
            on_grant=lambda: self._replay(inst, attempt))
        inst.progress_sig = self._progress_sig(inst)
        self._arm_watchdog(inst)

    def _abort_attempt(self, inst: OffloadInstance) -> None:
        """Unwind one attempt: stale its in-flight packets, reconcile its
        credits, purge its NSU state, unwind WTA counters."""
        inst.attempt += 1
        if not inst.granted:
            self.credits.cancel(inst.reservation)
        else:
            self._reconcile_held(inst)
        inst.granted = False
        if inst.pending_packets:
            self.pending[inst.sm.sm_id] -= inst.pending_packets
            inst.pending_packets = 0
        inst.deferred.clear()
        inst.ack_arrived = False
        inst.next_seq = 0
        _reads, wta = self.nsus[inst.target].purge_instance(inst.uid)
        self.rstats.wta_purged += len(wta)
        for acc in wta:
            self._dec_wta_inflight(self.amap.hmc_of(acc.line_addr * LINE_SIZE))

    def _replay(self, inst: OffloadInstance, attempt: int) -> None:
        """The retry's reservation was granted: re-send CMD and every
        RDF/WTA packet in program order (addresses were kept on the SM)."""
        if inst.completed or inst.attempt != attempt:
            return   # superseded by a later retry or a fallback
        inst.granted = True
        inst.held = [1, inst.block.num_loads, inst.block.num_stores]
        self._send_cmd(inst)
        mem_seq = 0
        item = inst.item
        for g in inst.block.gpu_code:
            if g.kind == "rdf":
                self.rdf(inst, item.mem_accesses[mem_seq])
                mem_seq += 1
            elif g.kind == "wta":
                self.wta(inst, item.mem_accesses[mem_seq])
                mem_seq += 1

    def _fallback(self, inst: OffloadInstance) -> None:
        """Retries exhausted: abort the offload for good and re-execute
        the block inline on the SM (it generated every address already,
        so inline re-execution is always possible)."""
        self.rstats.fallbacks += 1
        self._abort_attempt(inst)
        inst.completed = True
        self._instances.pop(inst.uid, None)
        # fallback_inline is the third waker-hooked mutator (with
        # wake_warp and complete_offload): it runs off watchdog/NACK
        # engine events, so the parked SM's stall accounting settles
        # before the warp is re-armed (docs/performance.md, I1/I3).
        inst.sm.fallback_inline(inst.warp)
