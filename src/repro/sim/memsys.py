"""GPU memory hierarchy: per-SM L1s, per-partition L2 slices, off-chip path.

Baseline memory path (Figure 2(a)): coalesced line access -> L1 (write
through) -> L2 slice of the owning HMC -> GPU link -> vault -> full-line
response back up the same path.  The L2 is sliced per memory partition (one
per HMC, as in GPGPU-sim); slice selection follows the random page->HMC
mapping, so L2 capacity is shared evenly.

The NDP path uses :meth:`rdf_probe` (a tag probe of L1+L2 without fill) and
:meth:`invalidate` (Section 4.2 coherence).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.config import LINE_SIZE, SystemConfig
from repro.core.packets import PacketSizes
from repro.faults.recovery import BaselineRecoveryStats
from repro.gpu.cache import Cache, CacheStats, MSHRFile
from repro.gpu.coalescer import MemAccess
from repro.gpu.sm import _MemReplay
from repro.memory.address import AddressMap
from repro.memory.hmc import HMCStack
from repro.memory.vault import DRAMRequest
from repro.network.fabric import GPULinks
from repro.sim.engine import Engine

#: Crossbar traversal latency between an SM and an L2 slice (SM cycles).
XBAR_LATENCY = 8
#: Crossbar slot time per request at an L2 slice ingress port: the xbar
#: runs at 1250 MHz (Table 2), one request per xbar cycle per slice.
XBAR_SLOT = 700.0 / 1250.0


class _FetchState:
    """In-flight recoverable L2 fill: one per primary L2 miss.

    ``attempt`` stamps every packet of the current issue so loss
    notifications for superseded attempts are ignored; ``wd_token``
    invalidates stale watchdog entries (the watchdog's heap is never
    purged, as for the offload instances in ``repro.core.offload``).
    """

    __slots__ = ("attempt", "retries", "issued_at", "wd_token")

    def __init__(self) -> None:
        self.attempt = 0
        self.retries = 0
        self.issued_at = 0
        self.wd_token = 0


class _L2Fill:
    """The packet record of one L2 fill issue (``_issue_fetch``).  Each
    stage is a method that rides its event as the event's argument or as
    a bound method, so the chain builds no closure.  ``attempt`` is None
    unless a recovery policy is armed; then every packet also carries
    the ``lost`` stage.
    """

    __slots__ = ("ms", "part", "line", "attempt")

    def __init__(self, ms: "GPUMemSystem", part: int, line: int,
                 attempt: int | None) -> None:
        self.ms = ms
        self.part = part
        self.line = line
        self.attempt = attempt

    def at_hmc(self) -> None:
        self.ms.hmcs[self.part].access_line(
            self.line, False, self.send_response,
            on_lost=None if self.attempt is None else self.dram_lost)

    def send_response(self, req: DRAMRequest) -> None:
        self.ms.gpu_links.to_gpu(
            self.part, PacketSizes.mem_read_response(), _L2Fill.fill,
            lost=None if self.attempt is None else _L2Fill.lost, arg=self)

    def fill(self) -> None:
        self.ms._fill_l2(self.part, self.line)

    def lost(self) -> None:
        self.ms._fetch_lost(self.part, self.line, self.attempt)

    def dram_lost(self, req: DRAMRequest) -> None:
        self.lost()


def _ignore(req: DRAMRequest) -> None:
    """Completion of a write-through store: nothing waits for it."""


class GPUMemSystem:
    """Caches + links + DRAM plumbing for baseline and inline execution."""

    def __init__(self, engine: Engine, cfg: SystemConfig, *,
                 amap: AddressMap, gpu_links: GPULinks,
                 hmcs: list[HMCStack]) -> None:
        self.engine = engine
        self.cfg = cfg
        self.amap = amap
        self.gpu_links = gpu_links
        self.hmcs = hmcs
        self.l1_stats = CacheStats()
        self.l2_stats = CacheStats()
        g = cfg.gpu
        self.l1 = [Cache(g.l1d.size_bytes, g.l1d.assoc, g.l1d.line_size,
                         self.l1_stats) for _ in range(g.num_sms)]
        self.l1_mshr = [MSHRFile(g.l1d.mshr_entries, self.l1_stats)
                        for _ in range(g.num_sms)]
        slice_bytes = max(g.l2.line_size * g.l2.assoc,
                          g.l2.size_bytes // cfg.num_hmcs)
        self.l2 = [Cache(slice_bytes, g.l2.assoc, g.l2.line_size,
                         self.l2_stats) for _ in range(cfg.num_hmcs)]
        self.l2_mshr = [MSHRFile(g.l2.mshr_entries, self.l2_stats)
                        for _ in range(cfg.num_hmcs)]
        self.l1_latency = g.l1d.hit_latency
        self.l2_latency = g.l2.hit_latency
        # Requests parked while an L2 slice's MSHR file is full; retried
        # in arrival order as fills free entries (a real GPU's
        # memory-partition miss queue; hundreds deep on dense baselines).
        self._l2_waiters: list[deque[tuple[int, int]]] = [
            deque() for _ in range(cfg.num_hmcs)]
        # Per-slice crossbar ingress port occupancy (one request per xbar
        # cycle): requests queue behind earlier arrivals at a hot slice.
        self._xbar_free = [0.0] * cfg.num_hmcs
        self.invalidation_bytes = 0
        self.dram_read_requests = 0
        # Baseline-path recovery (repro.faults): the system's Watchdog,
        # shared with the NDP controller, when a plan with a recovery
        # policy is armed.  Its "mshr" site holds each tracked fill's
        # deadline.  None in unarmed runs, whose event stream is
        # untouched.
        self.watchdog = None
        # Wake hook for MSHR-capacity parking: ``System.run`` binds
        # this to ``System._wake_sm`` so an L1 fill (which frees an MSHR
        # entry and may insert the line a parked SM spins on) reactivates
        # the owning SM.  Fired *before* the fill mutates cache state, so
        # the settle-before-mutate invariant (I1) holds for the owed-cycle
        # replay (docs/performance.md).
        self.sm_waker: Callable[[int], None] | None = None
        self.rstats = BaselineRecoveryStats()
        self._fetches: dict[tuple[int, int], _FetchState] = {}

    # -- baseline / inline loads --------------------------------------------------

    def load(self, sm, replay: _MemReplay) -> bool:
        """Send the line loads of ``replay`` from SM ``sm``, from its
        first unsent line on, until the L1 MSHR file rejects one.
        Returns False on that structural reject, True once every line
        is out.  A hit completes the line ``l1_latency`` cycles later;
        a miss parks the replay in the line's L1 MSHR entry, and the
        fill completes it (:meth:`_fill_l1`)."""
        sm_id = sm.sm_id
        l1 = self.l1[sm_id]
        mshr = self.l1_mshr[sm_id]
        accesses = replay.accesses
        sent = first = replay.sent
        n = len(accesses)
        while sent < n:
            line = accesses[sent].line_addr
            if l1.lookup(line):
                self.engine.call_after(self.l1_latency, _MemReplay.line_done,
                                       replay)
            else:
                status = mshr.allocate(line, replay)
                if status == "full":
                    replay.sent = sent
                    replay.outstanding += sent - first
                    return False
                if status == "new":
                    # Primary miss: cross the interconnect to the owning
                    # L2 slice, queueing behind earlier requests at the
                    # slice's ingress port.
                    part = self.amap.hmc_of(line * LINE_SIZE)
                    now = self.engine.now
                    start = max(float(now), self._xbar_free[part])
                    self._xbar_free[part] = start + XBAR_SLOT
                    self.engine.call_after(int(start) - now + XBAR_LATENCY,
                                           self._l2_access, sm_id, line)
            sent += 1
        replay.sent = sent
        replay.outstanding += sent - first
        return True

    def l1_would_reject(self, sm_id: int, line: int) -> bool:
        """Side-effect-free pre-probe of the :meth:`load` admission path:
        True iff a load of ``line`` from SM ``sm_id`` would be
        structurally rejected right now (L1 miss + no outstanding MSHR
        entry to merge into + MSHR file full).  Touches no counters and
        no LRU state.  The simulator itself never asks: the issue pass
        records its own retry cost (``SM._issue``); the test oracle that
        re-derives that cost (``tests/reference_stepper.py``) does.
        """
        if self.l1[sm_id].contains(line):
            return False
        mshr = self.l1_mshr[sm_id]
        if mshr.outstanding(line):
            return False
        return len(mshr) >= mshr.num_entries

    def replay_struct_rejects(self, sm_id: int, count: int) -> None:
        """Account ``count`` elided MSHR-full retry attempts exactly as
        the per-cycle loop would have: each is one L1 lookup miss plus one
        MSHR reject.  Valid because a struct-parked SM's state is frozen
        (any mutation wakes it first), so every elided retry is identical
        to the last real one -- rejected lookups touch no LRU state."""
        stats = self.l1_stats
        stats.misses += count
        stats.mshr_rejects += count

    def _l2_access(self, sm_id: int, line: int) -> None:
        part = self.amap.hmc_of(line * LINE_SIZE)
        l2 = self.l2[part]
        if l2.lookup(line):
            self.engine.call_after(self.l2_latency, self._fill_l1,
                                   sm_id, line)
            return
        status = self.l2_mshr[part].allocate(line, sm_id)
        if status == "full":
            # Park in the partition's miss queue; retried on fills.
            self._l2_waiters[part].append((sm_id, line))
            return
        if status == "merged":
            return
        st = None
        if self.watchdog is not None:
            st = self._fetches[(part, line)] = _FetchState()
        self._issue_fetch(part, line, st)

    def _issue_fetch(self, part: int, line: int,
                     st: _FetchState | None) -> None:
        """One (re)issue of an L2 fill: read request down the GPU link,
        vault read, full-line response back up.

        ``st`` is None unless a recovery policy is armed.  Then every
        packet of the chain carries a ``lost`` callback stamped with the
        attempt, so a drop anywhere (down-link, vault read, up-link)
        notifies us and a notification for a superseded attempt is
        ignored, and the fill's watchdog is armed after the sends."""
        self.dram_read_requests += 1
        attempt = lost = None
        if st is not None:
            self.rstats.fetch_attempts += 1
            st.issued_at = self.engine.now
            attempt, lost = st.attempt, _L2Fill.lost
        self.gpu_links.to_hmc(part, PacketSizes.mem_read_request(),
                              _L2Fill.at_hmc, lost=lost,
                              arg=_L2Fill(self, part, line, attempt))
        if st is not None:
            self._arm_watchdog(part, line, st)

    def _fetch_lost(self, part: int, line: int, attempt: int) -> None:
        """A request/response of fill attempt ``attempt`` died in flight.
        Reissue immediately unless a newer attempt (or the fill itself)
        already superseded this one."""
        self.rstats.fills_lost += 1
        st = self._fetches.get((part, line))
        if st is None or st.attempt != attempt:
            return
        self._reissue(part, line, st)

    def _reissue(self, part: int, line: int, st: _FetchState) -> None:
        if st.retries >= self.watchdog.policy.mshr_max_retries:
            # Abandon: the fill can never complete, so the run surfaces
            # as a deadlock (chaos outcome "fatal") instead of spinning.
            self.rstats.mshr_gaveup += 1
            return
        st.retries += 1
        st.attempt += 1
        self.rstats.mshr_reissues += 1
        self._issue_fetch(part, line, st)

    def _arm_watchdog(self, part: int, line: int, st: _FetchState) -> None:
        st.wd_token += 1
        self.watchdog.arm("mshr", (part, line), st.wd_token)

    def on_deadline(self, key: tuple[int, int], token: int) -> None:
        """An "mshr" deadline is due: reissue the fill unless it filled
        or a newer arming superseded this one."""
        st = self._fetches.get(key)
        if st is None or token != st.wd_token:
            return
        self.rstats.mshr_watchdog_fires += 1
        self._reissue(key[0], key[1], st)

    def _fill_l2(self, part: int, line: int) -> None:
        if self.watchdog is not None:
            st = self._fetches.pop((part, line), None)
            if st is None:
                # A reissue and the (delayed) original both arrived; the
                # first response already filled the MSHR.  Exactly-once:
                # count and drop the duplicate.
                self.rstats.fills_dup += 1
                return
            self.rstats.fills += 1
            self.watchdog.observe("mshr", self.engine.now - st.issued_at)
        self.l2[part].insert(line)
        mshr = self.l2_mshr[part]
        for sm_id in mshr.fill(line):
            self._fill_l1(sm_id, line)
        waiters = self._l2_waiters[part]
        # Admit parked requests while MSHR capacity remains; hits and
        # merges don't consume entries, so keep draining until the file
        # is full again or the queue empties (avoids stranding a waiter
        # behind a request that turned into a late hit).
        while waiters and len(mshr) < mshr.num_entries:
            sm_id, wline = waiters.popleft()
            self._l2_access(sm_id, wline)

    def _fill_l1(self, sm_id: int, line: int) -> None:
        # Fills always run as engine events, and the resulting warp
        # wake-ups funnel through SM.wake_warp — ``System.run``'s
        # waker hook (invariants I1/I3, docs/performance.md).  Never call
        # this synchronously from another SM's tick.
        #
        # The explicit sm_waker fires first (settle against the frozen
        # pre-fill state, I1): a struct-parked SM has no MSHR waiter
        # registered for this line, so without it the freed entry/fresh
        # line would never reactivate the SM.
        if self.sm_waker is not None:
            self.sm_waker(sm_id)
        self.l1[sm_id].insert(line)
        for replay in self.l1_mshr[sm_id].fill(line):
            replay.line_done()

    # -- baseline / inline stores ---------------------------------------------------

    def store(self, sm, access: MemAccess) -> None:
        """Write-through store of one coalesced line access.  Stores take
        no MSHR entry, so the hierarchy always accepts them."""
        line = access.line_addr
        self.l1[sm.sm_id].touch_write(line)
        part = self.amap.hmc_of(line * LINE_SIZE)
        self.l2[part].touch_write(line)
        size = PacketSizes.mem_write(access.words)
        self.gpu_links.to_hmc(part, size, self._write_line,
                              arg=(part, line, size))

    def _write_line(self, packet: tuple[int, int, int]) -> None:
        part, line, size = packet
        self.hmcs[part].access_line(line, True, _ignore, noc_bytes=size)

    # -- NDP hooks ---------------------------------------------------------------------

    def rdf_probe(self, sm_id: int, line: int) -> bool:
        """RDF cache check (Section 4.1.1): L1 of the issuing SM, then the
        owning L2 slice.  No fill on miss."""
        if self.l1[sm_id].probe(line):
            return True
        part = self.amap.hmc_of(line * LINE_SIZE)
        return self.l2[part].probe(line)

    def invalidate(self, line: int) -> None:
        """Apply a vault-originated invalidation (Section 4.2)."""
        part = self.amap.hmc_of(line * LINE_SIZE)
        self.l2[part].invalidate(line)
        Cache.invalidate_all(self.l1, line)

    def count_invalidation_bytes(self, nbytes: int) -> None:
        self.invalidation_bytes += nbytes
