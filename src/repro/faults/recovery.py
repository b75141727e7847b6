"""Recovery bookkeeping shared by both recovery layers.

The recovery mechanics live in :class:`~repro.core.offload.NDPController`
(ACK deadlines, replay, inline fallback, credit reconciliation) and
:class:`~repro.sim.memsys.GPUMemSystem` (L2-fill deadlines, bounded
reissue); this module holds the counters they surface and the one
:class:`Watchdog` that resolves and fires their deadlines.  The counters
exist on every component so the post-run audit can read them
unconditionally, but they only move when a fault plan with a recovery
policy is armed.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, fields

from repro.faults.plan import WATCHDOG_SITES, RecoveryPolicy


@dataclass
class RecoveryStats:
    """Counters for the watchdog/replay/fallback/reconciliation paths."""

    watchdog_fires: int = 0     # no-progress timeouts acted upon
    retries: int = 0            # block replays (reservation or full)
    fallbacks: int = 0          # blocks re-executed inline on the SM
    credits_reclaimed: int = 0  # credit entries restored by reconciliation
    stale_cmds: int = 0         # packets of an aborted attempt discarded
    stale_reads: int = 0
    stale_wta: int = 0
    stale_acks: int = 0
    wta_purged: int = 0         # WTA accesses removed at block abort
    wta_lost: int = 0           # WTA packets dropped in flight
    writes_lost: int = 0        # NDP write packets dropped in flight
    write_acks_lost: int = 0    # write acknowledgments dropped in flight
    invs_lost: int = 0          # invalidations dropped in flight

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def metrics_counters(self) -> dict[str, int]:
        # lint: ignore[DET002] -- dataclass field order is fixed at class
        # definition; the dict feeds a name-keyed registry anyway
        return {f"recovery.{k}": v for k, v in self.as_dict().items()}


@dataclass
class BaselineRecoveryStats:
    """Counters for the baseline-load (MSHR fill) recovery path.

    Field names are disjoint from :class:`RecoveryStats` because both end
    up merged into one ``extra["recovery"]`` dict on the run result.
    Conservation: every issued fetch attempt ends exactly one way, so
    ``fetch_attempts == fills + fills_lost + fills_dup`` (audited).
    """

    fetch_attempts: int = 0       # DRAM fetches issued (incl. reissues)
    fills: int = 0                # attempts whose response filled the L2
    fills_lost: int = 0           # attempts whose packet died in flight
    fills_dup: int = 0            # late duplicate responses, dropped
    mshr_watchdog_fires: int = 0  # fill deadlines that expired
    mshr_reissues: int = 0        # reissues (loss-notified or watchdog)
    mshr_gaveup: int = 0          # fills abandoned after mshr_max_retries

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def metrics_counters(self) -> dict[str, int]:
        # lint: ignore[DET002] -- dataclass field order is fixed at class
        # definition; the dict feeds a name-keyed registry anyway
        return {f"recovery.{k}": v for k, v in self.as_dict().items()}


class Watchdog:
    """Both recovery layers' deadlines: one policy, one heap.

    One watchdog is built per armed system.  Site ``"ack"`` holds the
    NDP controller's offload deadlines and site ``"mshr"`` the GPU memory
    system's L2-fill deadlines; each site registers a handler that drops
    entries whose token is stale.  The system polls every stepped cycle
    and fast-forwards no further than :meth:`next_deadline`, so a poll
    only finds entries due that cycle, and ``(deadline, site rank, key,
    token)`` pops them ACK entries first, each site in key order.

    In adaptive mode each site's observed completion latencies feed an
    EWMA and the deadline becomes ``max(min_timeout, timeout_scale *
    ewma)`` -- deliberately unclamped above so sustained congestion
    widens the deadline instead of triggering retry storms.  Until a site
    has an observation it uses its static deadline.
    """

    def __init__(self, policy: RecoveryPolicy, engine) -> None:
        self.policy = policy
        self.engine = engine
        self._ewma: dict[str, float] = {}
        self._observations: dict[str, int] = {}
        self._heap: list[tuple] = []
        # Weak, because the sites hold the watchdog: a finished system
        # must be freed by reference counting.
        self._handlers: dict[int, weakref.WeakMethod] = {}

    def handle(self, site: str, handler) -> None:
        """Register ``handler(key, token)``, a bound method, for
        ``site``'s due entries."""
        self._handlers[WATCHDOG_SITES.index(site)] = weakref.WeakMethod(
            handler)

    def arm(self, site: str, key, token: int) -> None:
        """Arm one deadline for ``key``, ``timeout(site)`` cycles out."""
        heapq.heappush(self._heap, (self.engine.now + self.timeout(site),
                                    WATCHDOG_SITES.index(site), key, token))

    def next_deadline(self) -> int | None:
        """Earliest armed deadline (stale entries only wake the system
        early)."""
        return self._heap[0][0] if self._heap else None

    def poll(self, now: int) -> None:
        """Hand every entry due by ``now`` to its site's handler.  The
        system loop calls this, so deadlines are never engine events."""
        heap = self._heap
        while heap and heap[0][0] <= now:
            _, rank, key, token = heapq.heappop(heap)
            self._handlers[rank]()(key, token)

    def observe(self, site: str, latency: int) -> None:
        """Record one completed round-trip (a no-op unless adaptive)."""
        if not self.policy.adaptive:
            return
        prev = self._ewma.get(site)
        if prev is None:
            self._ewma[site] = float(latency)
        else:
            a = self.policy.ewma_alpha
            self._ewma[site] = (1.0 - a) * prev + a * float(latency)
        self._observations[site] = self._observations.get(site, 0) + 1

    def timeout(self, site: str) -> int:
        p = self.policy
        if p.adaptive:
            ewma = self._ewma.get(site)
            if ewma is not None:
                return max(p.min_timeout, int(round(p.timeout_scale * ewma)))
        return p.timeout_for(site)

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Current deadline + EWMA state per observed/configured site."""
        out: dict[str, dict[str, int]] = {}
        for site in WATCHDOG_SITES:
            entry = {"timeout": self.timeout(site),
                     "observations": self._observations.get(site, 0)}
            ewma = self._ewma.get(site)
            if ewma is not None:
                entry["ewma"] = int(round(ewma))
            out[site] = entry
        return out

    def metrics_counters(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for site, entry in sorted(self.snapshot().items()):
            out[f"recovery.timeout.{site}"] = entry["timeout"]
            if "ewma" in entry:
                out[f"recovery.ewma.{site}"] = entry["ewma"]
        return out
