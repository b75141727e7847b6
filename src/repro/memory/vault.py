"""Vault controller with an FR-FCFS scheduler (Table 2: "FR-FCFS, vault
request queue size: 64").

Each of the 16 vaults of a stack owns 16 banks and a private data bus.  The
controller is event-driven: whenever a request arrives or a service slot
frees up, it picks the oldest row-hit request whose bank is free, falling
back to the oldest request with a free bank (first-ready, first-come
first-served).  The vault data bus serializes line bursts (tCCD/burst
spacing), which is what caps a stack at its peak DRAM bandwidth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable

from repro.config import LINE_SIZE
from repro.memory.dram import BankState, DRAMTimingSM
from repro.sim.engine import Engine


@dataclass
class DRAMStats:
    """Aggregated DRAM event counts (feeds performance + energy models)."""

    activations: int = 0
    reads: int = 0            # line reads
    writes: int = 0           # line writes
    row_hits: int = 0
    row_misses: int = 0
    queue_peak: int = 0
    refreshes: int = 0

    @property
    def read_bytes(self) -> int:
        return self.reads * LINE_SIZE

    @property
    def write_bytes(self) -> int:
        return self.writes * LINE_SIZE

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    def metrics_snapshot(self) -> dict:
        """Counters published into the metrics registry."""
        return {"reads": self.reads, "writes": self.writes,
                "activations": self.activations,
                "row_hits": self.row_hits, "row_misses": self.row_misses,
                "queue_peak": self.queue_peak, "refreshes": self.refreshes}


@dataclass(slots=True)
class DRAMRequest:
    """One line-granularity DRAM access.

    Built fresh by the device's ``access_line`` for every access; the
    vault schedules ``on_done(req)`` -- or, when an armed ``vault_read``
    fault swallows a read response, ``on_lost(req)`` -- at the cycle the
    data reaches the device's front end.
    """

    line_addr: int
    is_write: bool
    on_done: Callable[["DRAMRequest"], None]
    bank: int = 0
    row: int = 0
    extra_latency: int = 0   # front-end traversal after the access
    on_lost: Callable[["DRAMRequest"], None] | None = None  # loss notify


class VaultController:
    """One vault: request queue + FR-FCFS bank scheduler + data bus."""

    def __init__(self, engine: Engine, timing: DRAMTimingSM,
                 num_banks: int, stats: DRAMStats,
                 queue_size: int = 64, name: str = "vault") -> None:
        self.engine = engine
        self.timing = timing
        self.banks = [BankState() for _ in range(num_banks)]
        self.stats = stats
        self.queue: deque[DRAMRequest] = deque()
        self.queue_size = queue_size
        self.name = name
        self.bus_free_at = 0
        self.faults = None   # armed by the system when a plan is active
        self._wakeup_scheduled_at: int | None = None
        # Refresh (tREFI/tRFC): all banks stall periodically; closed-page
        # after refresh (the refresh cycle precharges every bank).
        self._next_refresh = timing.tREFI if timing.tREFI else None

    # -- ingress ------------------------------------------------------------

    def submit(self, req: DRAMRequest) -> None:
        """Accept a request.

        The paper's 64-entry vault queue applies backpressure upstream; we
        accept unconditionally but record peak occupancy so saturation is
        visible in the results (the finite NDP buffers, which the paper's
        correctness argument depends on, are modelled exactly in
        ``repro.core``).
        """
        q = self.queue
        q.append(req)
        n = len(q)
        stats = self.stats
        if n > stats.queue_peak:
            stats.queue_peak = n
        # ``_wakeup_scheduled_at`` stamps the last wake-up armed and is
        # never in the past while one is pending.  Only a wake-up armed
        # for this very cycle serves the request in time; any other
        # stamp (None, or a later cycle) gets one armed now.
        now = self.engine.now
        if self._wakeup_scheduled_at != now:
            self._wakeup_scheduled_at = now
            # The unbound function with the vault as its argument: a
            # wake-up allocates no bound method.
            self.engine.call_at(now, VaultController._service, self)

    # -- scheduling ---------------------------------------------------------

    def _pick_index(self, now: int) -> tuple[int | None, int]:
        """FR-FCFS over the scheduler window: oldest row-hit with a free
        bank, else oldest free-bank request.

        Only the first ``queue_size`` requests are visible to the
        scheduler -- the physical 64-entry vault queue of Table 2; later
        arrivals wait their turn (bounded-cost, age-ordered).

        Returns ``(index, horizon)``: index is None when every windowed
        bank is busy, in which case ``horizon`` is the earliest cycle a
        windowed bank frees up.
        """
        n = len(self.queue)
        if n > self.queue_size:
            n = self.queue_size
        fallback = None
        horizon = 1 << 62
        banks = self.banks
        for idx, req in enumerate(islice(self.queue, n)):
            bank = banks[req.bank]
            busy = bank.busy_until
            if busy > now:
                if busy < horizon:
                    horizon = busy
                continue
            if bank.open_row == req.row:
                return idx, now
            if fallback is None:
                fallback = idx
        if fallback is not None:
            return fallback, now
        return None, horizon

    def _refresh(self, now: int) -> None:
        """Refresh every bank now; ``_service`` calls this once the
        refresh interval has elapsed and backs off until it ends."""
        end = now + self.timing.tRFC
        for bank in self.banks:
            bank.busy_until = max(bank.busy_until, end)
            bank.open_row = None          # refresh precharges all banks
        self.stats.refreshes += 1
        self._next_refresh += self.timing.tREFI
        # Refreshes that would have happened while the vault sat idle
        # already fit in the idle time; don't replay the backlog.
        if self._next_refresh <= now:
            self._next_refresh = now + self.timing.tREFI

    def _service(self) -> None:
        """One wake-up: serve requests while the bus and a bank are free.
        The stamp is cleared on entry and nothing below sets it before an
        exit, so an exit that leaves requests queued arms its wake-up
        unconditionally."""
        self._wakeup_scheduled_at = None
        engine = self.engine
        now = engine.now
        queue = self.queue
        if self._next_refresh is not None and now >= self._next_refresh:
            self._refresh(now)
            if queue:
                wake = self._wakeup_scheduled_at = now + self.timing.tRFC
                engine.call_at(wake, VaultController._service, self)
            return
        timing = self.timing
        slot = max(timing.tCCD, timing.burst)
        stats = self.stats
        while queue:
            if self.bus_free_at > now:
                wake = self._wakeup_scheduled_at = self.bus_free_at
                engine.call_at(wake, VaultController._service, self)
                return
            idx, horizon = self._pick_index(now)
            if idx is None:
                wake = self._wakeup_scheduled_at = max(horizon, now + 1)
                engine.call_at(wake, VaultController._service, self)
                return
            if idx == 0:
                req = queue.popleft()
            else:
                req = queue[idx]
                del queue[idx]
            ready, activated = self.banks[req.bank].access(
                req.row, req.is_write, now, timing)
            # Data bus occupied for the burst around the ready time; it
            # is free at ``now`` (checked above).
            self.bus_free_at = now + slot
            if activated:
                stats.activations += 1
                stats.row_misses += 1
            else:
                stats.row_hits += 1
            if req.is_write:
                stats.writes += 1
            else:
                stats.reads += 1
            if (self.faults is not None and not req.is_write
                    and self.faults.decide("vault_read") is not None):
                # Read-response loss: the access happened (timing, stats,
                # row state) but its response never reaches the requester.
                # Requesters that registered ``on_lost`` (the recoverable
                # baseline fill path) learn of the loss at the cycle the
                # response would have arrived and may reissue; the rest
                # rely on their own watchdogs.
                if req.on_lost is not None:
                    engine.call_at(ready + req.extra_latency,
                                   req.on_lost, req)
                continue
            engine.call_at(ready + req.extra_latency, req.on_done, req)
        # queue drained; nothing to schedule
