"""Credit-based NSU buffer management (paper Section 4.3).

The GPU hosts one buffer manager that tracks credits for the three NDP
buffers of every NSU: the offload-command buffer, the read-data buffer and
the write-address buffer.  An SM reserves entries for a whole offload block
*before* any packet leaves the GPU (one command entry, one read-data entry
per load instruction, one write-address entry per store instruction).  The
NSU returns credits as entries free up.  Because a block's packets are only
released once all its NSU buffer space is guaranteed, the NSU can always
drain the network -- the deadlock-freedom argument of Section 4.3.

Reservations that cannot be granted immediately queue FIFO per HMC and are
granted as credits return; the owning SM keeps the block's packets in its
pending packet buffer meanwhile (Section 4.1.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.sim.engine import Engine

#: Delay for a credit to travel back to the GPU-side manager.  Credits are
#: piggybacked on other packets (Section 4.3) so they cost no bandwidth,
#: only latency.
CREDIT_RETURN_DELAY = 10


@dataclass(slots=True, eq=False)
class Reservation:
    """One pending/granted buffer reservation for an offload block.

    ``on_grant`` is dropped once it fires or the reservation is
    cancelled: the callback holds the offload instance, which holds this
    reservation, and that cycle would keep every finished block (and the
    trace it reaches) alive until a full collection.  Reservations
    compare by identity, so :meth:`BufferCreditManager.cancel` removes
    exactly the one given."""

    hmc: int
    cmd: int
    read_data: int
    write_addr: int
    on_grant: Callable[[], None] | None
    granted: bool = False


class _HMCCredits:
    __slots__ = ("cmd", "read_data", "write_addr", "waiting")

    def __init__(self, cmd: int, read_data: int, write_addr: int) -> None:
        self.cmd = cmd
        self.read_data = read_data
        self.write_addr = write_addr
        self.waiting: deque[Reservation] = deque()

    def can_grant(self, r: Reservation) -> bool:
        return (self.cmd >= r.cmd and self.read_data >= r.read_data
                and self.write_addr >= r.write_addr)

    def take(self, r: Reservation) -> None:
        self.cmd -= r.cmd
        self.read_data -= r.read_data
        self.write_addr -= r.write_addr


class BufferCreditManager:
    """GPU-side credit manager for all NSU buffers (Section 4.3)."""

    def __init__(self, engine: Engine, num_hmcs: int, *,
                 cmd_entries: int, read_data_entries: int,
                 write_addr_entries: int) -> None:
        self.engine = engine
        self.faults = None   # armed by the system when a plan is active
        self._init = (cmd_entries, read_data_entries, write_addr_entries)
        self._credits = [
            _HMCCredits(cmd_entries, read_data_entries, write_addr_entries)
            for _ in range(num_hmcs)
        ]
        self.reservations_granted = 0
        self.reservations_queued = 0

    def reserve(self, hmc: int, *, num_loads: int, num_stores: int,
                on_grant: Callable[[], None]) -> Reservation:
        """Request buffer space for one offload block.

        ``on_grant`` fires (possibly immediately) when the reservation is
        granted.  A block that over-asks the *total* buffer size could
        never be granted; the analyzer's sequence-number bound prevents
        this, and we assert it here.
        """
        c0, r0, w0 = self._init
        if num_loads > r0 or num_stores > w0:
            raise ValueError(
                f"offload block needs {num_loads} read / {num_stores} write "
                f"entries but NSU buffers only hold {r0}/{w0}")
        res = Reservation(hmc, 1, num_loads, num_stores, on_grant)
        bank = self._credits[hmc]
        if not bank.waiting and bank.can_grant(res):
            bank.take(res)
            res.granted = True
            res.on_grant = None
            self.reservations_granted += 1
            on_grant()
        else:
            bank.waiting.append(res)
            self.reservations_queued += 1
        return res

    # -- credit return ---------------------------------------------------------

    def release(self, hmc: int, *, cmd: int = 0, read_data: int = 0,
                write_addr: int = 0) -> bool:
        """NSU returns credits (piggybacked; latency only, no bandwidth):
        they reach the bank ``CREDIT_RETURN_DELAY`` cycles later.

        Returns False when an armed fault plan drops the credit-return
        message -- the caller's ledger keeps the entries until recovery
        reconciles them (see :meth:`reconcile`)."""
        if (self.faults is not None
                and self.faults.decide("credit") is not None):
            return False
        self.engine.call_after(CREDIT_RETURN_DELAY, self._restore, hmc,
                               (cmd, read_data, write_addr))
        return True

    def reconcile(self, hmc: int, *, cmd: int = 0, read_data: int = 0,
                  write_addr: int = 0) -> None:
        """Restore credits immediately, bypassing fault injection.

        The recovery layer calls this when an offload instance completes
        or aborts with unreturned entries (dropped credit messages or
        purged buffer state): the GPU-side manager knows exactly what the
        block reserved, so it can reconstruct the ledger on timeout."""
        self._restore(hmc, (cmd, read_data, write_addr))

    def cancel(self, res: Reservation) -> bool:
        """Remove a still-queued reservation (recovery retry/fallback).
        Returns False when it was already granted or already removed."""
        bank = self._credits[res.hmc]
        try:
            bank.waiting.remove(res)
        except ValueError:
            return False
        res.on_grant = None
        self._drain(res.hmc)
        return True

    def _restore(self, hmc: int, counts: tuple[int, int, int]) -> None:
        """Add returned ``(cmd, read_data, write_addr)`` entries to
        ``hmc``'s bank and grant what the queue head now fits."""
        bank = self._credits[hmc]
        cmd, read_data, write_addr = counts
        bank.cmd += cmd
        bank.read_data += read_data
        bank.write_addr += write_addr
        self._drain(hmc)

    def _drain(self, hmc: int) -> None:
        bank = self._credits[hmc]
        while bank.waiting and bank.can_grant(bank.waiting[0]):
            res = bank.waiting.popleft()
            bank.take(res)
            res.granted = True
            on_grant, res.on_grant = res.on_grant, None
            self.reservations_granted += 1
            on_grant()

    # -- introspection -----------------------------------------------------------

    def available(self, hmc: int) -> tuple[int, int, int]:
        b = self._credits[hmc]
        return (b.cmd, b.read_data, b.write_addr)

    def queue_depth(self, hmc: int) -> int:
        return len(self._credits[hmc].waiting)

    def assert_conserved(self) -> None:
        """Invariant check: credits never exceed the configured capacity
        once all reservations are released (used by property tests)."""
        c0, r0, w0 = self._init
        for i, b in enumerate(self._credits):
            if b.cmd > c0 or b.read_data > r0 or b.write_addr > w0:
                raise AssertionError(
                    f"credit overflow on HMC {i}: {b.cmd}/{b.read_data}/"
                    f"{b.write_addr} vs capacity {c0}/{r0}/{w0}")
