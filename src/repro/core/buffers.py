"""NSU-side NDP buffers (paper Section 4.1.2).

The read-data and write-address buffers are one structure (Figure 4).
Each entry is keyed by (offload instance, sequence number), the offload
packet ID, and holds a GPU-side credit (Section 4.3).  The GPU announces
an entry, with the amount it will deliver, before the entry's first
packet leaves; deliveries fill it until that amount has arrived.  The
read-data buffer counts the words of one load's RDF responses (the
paper merges several responses into one entry via the active-thread
mask); the write-address buffer counts one store's WTA packets and
keeps their coalesced line addresses in arrival order.

Capacity is enforced by construction: the credit manager never lets
more entries be outstanding than the buffer holds, and this class
asserts that invariant.
"""

from __future__ import annotations


class _Entry:
    """One buffer entry: the amount still to arrive, and the delivered
    items."""

    __slots__ = ("remaining", "items")

    def __init__(self, amount: int) -> None:
        self.remaining = amount
        self.items: list = []


class NDPBuffer:
    """One NDP buffer of one NSU; ``name`` labels its assertion messages."""

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.capacity = capacity
        self._entries: dict[tuple, _Entry] = {}
        self.peak = 0

    def expect(self, key: tuple, amount: int) -> None:
        """The GPU announced an entry that ``amount`` units will fill."""
        entries = self._entries
        if key in entries:
            raise AssertionError(f"duplicate {self.name} entry {key}")
        if len(entries) >= self.capacity:
            raise AssertionError(
                f"{self.name} buffer overflow: credit management must "
                "prevent this (Section 4.3)")
        entries[key] = _Entry(amount)
        if len(entries) > self.peak:
            self.peak = len(entries)

    def deliver(self, key: tuple, amount: int, item=None) -> bool:
        """``amount`` units (and ``item``, if given) arrived; returns True
        if the entry is now complete."""
        e = self._entries.get(key)
        if e is None:
            raise AssertionError(
                f"{self.name} delivery to unannounced entry {key}")
        e.remaining -= amount
        if item is not None:
            e.items.append(item)
        return e.remaining <= 0

    def complete(self, key: tuple) -> bool:
        e = self._entries.get(key)
        return e is not None and e.remaining <= 0

    def consume(self, key: tuple) -> list:
        """The NSU instruction reads and frees a complete entry; returns
        its delivered items."""
        e = self._entries.pop(key, None)
        if e is None or e.remaining > 0:
            raise AssertionError(
                f"consuming incomplete {self.name} entry {key}")
        return e.items

    def purge_uid(self, uid) -> list:
        """Drop every entry of one offload instance (recovery abort).
        Returns the purged entries' delivered items."""
        out: list = []
        for k in [k for k in self._entries if k[0] == uid]:
            out.extend(self._entries.pop(k).items)
        return out

    def __len__(self) -> int:
        return len(self._entries)
