"""Set-associative caches with MSHRs.

The paper assumes write-through GPU caches (Section 5), which simplifies
coherence: NDP writes only need an invalidation message, never a writeback.
We model tag state exactly (true LRU within a set) and use MSHRs to merge
outstanding misses to the same line; a full MSHR file rejects the access,
which surfaces as an ExecUnitBusy structural stall at the SM.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    mshr_merges: int = 0
    mshr_rejects: int = 0
    invalidations: int = 0
    accesses_probe: int = 0     # RDF tag probes (no fill)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """Tag array with true-LRU replacement; write-through, no write-allocate.

    The cache stores *line addresses* (already divided by the line size).
    Each set is a plain dict in LRU order, oldest first: a hit re-inserts
    its line at the end, and an eviction removes the first key.  With int
    keys and ``None`` values the sets stay untracked by the garbage
    collector.
    """

    def __init__(self, size_bytes: int, assoc: int, line_size: int,
                 stats: CacheStats | None = None) -> None:
        self.assoc = assoc
        self.num_sets = size_bytes // (assoc * line_size)
        if self.num_sets < 1:
            raise ValueError("cache smaller than one set")
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self._set_mask = self.num_sets - 1
        self._sets: list[dict[int, None]] = [
            {} for _ in range(self.num_sets)]
        self.stats = stats if stats is not None else CacheStats()

    def lookup(self, line_addr: int) -> bool:
        """Demand lookup: updates LRU and hit/miss statistics."""
        s = self._sets[line_addr & self._set_mask]
        if line_addr in s:
            del s[line_addr]
            s[line_addr] = None
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def probe(self, line_addr: int) -> bool:
        """RDF-style tag probe: checks presence, refreshes LRU on hit, but
        records under the probe counter rather than demand hits/misses."""
        s = self._sets[line_addr & self._set_mask]
        self.stats.accesses_probe += 1
        if line_addr in s:
            del s[line_addr]
            s[line_addr] = None
            return True
        return False

    def contains(self, line_addr: int) -> bool:
        """Pure presence check: no LRU update, no stats."""
        return line_addr in self._sets[line_addr & self._set_mask]

    def insert(self, line_addr: int) -> int | None:
        """Fill a line; returns the evicted line address, if any.

        With write-through caches the victim is always clean, so eviction
        costs no traffic; the return value exists for tests/diagnostics.
        """
        s = self._sets[line_addr & self._set_mask]
        victim = None
        if line_addr in s:
            del s[line_addr]
        elif len(s) >= self.assoc:
            victim = next(iter(s))
            del s[victim]
        s[line_addr] = None
        return victim

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line (NDP-write coherence, Section 4.2)."""
        s = self._sets[line_addr & self._set_mask]
        if line_addr in s:
            del s[line_addr]
            self.stats.invalidations += 1
            return True
        return False

    @staticmethod
    def invalidate_all(caches: "list[Cache]", line_addr: int) -> None:
        """Drop a line from each of a group of caches built with one
        geometry (the per-SM L1s): the set index is computed once, and
        each dropped copy counts as :meth:`invalidate` counts it."""
        idx = line_addr & caches[0]._set_mask
        for cache in caches:
            s = cache._sets[idx]
            if line_addr in s:
                del s[line_addr]
                cache.stats.invalidations += 1

    def touch_write(self, line_addr: int) -> None:
        """Write-through store: update the line if present (no allocate)."""
        s = self._sets[line_addr & self._set_mask]
        if line_addr in s:
            del s[line_addr]
            s[line_addr] = None

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)


class MSHRFile:
    """Miss-status holding registers: merge misses to the same line.

    An entry holds the waiters of one outstanding line, in arrival
    order; the owner decides what a waiter is (the L1's are load
    replays, the L2's SM ids).  ``allocate`` returns:

    * ``"new"``   -- primary miss, the caller must send the fill request;
    * ``"merged"``-- secondary miss, the waiter joins the existing entry;
    * ``"full"``  -- no entry available (structural stall).
    """

    def __init__(self, num_entries: int, stats: CacheStats) -> None:
        self.num_entries = num_entries
        self._entries: dict[int, list] = {}
        self.stats = stats

    def allocate(self, line_addr: int, waiter) -> str:
        entry = self._entries.get(line_addr)
        if entry is not None:
            entry.append(waiter)
            self.stats.mshr_merges += 1
            return "merged"
        if len(self._entries) >= self.num_entries:
            self.stats.mshr_rejects += 1
            return "full"
        self._entries[line_addr] = [waiter]
        return "new"

    def fill(self, line_addr: int) -> list:
        """Complete a miss: free the entry and return its waiters, in
        arrival order (empty if the line had no entry)."""
        return self._entries.pop(line_addr, [])

    def outstanding(self, line_addr: int) -> bool:
        return line_addr in self._entries

    def __len__(self) -> int:
        return len(self._entries)
