"""Unit tests for the cache and MSHR models."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.cache import Cache, CacheStats, MSHRFile


def mk(size=4096, assoc=4, line=128):
    return Cache(size, assoc, line)


class TestCache:
    def test_miss_then_hit(self):
        c = mk()
        assert not c.lookup(10)
        c.insert(10)
        assert c.lookup(10)
        assert c.stats.hits == 1
        assert c.stats.misses == 1

    def test_lru_eviction_order(self):
        c = Cache(4 * 128, 4, 128)  # one set, 4 ways
        for line in range(4):
            c.insert(line * c.num_sets)  # all map to set 0
        victim = c.insert(100 * c.num_sets)
        assert victim == 0

    def test_lookup_refreshes_lru(self):
        c = Cache(4 * 128, 4, 128)
        for line in range(4):
            c.insert(line)
        c.lookup(0)                  # 0 becomes MRU
        victim = c.insert(400)
        assert victim == 1

    def test_insert_existing_no_eviction(self):
        c = mk()
        c.insert(5)
        assert c.insert(5) is None
        assert c.occupancy == 1

    def test_invalidate(self):
        c = mk()
        c.insert(7)
        assert c.invalidate(7)
        assert not c.lookup(7)
        assert not c.invalidate(7)
        assert c.stats.invalidations == 1

    def test_probe_does_not_count_demand(self):
        c = mk()
        c.insert(3)
        assert c.probe(3)
        assert not c.probe(4)
        assert c.stats.hits == 0 and c.stats.misses == 0
        assert c.stats.accesses_probe == 2

    def test_touch_write_no_allocate(self):
        c = mk()
        c.touch_write(9)
        assert not c.contains(9)

    def test_sets_power_of_two_required(self):
        with pytest.raises(ValueError):
            Cache(3 * 128 * 4, 4, 128)

    def test_distinct_sets_do_not_conflict(self):
        c = mk(size=2 * 4 * 128)   # 2 sets
        c.insert(0)
        c.insert(1)
        assert c.contains(0) and c.contains(1)

    def test_hit_rate(self):
        c = mk()
        c.insert(1)
        c.lookup(1)
        c.lookup(2)
        assert c.stats.hit_rate == pytest.approx(0.5)


class LRUModel:
    """True-LRU reference: one ``OrderedDict`` per set, oldest first."""

    def __init__(self, num_sets, assoc):
        self.assoc = assoc
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.stats = CacheStats()

    def _set(self, line):
        return self.sets[line % len(self.sets)]

    def lookup(self, line):
        s = self._set(line)
        if line in s:
            s.move_to_end(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def probe(self, line):
        s = self._set(line)
        self.stats.accesses_probe += 1
        if line in s:
            s.move_to_end(line)
            return True
        return False

    def contains(self, line):
        return line in self._set(line)

    def insert(self, line):
        s = self._set(line)
        if line in s:
            s.move_to_end(line)
            return None
        victim = None
        if len(s) >= self.assoc:
            victim, _ = s.popitem(last=False)
        s[line] = None
        return victim

    def invalidate(self, line):
        s = self._set(line)
        if line in s:
            del s[line]
            self.stats.invalidations += 1
            return True
        return False

    def touch_write(self, line):
        s = self._set(line)
        if line in s:
            s.move_to_end(line)


CACHE_OPS = ("lookup", "probe", "insert", "invalidate", "touch_write",
             "contains")


@st.composite
def cache_runs(draw):
    """A cache geometry and a call sequence over a few more lines than
    the cache holds, so hits, misses and evictions all happen."""
    num_sets = draw(st.sampled_from([1, 2, 4]))
    assoc = draw(st.sampled_from([1, 2, 4, 8]))
    lines = st.integers(0, num_sets * (assoc + 2) - 1)
    ops = draw(st.lists(st.tuples(st.sampled_from(CACHE_OPS), lines),
                        min_size=60, max_size=300))
    return num_sets, assoc, ops


class TestCacheAgainstLRUModel:
    @settings(max_examples=200, deadline=None)
    @given(cache_runs())
    def test_same_results_victims_and_stats(self, run):
        num_sets, assoc, ops = run
        cache = Cache(num_sets * assoc * 128, assoc, 128)
        model = LRUModel(num_sets, assoc)
        for op, line in ops:
            assert getattr(cache, op)(line) == getattr(model, op)(line), \
                (op, line)
        assert cache.stats == model.stats
        assert cache.occupancy == sum(len(s) for s in model.sets)


class TestMSHR:
    def test_new_then_merge(self):
        stats = CacheStats()
        m = MSHRFile(4, stats)
        assert m.allocate(5, "a") == "new"
        assert m.allocate(5, "b") == "merged"
        assert stats.mshr_merges == 1
        assert m.fill(5) == ["a", "b"]

    def test_full_rejects(self):
        stats = CacheStats()
        m = MSHRFile(2, stats)
        assert m.allocate(1, 0) == "new"
        assert m.allocate(2, 0) == "new"
        assert m.allocate(3, 0) == "full"
        assert stats.mshr_rejects == 1

    def test_merge_allowed_when_full(self):
        stats = CacheStats()
        m = MSHRFile(1, stats)
        m.allocate(1, 0)
        assert m.allocate(1, 0) == "merged"

    def test_fill_frees_entry(self):
        m = MSHRFile(1, CacheStats())
        m.allocate(1, 0)
        m.fill(1)
        assert m.allocate(2, 0) == "new"

    def test_fill_unknown_line_noop(self):
        m = MSHRFile(1, CacheStats())
        assert m.fill(42) == []
