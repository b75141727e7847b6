"""Property-based tests (hypothesis) for core data structures and
invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import LINE_SIZE, NDPConfig, OffloadMode, SystemConfig, WORD_SIZE
from repro.core.credit import BufferCreditManager
from repro.core.decision import HillClimbingController
from repro.gpu.cache import Cache, CacheStats, MSHRFile
from repro.gpu.coalescer import coalesce
from repro.memory.address import AddressMap
from repro.network.topology import dimension_order_path
from repro.sim.engine import Engine, Link


class TestCoalescerProperties:
    @given(st.lists(st.integers(0, 1 << 40), min_size=1, max_size=32))
    def test_words_bounded_by_lanes(self, addrs):
        accs = coalesce(np.array(addrs, dtype=np.int64) * WORD_SIZE)
        assert 1 <= len(accs) <= len(addrs)
        assert sum(a.words for a in accs) <= len(addrs)
        assert all(a.words >= 1 for a in accs)

    @given(st.lists(st.integers(0, 1 << 40), min_size=1, max_size=32))
    def test_lines_cover_all_addresses(self, addrs):
        byte_addrs = np.array(addrs, dtype=np.int64) * WORD_SIZE
        accs = coalesce(byte_addrs)
        lines = {a.line_addr for a in accs}
        assert lines == set((byte_addrs // LINE_SIZE).tolist())

    @given(st.lists(st.integers(0, 1 << 40), min_size=1, max_size=32))
    def test_coalesce_is_permutation_invariant_in_content(self, addrs):
        a1 = coalesce(np.array(addrs, dtype=np.int64))
        a2 = coalesce(np.array(addrs[::-1], dtype=np.int64))
        assert sorted((x.line_addr, x.words) for x in a1) == \
            sorted((x.line_addr, x.words) for x in a2)


def coalesce_oracle(addrs, active, word_size):
    """Pure-Python coalescer: each touched line maps to its set of word
    indices; a row is aligned iff it touches one line and its k-th active
    lane sits at offset ``k * word_size``."""
    lanes = [a for a, on in zip(addrs, active) if on]
    words: dict[int, set[int]] = {}
    for a in lanes:
        words.setdefault(a // LINE_SIZE, set()).add(a % LINE_SIZE // word_size)
    aligned = len(words) == 1 and all(
        a % LINE_SIZE == k * word_size for k, a in enumerate(lanes))
    return [(line, len(w), not aligned) for line, w in sorted(words.items())]


@st.composite
def lane_batches(draw):
    """(addrs, active, word_size): ``(N, L)`` rows of byte addresses with
    masks that include all-inactive and all-active rows, and rows that are
    random within a few lines or lane-ordered from a line's start."""
    n = draw(st.integers(1, 4))
    width = draw(st.integers(1, 64))
    word_size = draw(st.sampled_from([4, 8]))
    addrs, active = [], []
    for _ in range(n):
        mask = np.array(draw(st.one_of(
            st.lists(st.booleans(), min_size=width, max_size=width),
            st.just([False] * width), st.just([True] * width))))
        # Small bases make neighbouring rows share lines.
        base = draw(st.integers(0, 3) | st.integers(0, 1 << 34)) * LINE_SIZE
        kind = draw(st.sampled_from(["random", "packed", "lanes"]))
        if kind == "random":      # a few lines, repeated words
            row = base + np.array(draw(st.lists(
                st.integers(0, 3 * LINE_SIZE - 1),
                min_size=width, max_size=width)))
        elif kind == "packed":    # the k-th active lane at k * word_size
            row = base + (np.cumsum(mask) - 1) * word_size
        else:                     # lane i at i * word_size
            row = base + np.arange(width) * word_size
        addrs.append(row)
        active.append(mask)
    return (np.array(addrs, dtype=np.int64), np.array(active, dtype=bool),
            word_size)


class TestCoalescerBatchProperties:
    @settings(max_examples=150, deadline=None)
    @given(lane_batches())
    def test_batch_equals_rows_and_oracle(self, batch):
        addrs, active, word_size = batch
        rows = coalesce(addrs, active, word_size)
        assert len(rows) == len(addrs)
        for a, m, got in zip(addrs, active, rows):
            one = coalesce(a, m, word_size)
            assert got == one
            assert [(x.line_addr, x.words, x.irregular) for x in one] == \
                coalesce_oracle(a.tolist(), m.tolist(), word_size)


class TestCacheProperties:
    @given(st.lists(st.integers(0, 512), min_size=1, max_size=300))
    def test_occupancy_never_exceeds_capacity(self, lines):
        c = Cache(4096, 4, 128)
        cap = c.num_sets * c.assoc
        for l in lines:
            if not c.lookup(l):
                c.insert(l)
            assert c.occupancy <= cap

    @given(st.lists(st.integers(0, 64), min_size=1, max_size=200))
    def test_inserted_line_immediately_hits(self, lines):
        c = Cache(4096, 4, 128)
        for l in lines:
            c.insert(l)
            assert c.contains(l)

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 32)),
                    min_size=1, max_size=200))
    def test_mshr_entries_conserved(self, ops):
        stats = CacheStats()
        m = MSHRFile(8, stats)
        outstanding = set()
        for is_alloc, line in ops:
            if is_alloc:
                res = m.allocate(line, lambda: None)
                if res == "new":
                    outstanding.add(line)
                assert len(m) <= 8
            elif line in outstanding:
                m.fill(line)
                outstanding.discard(line)
            assert len(m) == len(outstanding)


class TestAddressMapProperties:
    @given(st.integers(0, 1 << 45), st.integers(1, 1 << 16))
    def test_decode_is_total_and_stable(self, addr, seed):
        amap = AddressMap(SystemConfig(num_hmcs=8, seed=seed % 100))
        loc1 = amap.decode(addr)
        loc2 = amap.decode(addr)
        assert loc1 == loc2
        assert 0 <= loc1.hmc < 8
        assert 0 <= loc1.vault < 16
        assert 0 <= loc1.bank < 16

    @given(st.lists(st.integers(0, 1 << 30), min_size=1, max_size=64))
    def test_vectorized_always_matches_scalar(self, lines):
        amap = AddressMap(SystemConfig(num_hmcs=8))
        arr = np.array(lines, dtype=np.int64)
        vec = amap.hmc_of_lines(arr).tolist()
        scalar = [amap.hmc_of(l * LINE_SIZE) for l in lines]
        assert vec == scalar


class TestTopologyProperties:
    @given(st.integers(0, 63), st.integers(0, 63))
    def test_path_valid_and_minimal(self, src, dst):
        path = dimension_order_path(src, dst)
        assert path[0] == src and path[-1] == dst
        # Each hop flips exactly one bit; total hops = Hamming distance.
        for a, b in zip(path, path[1:]):
            assert bin(a ^ b).count("1") == 1
        assert len(path) - 1 == bin(src ^ dst).count("1")


class TestLinkProperties:
    @given(st.lists(st.integers(1, 4096), min_size=1, max_size=40))
    def test_serialization_lower_bound(self, sizes):
        e = Engine()
        link = Link(e, "l", bytes_per_cycle=16, latency=3)
        done = []
        for s in sizes:
            link.send(s, lambda: done.append(e.now))
        e.drain()
        assert len(done) == len(sizes)
        # Total bytes cannot beat the link bandwidth.
        import math
        min_cycles = sum(math.ceil(s / 16) for s in sizes)
        assert max(done) >= min_cycles

    @given(st.lists(st.integers(1, 4096), min_size=2, max_size=40))
    def test_fifo_delivery_order(self, sizes):
        e = Engine()
        link = Link(e, "l", bytes_per_cycle=8, latency=2)
        order = []
        for i, s in enumerate(sizes):
            link.send(s, lambda i=i: order.append(i))
        e.drain()
        assert order == sorted(order)


class TestCreditProperties:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)),
                    min_size=1, max_size=60))
    def test_credits_never_negative_or_overflow(self, reservations):
        e = Engine()
        m = BufferCreditManager(e, 1, cmd_entries=10, read_data_entries=16,
                                write_addr_entries=16)
        granted = []
        pending = []
        for n_ld, n_st in reservations:
            res = m.reserve(0, num_loads=n_ld, num_stores=n_st,
                            on_grant=lambda r=(n_ld, n_st): granted.append(r))
            pending.append(res)
            cmd, rd, wa = m.available(0)
            assert cmd >= 0 and rd >= 0 and wa >= 0
        # Release everything granted; all queued reservations must drain.
        done = set()
        while len(done) < len(granted):
            for i, (n_ld, n_st) in enumerate(list(granted)):
                if i in done:
                    continue
                done.add(i)
                m.release(0, cmd=1, read_data=n_ld, write_addr=n_st, delay=0)
        assert len(granted) == len(reservations)
        m.assert_conserved()


class TestHillClimbingProperties:
    @given(st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1,
                    max_size=100))
    def test_ratio_always_in_unit_interval(self, ipcs):
        c = HillClimbingController(NDPConfig(mode=OffloadMode.DYNAMIC))
        for v in ipcs:
            r = c.end_epoch(v)
            assert 0.0 <= r <= 1.0
            assert c.cfg.step_min <= c.step <= c.cfg.step_max
