"""Property-based tests (hypothesis) for core data structures and
invariants."""

import heapq
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import LINE_SIZE, NDPConfig, OffloadMode, SystemConfig, WORD_SIZE
from repro.core.credit import BufferCreditManager
from repro.core.decision import HillClimbingController
from repro.gpu.cache import Cache, CacheStats, MSHRFile
from repro.gpu.coalescer import coalesce
from repro.memory.address import AddressMap
from repro.memory.backend import backend_of
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
                res = m.allocate(line, 0)
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
        for backend in ("hmc", "cxl"):
            cfg = SystemConfig(num_hmcs=8, seed=seed % 100,
                               backend=backend)
            be = backend_of(cfg)
            amap = AddressMap(cfg)
            hmc = amap.hmc_of(addr)
            vault, bank, row = amap.locate(addr // LINE_SIZE)
            assert amap.hmc_of(addr) == hmc
            assert amap.locate(addr // LINE_SIZE) == (vault, bank, row)
            assert 0 <= hmc < 8
            assert 0 <= vault < be.vaults
            assert 0 <= bank < be.banks
            assert 0 <= row <= addr // be.row_bytes


class TestTopologyProperties:
    @given(st.integers(0, 63), st.integers(0, 63))
    def test_path_valid_and_minimal(self, src, dst):
        path = dimension_order_path(src, dst)
        assert path[0] == src and path[-1] == dst
        # Each hop flips exactly one bit; total hops = Hamming distance.
        for a, b in zip(path, path[1:]):
            assert bin(a ^ b).count("1") == 1
        assert len(path) - 1 == bin(src ^ dst).count("1")


class HeapOracle:
    """Reference event queue: one heap of ``(time, seq)`` entries, the
    order the engine must reproduce."""

    def __init__(self):
        self.now = 0
        self.heap = []
        self.seq = 0
        self.subcycle_delays = 0

    def call_at(self, time, fn, *args):
        assert time >= self.now
        self.seq += 1
        heapq.heappush(self.heap, (time, self.seq, fn, args))

    def call_after(self, delay, fn, *args):
        assert delay > 0
        if delay < 1:
            self.subcycle_delays += 1
        self.call_at(self.now + math.ceil(delay), fn, *args)

    def at(self, time, fn):
        self.call_at(time, fn)

    def after(self, delay, fn):
        self.call_after(delay, fn)

    def process_due(self):
        while self.heap and self.heap[0][0] <= self.now:
            _, _, fn, args = heapq.heappop(self.heap)
            fn(*args)

    def next_event_time(self):
        return self.heap[0][0] if self.heap else None

    @property
    def pending(self):
        return len(self.heap)

    def drain(self):
        while self.heap:
            self.now = max(self.now, self.heap[0][0])
            self.process_due()


class LinkOracle:
    """Reference link: a packet serializes behind the earlier ones
    (``busy_until``), then takes the propagation latency, and is
    delivered through the oracle's ``call_at``."""

    def __init__(self, oracle, bytes_per_cycle, latency):
        self.oracle = oracle
        self.bytes_per_cycle = bytes_per_cycle
        self.latency = latency
        self.busy_until = 0
        self.bytes_sent = 0

    def send(self, size, deliver, *args):
        start = max(self.oracle.now, self.busy_until)
        self.busy_until = start + math.ceil(size / self.bytes_per_cycle)
        self.bytes_sent += size
        arrival = self.busy_until + self.latency
        self.oracle.call_at(arrival, deliver, *args)
        return arrival


#: ``(bytes_per_cycle, latency)`` of the links a schedule program sends
#: on: a whole and a fractional rate, with and without latency.
LINKS = ((16, 3), (2.5, 0))


def make_links(engine):
    """The program's links on ``engine``: model links on the oracle."""
    if isinstance(engine, HeapOracle):
        return [LinkOracle(engine, bpc, lat) for bpc, lat in LINKS]
    return [Link(engine, f"l{i}", bpc, latency=lat)
            for i, (bpc, lat) in enumerate(LINKS)]


#: Offsets for ``at``/``call_at`` and delays for ``after``/``call_after``:
#: small ones collide on the same cycles, a few are far.  Delays are
#: whole ints, whole and fractional floats (1.0 is not sub-cycle), and
#: sub-cycle floats.
OFFSETS = st.sampled_from([0, 0, 1, 2, 3]) | st.sampled_from([40, 300])
DELAYS = (st.sampled_from([1, 1, 2, 3, 1.0, 2.0, 2.5, 0.5, 0.25])
          | st.sampled_from([40, 300]))
BOUND = st.lists(st.sampled_from([None, 0, "x"]), max_size=2)
#: A link send: which link, and the packet size.
SENDS = st.tuples(st.integers(0, len(LINKS) - 1),
                  st.sampled_from([1, 16, 17, 40, 100]))


def _event_op(children):
    """One scheduling call: ``(method, when, bound args, children)``.  A
    callback made by it schedules its children when it runs."""
    return st.one_of(
        st.tuples(st.just("at"), OFFSETS, st.just(()), children),
        st.tuples(st.just("after"), DELAYS, st.just(()), children),
        st.tuples(st.just("call_at"), OFFSETS, BOUND.map(tuple), children),
        st.tuples(st.just("call_after"), DELAYS, BOUND.map(tuple),
                  children),
        st.tuples(st.just("send"), SENDS,
                  st.lists(st.sampled_from([None, 0, "x"]),
                           max_size=1).map(tuple), children))


EVENT_OPS = st.recursive(_event_op(st.just(())),
                         lambda ops: _event_op(st.lists(ops, max_size=3)),
                         max_leaves=25)


def schedule_op(engine, links, op, label, log):
    """Schedule ``op`` on ``engine`` (a send goes over one of ``links``);
    its callback logs ``label``, the cycle and the arguments it got, then
    schedules its children."""
    method, when, args, children = op

    def fire(*got):
        log.append((label, engine.now, got))
        for i, child in enumerate(children):
            schedule_op(engine, links, child, label + (i,), log)

    if method == "at":
        engine.at(engine.now + when, fire)
    elif method == "after":
        engine.after(when, fire)
    elif method == "call_at":
        engine.call_at(engine.now + when, fire, *args)
    elif method == "call_after":
        engine.call_after(when, fire, *args)
    else:
        link, size = when
        links[link].send(size, fire, *args)


class TestEngineProperties:
    """The engine's dispatch order, ``pending`` and ``next_event_time``
    equal a single ``(time, seq)`` heap's on drawn schedule programs:
    top-level calls at cycle 0, calls injected after ``process_due`` at
    later cycles (as ticks make them), callbacks that schedule more
    events at ``now`` and later, and link deliveries.  Only delays below
    one cycle count in ``subcycle_delays``."""

    @staticmethod
    def step(engine, program, injected):
        """Drive one cycle at a time; returns the dispatch log, the
        ``(now, pending, next_event_time)`` trail after each cycle, the
        sub-cycle delay count and the bytes each link sent."""
        log, trail = [], []
        links = make_links(engine)
        for i, op in enumerate(program):
            schedule_op(engine, links, op, (i,), log)
        last = max((c for c, _ in injected), default=0)
        while True:
            engine.process_due()
            for i, (cycle, op) in enumerate(injected):
                if cycle == engine.now:
                    schedule_op(engine, links, op, ("tick", i), log)
            nt = engine.next_event_time()
            trail.append((engine.now, engine.pending, nt))
            if nt is None and engine.now >= last:
                return (log, trail, engine.subcycle_delays,
                        [l.bytes_sent for l in links])
            engine.now += 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(EVENT_OPS, min_size=1, max_size=6),
           st.lists(st.tuples(st.integers(0, 6), EVENT_OPS), max_size=3))
    def test_stepping_matches_heap_oracle(self, program, injected):
        e = Engine()
        run = self.step(e, program, injected)
        assert run == self.step(HeapOracle(), program, injected)
        assert e.events_processed == len(run[0])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(EVENT_OPS, min_size=1, max_size=6))
    def test_drain_matches_heap_oracle(self, program):
        runs = []
        for engine in (Engine(), HeapOracle()):
            log = []
            links = make_links(engine)
            for i, op in enumerate(program):
                schedule_op(engine, links, op, (i,), log)
            before = (engine.pending, engine.next_event_time())
            engine.drain()
            runs.append((log, before, engine.now, engine.pending,
                         engine.next_event_time(), engine.subcycle_delays,
                         [l.bytes_sent for l in links]))
        assert runs[0] == runs[1]
        assert runs[0][3:5] == (0, None)


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
                m.release(0, cmd=1, read_data=n_ld, write_addr=n_st)
            e.drain()
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
