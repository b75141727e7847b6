"""Discrete-event core: event queue, bandwidth-limited links, clock ratios.

The simulator is cycle-granular in the *SM clock domain* (700 MHz).  Latency
and bandwidth of slower/faster domains (NSU at half rate, DRAM at ~1.05x,
crossbar at 1.79x) are expressed by converting to SM cycles; components that
issue work every cycle of their own domain use a :class:`RateAccumulator`.

Links model serialization honestly: a packet of ``size`` bytes occupies the
link for ``ceil(size / bytes_per_cycle)`` cycles and is delivered after an
additional fixed propagation latency.  Queueing is implicit in the
``busy_until`` horizon (an infinite-queue, finite-rate server), which is the
standard first-order model for serdes links; finite NDP buffers -- the ones
the paper's deadlock-avoidance protocol manages -- are modelled explicitly in
:mod:`repro.core`.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

#: Sentinel for "no argument bound" in a pooled event record.  Distinct
#: from ``None`` so callbacks may legitimately receive ``None``.
_NOARG = object()

#: Width of the near-future calendar lane, in cycles.  Events landing
#: within ``(now, now + CAL_SPAN]`` skip the heap entirely: the dominant
#: delays on the dense hot path (L1/L2 latencies, link hops) are small
#: constants, so most events ride the O(1) calendar instead of paying
#: two O(log n) heap operations.
CAL_SPAN = 8


class _EventRecord:
    """A pooled, reusable event.

    Records are recycled through the engine's free list after they fire
    (or after their tombstone drains), so steady-state scheduling does no
    allocation.  ``gen`` is a generation stamp: it increments on every
    recycle, so a stale handle held by a caller can never cancel (or
    observe) a later tenant of the same record -- see :meth:`Engine.cancel`.
    """

    __slots__ = ("time", "seq", "fn", "a", "b", "gen")

    def __init__(self) -> None:
        self.time = 0
        self.seq = 0
        self.fn: Callable | None = None
        self.a = _NOARG
        self.b = _NOARG
        self.gen = 0


def _bucket_time(bucket: "list[_EventRecord]") -> int:
    return bucket[0].time


class Engine:
    """An integer-time event queue with a pooled-record fast path.

    Components call :meth:`at` / :meth:`after` to schedule callbacks; the
    system driver interleaves :meth:`process_due` with per-cycle component
    ticks and may fast-forward over idle regions with :meth:`next_event_time`.

    Two scheduling lanes back the queue, invisible to callers:

    * a **calendar lane** of ``CAL_SPAN`` buckets for events due within
      ``(now, now + CAL_SPAN]`` -- append on schedule, splice on drain;
    * the classic **heap** for same-cycle and far-future events.

    :meth:`process_due` merges both lanes in strict global ``(time, seq)``
    order, so lane placement can never reorder same-cycle events --
    execution order is bit-identical to a single-heap engine.  The bucket
    invariant that makes the merge cheap: outside of :meth:`process_due`
    every bucket holds records of exactly one future time (a half-open
    ``CAL_SPAN`` window meets each residue class once), appended in
    ``seq`` order.

    Hot callers avoid per-event closure allocation with
    :meth:`call_at` / :meth:`call_after`, which bind up to two positional
    arguments directly into the pooled record and hand back a cancellable
    ``(record, generation)`` handle.
    """

    def __init__(self) -> None:
        self.now: int = 0
        # far/same-cycle lane: (time, seq, record) tuples -- seq is unique,
        # so heap comparisons never reach the record (C-speed ordering).
        self._events: list[tuple[int, int, _EventRecord]] = []
        self._cal: list[list[_EventRecord]] = [[] for _ in range(CAL_SPAN)]
        self._cal_count = 0
        self._free: list[_EventRecord] = []
        self._seq = 0
        self.events_processed = 0
        self.events_recycled = 0
        self.events_cancelled = 0
        self.calendar_events = 0
        self.subcycle_delays = 0

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, time: int, fn: Callable, a, b) -> _EventRecord:
        now = self.now
        if time < now:
            raise ValueError(f"cannot schedule at {time} < now {now}")
        free = self._free
        if free:
            rec = free.pop()
        else:
            rec = _EventRecord()
        self._seq += 1
        rec.time = time
        rec.seq = self._seq
        rec.fn = fn
        rec.a = a
        rec.b = b
        if now < time <= now + CAL_SPAN:
            self._cal[time % CAL_SPAN].append(rec)
            self._cal_count += 1
            self.calendar_events += 1
        else:
            heapq.heappush(self._events, (time, rec.seq, rec))
        return rec

    def at(self, time: int, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run at absolute cycle ``time``."""
        self._schedule(int(time), fn, _NOARG, _NOARG)

    def after(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run ``delay`` cycles from now (ceil'd).

        ``delay`` must be positive: a zero (or negative) delay would land
        the callback at ``now``, and whether it still runs this cycle then
        depends on where the caller sits relative to ``process_due`` -- the
        classic double-counting hazard for rate-domain callers converting
        fractional clock ratios.  Same-cycle scheduling must be explicit:
        use ``at(engine.now, fn)``.  Sub-cycle delays (0 < delay < 1) are
        legal and round up to one full cycle, but are counted in
        ``subcycle_delays`` so a misconverted clock ratio surfaces in the
        metrics summary instead of silently compressing to zero latency.
        """
        self._schedule(self.now + self._ceil_delay(delay), fn,
                       _NOARG, _NOARG)

    def _ceil_delay(self, delay: float) -> int:
        if delay <= 0:
            raise ValueError(
                f"after() requires a positive delay, got {delay!r}; "
                "use at(engine.now, fn) for explicit same-cycle scheduling")
        if delay < 1:
            self.subcycle_delays += 1
        return math.ceil(delay)

    def call_at(self, time: int, fn: Callable, a=_NOARG,
                b=_NOARG) -> tuple[_EventRecord, int]:
        """Like :meth:`at`, but binds up to two positional arguments into
        the pooled event record -- the allocation-free form hot callers use
        instead of constructing a closure per event.  Returns a
        ``(record, generation)`` handle accepted by :meth:`cancel`."""
        rec = self._schedule(int(time), fn, a, b)
        return rec, rec.gen

    def call_after(self, delay: float, fn: Callable, a=_NOARG,
                   b=_NOARG) -> tuple[_EventRecord, int]:
        """Argument-binding form of :meth:`after`; see :meth:`call_at`."""
        rec = self._schedule(self.now + self._ceil_delay(delay), fn, a, b)
        return rec, rec.gen

    def cancel(self, rec: _EventRecord, gen: int) -> bool:
        """Tombstone a scheduled event via its ``(record, generation)``
        handle.  Returns ``True`` if the event was live and is now dead.

        No allocation and no queue surgery: the record stays in its lane
        and is recycled when its time drains.  A stale handle -- the event
        already fired, was already cancelled, or the record now serves a
        later tenant -- is rejected by the generation stamp and this is a
        no-op, so double-cancel and cancel-after-fire are always safe."""
        if rec.gen != gen or rec.fn is None:
            return False
        rec.fn = None
        rec.a = _NOARG
        rec.b = _NOARG
        self.events_cancelled += 1
        return True

    # -- dispatch ------------------------------------------------------------

    def _recycle(self, rec: _EventRecord) -> None:
        rec.gen += 1
        rec.fn = None
        rec.a = _NOARG
        rec.b = _NOARG
        self._free.append(rec)
        self.events_recycled += 1

    def _take_due_calendar(self) -> list[_EventRecord] | None:
        """Splice out every due calendar bucket, merged in (time, seq)
        order.  Buckets are single-time and seq-ordered (class invariant),
        so this is a bucket sort, not a record sort."""
        now = self.now
        cal = self._cal
        due_buckets: list[list[_EventRecord]] | None = None
        for i in range(CAL_SPAN):
            b = cal[i]
            if b and b[0].time <= now:
                cal[i] = []
                self._cal_count -= len(b)
                if due_buckets is None:
                    due_buckets = [b]
                else:
                    due_buckets.append(b)
        if due_buckets is None:
            return None
        if len(due_buckets) == 1:
            return due_buckets[0]
        due_buckets.sort(key=_bucket_time)
        merged = due_buckets[0]
        for b in due_buckets[1:]:
            merged.extend(b)
        return merged

    def process_due(self) -> int:
        """Run all events scheduled at or before the current cycle, in
        strict global ``(time, seq)`` order across both lanes."""
        now = self.now
        n = 0
        heap = self._events
        due = self._take_due_calendar() if self._cal_count else None
        # After the splice above, callbacks can only add same-cycle events
        # to the heap (``at(now)``) or strictly-future events to either
        # lane, so re-checking the heap head each iteration is sufficient.
        i = 0
        nd = len(due) if due is not None else 0
        while True:
            if i < nd:
                rec = due[i]
                if heap:
                    h = heap[0]
                    ht = h[0]
                    if ht <= now and (ht < rec.time or
                                      (ht == rec.time and h[1] < rec.seq)):
                        rec = heapq.heappop(heap)[2]
                    else:
                        i += 1
                else:
                    i += 1
            elif heap and heap[0][0] <= now:
                rec = heapq.heappop(heap)[2]
            else:
                break
            fn = rec.fn
            if fn is not None:
                a = rec.a
                if a is _NOARG:
                    fn()
                elif rec.b is _NOARG:
                    fn(a)
                else:
                    fn(a, rec.b)
                n += 1
            self._recycle(rec)
        self.events_processed += n
        return n

    def next_event_time(self) -> int | None:
        t = self._events[0][0] if self._events else None
        if self._cal_count:
            for b in self._cal:
                if b:
                    bt = b[0].time
                    if t is None or bt < t:
                        t = bt
        return t

    @property
    def pending(self) -> int:
        """Scheduled-but-undrained events (tombstoned cancellations count
        until their time passes -- they still bound fast-forward)."""
        return len(self._events) + self._cal_count

    def metrics_snapshot(self) -> dict:
        """Counters/gauges published into the metrics registry."""
        return {"cycle": self.now, "pending_events": self.pending,
                "events_processed": self.events_processed,
                "events_recycled": self.events_recycled,
                "events_cancelled": self.events_cancelled,
                "calendar_events": self.calendar_events,
                "event_pool_free": len(self._free),
                "subcycle_delays": self.subcycle_delays}

    def drain(self, limit_cycles: int = 10 ** 9) -> None:
        """Advance time event-to-event until the queue is empty (tests)."""
        deadline = self.now + limit_cycles
        while self.now <= deadline:
            t = self.next_event_time()
            if t is None:
                break
            self.now = max(self.now, t)
            self.process_due()


class RateAccumulator:
    """Fractional clock-ratio accumulator.

    ``rate`` is the number of *local* cycles per SM cycle.  Each SM cycle,
    :meth:`step` returns the number of whole local cycles that elapse, so a
    350 MHz NSU (rate 0.5) executes on every other SM cycle and a 1250 MHz
    crossbar (rate ~1.79) gets one or two slots per SM cycle.
    """

    __slots__ = ("rate", "_acc")

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self._acc = 0.0

    def step(self) -> int:
        self._acc += self.rate
        n = int(self._acc)
        self._acc -= n
        return n

    def step_many(self, cycles: int) -> int:
        """Advance ``cycles`` SM cycles at once; returns local cycles elapsed."""
        self._acc += self.rate * cycles
        n = int(self._acc)
        self._acc -= n
        return n


class Link:
    """A unidirectional bandwidth-limited channel.

    ``traffic_class`` tags the link for traffic/energy accounting
    ("gpu_link", "mem_net", "intra_hmc").
    """

    __slots__ = ("engine", "name", "bytes_per_cycle", "latency",
                 "traffic_class", "busy_until", "bytes_sent",
                 "packets_sent", "counters")

    def __init__(self, engine: Engine, name: str, bytes_per_cycle: float,
                 latency: int = 4, traffic_class: str = "gpu_link",
                 counters: "LinkCounters | None" = None) -> None:
        if bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        self.engine = engine
        self.name = name
        self.bytes_per_cycle = bytes_per_cycle
        self.latency = latency
        self.traffic_class = traffic_class
        self.busy_until = 0
        self.bytes_sent = 0
        self.packets_sent = 0
        self.counters = counters

    def send(self, size_bytes: int, deliver: Callable[..., None],
             arg=_NOARG) -> int:
        """Transmit ``size_bytes``; call ``deliver`` on arrival.

        Returns the delivery cycle.  Serialization queues behind earlier
        packets (``busy_until``); propagation latency is added on top.
        ``arg``, when given, is bound into the pooled event record and
        passed to ``deliver`` -- hot senders use this instead of building
        a closure per packet.
        """
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")
        now = self.engine.now
        start = max(now, self.busy_until)
        ser = math.ceil(size_bytes / self.bytes_per_cycle)
        self.busy_until = start + ser
        arrival = self.busy_until + self.latency
        self.bytes_sent += size_bytes
        self.packets_sent += 1
        if self.counters is not None:
            self.counters.add(self.traffic_class, size_bytes)
        self.engine._schedule(arrival, deliver, arg, _NOARG)
        return arrival

    @property
    def queue_delay(self) -> int:
        """Cycles a packet submitted now would wait before serialization."""
        return max(0, self.busy_until - self.engine.now)

    def utilization(self, elapsed_cycles: int) -> float:
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.bytes_sent / (self.bytes_per_cycle * elapsed_cycles))


class LinkCounters:
    """Aggregate byte counters per traffic class (feeds the energy model)."""

    __slots__ = ("bytes_by_class",)

    def __init__(self) -> None:
        self.bytes_by_class: dict[str, int] = {}

    def add(self, traffic_class: str, nbytes: int) -> None:
        self.bytes_by_class[traffic_class] = (
            self.bytes_by_class.get(traffic_class, 0) + nbytes)

    def get(self, traffic_class: str) -> int:
        return self.bytes_by_class.get(traffic_class, 0)

    def total(self) -> int:
        return sum(self.bytes_by_class.values())
