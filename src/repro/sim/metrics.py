"""Structured run-level observability: counters, histograms, heartbeats.

A :class:`MetricsRegistry` attaches to a :class:`~repro.sim.system.System`
(``System(cfg, metrics=registry)`` or ``run_workload(..., metrics=...)``).
During the run the system samples every component's ``metrics_snapshot()``
on a heartbeat cadence -- SMs, NSUs, HMC vaults, the two link fabrics and
the event engine all publish into the registry -- and at the end it writes
a summary with stall attribution, packet counts by kind, per-class traffic
bytes and the cycle-phase split (stepped vs. fast-forwarded cycles).

Export is JSON Lines (one record per line), designed to be greppable and
to stream into pandas:

* ``{"kind": "meta", ...}``       -- one leading record: workload, config,
  scale, heartbeat cadence, schema version.
* ``{"kind": "heartbeat", "cycle": C, "gauges": {...}, "counters": {...}}``
  -- periodic samples; gauges are instantaneous (queue depths, live
  warps), counters are cumulative at the sample point.
* ``{"kind": "summary", ...}``    -- final counters, histograms, the
  Figure 8 stall attribution and packet-kind totals.

See ``docs/observability.md`` for the full schema and how to read a
stall-attribution dump.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Schema version stamped into every export's meta record.  Bump when the
#: record layout changes incompatibly.
SCHEMA_VERSION = 1

#: Default sampling cadence in SM cycles.
DEFAULT_HEARTBEAT_CYCLES = 1000

#: Default histogram bucket upper bounds (occupancy-style quantities).
DEFAULT_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)

#: The metric-name registry: every dotted name published into a
#: :class:`MetricsRegistry` must appear here, either verbatim or by
#: matching a ``prefix.*`` pattern (names keyed by an open vocabulary:
#: packet kinds, fault sites, traffic classes, recovery counters).
#: ``repro lint`` (PROTO002) statically checks emission sites against
#: this set, so a typo'd metric name fails CI instead of silently
#: splitting a time series.
KNOWN_METRICS = frozenset({
    # SM / NSU execution
    "sm.live_warps", "sm.ready_warps", "sm.instructions",
    "nsu.warps", "nsu.cmd_queue", "nsu.read_buf", "nsu.wta_buf",
    "nsu.instructions",
    "warps.completed",
    # memory system
    "vault.queue_total", "vault.queue_max", "vault.queue_occupancy",
    "dram.activations", "l2.misses",
    # fabrics / engine
    "gpu_link.max_queue_delay", "mem_net.max_queue_delay",
    "engine.pending_events",
    # Figure 8 stall attribution
    "stall.exec_unit_busy", "stall.dependency", "stall.warp_idle",
    # open vocabularies
    "traffic.*", "packets.*", "faults.*", "recovery.*",
    # design-space exploration (repro explore) counters
    "explore.*",
    # simulation-as-a-service daemon (repro serve) counters/latencies
    "serve.*",
    # runtime lock-sanitizer counters (repro.lint.sanitize, armed via
    # REPRO_SANITIZE=1)
    "sanitize.*",
})


@dataclass
class Counter:
    """A cumulative metric.  ``add`` increments; ``set`` records the
    latest cumulative value published by a component that keeps its own
    running total (never moving backwards)."""

    name: str
    value: int | float = 0

    def add(self, n: int | float = 1) -> None:
        self.value += n

    def set(self, v: int | float) -> None:
        if v > self.value:
            self.value = v


class Histogram:
    """Fixed-bound histogram with count/sum/max, Prometheus-style.

    ``bounds`` are inclusive upper bounds of each bucket; observations
    above the last bound land in the overflow bucket.
    """

    def __init__(self, name: str, bounds=DEFAULT_BOUNDS) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        for i, b in enumerate(self.bounds):
            if value <= b:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-th percentile (0..100) from
        the bucket counts: the smallest bound holding at least ``q``% of
        observations (``max`` for the overflow bucket).  Exact enough for
        the serve daemon's p50/p99 latency gauges."""
        if not self.count:
            return 0.0
        need = self.count * min(max(q, 0.0), 100.0) / 100.0
        seen = 0
        for i, b in enumerate(self.bounds):
            seen += self.buckets[i]
            if seen >= need:
                return float(b)
        return float(self.max)

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "mean": self.mean,
            "max": self.max,
        }


class MetricsRegistry:
    """Named counters + histograms + a stream of timestamped records."""

    def __init__(self, heartbeat_cycles: int = DEFAULT_HEARTBEAT_CYCLES) -> None:
        self.heartbeat_cycles = max(1, int(heartbeat_cycles))
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Histogram] = {}
        self.records: list[dict] = []
        self.meta: dict = {}

    # -- metric handles ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def histogram(self, name: str, bounds=DEFAULT_BOUNDS) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, bounds)
        return h

    def observe(self, name: str, value: float, bounds=DEFAULT_BOUNDS) -> None:
        self.histogram(name, bounds).observe(value)

    def set_counters(self, values: dict[str, int | float],
                     prefix: str = "") -> None:
        """Publish a component's cumulative counters under a prefix."""
        for k, v in sorted(values.items()):
            self.counter(f"{prefix}{k}" if prefix else k).set(v)

    # -- record stream -------------------------------------------------------

    def record(self, kind: str, **fields) -> dict:
        rec = {"kind": kind, **fields}
        self.records.append(rec)
        return rec

    def heartbeat(self, cycle: int, gauges: dict,
                  counters: dict | None = None) -> dict:
        return self.record("heartbeat", cycle=cycle, gauges=gauges,
                           counters=counters or {})

    @property
    def heartbeats(self) -> list[dict]:
        return [r for r in self.records if r["kind"] == "heartbeat"]

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict:
        """All counters + histograms as one plain dict."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "histograms": {k: h.as_dict()
                           for k, h in sorted(self.histograms.items())},
        }

    def to_records(self) -> list[dict]:
        """The full export: meta record, stream, then one summary."""
        meta = {"kind": "meta", "schema_version": SCHEMA_VERSION,
                "heartbeat_cycles": self.heartbeat_cycles, **self.meta}
        summary = {"kind": "summary", **self.snapshot()}
        for r in self.records:
            if r["kind"] == "summary":
                # A system already published a structured summary; keep it
                # and fold the registry totals into it.
                merged = dict(r)
                merged.update(summary)
                return [meta] + [x for x in self.records
                                 if x["kind"] != "summary"] + [merged]
        return [meta] + list(self.records) + [summary]

    def export_jsonl(self, path) -> int:
        """Write the JSONL stream; returns the number of records."""
        recs = self.to_records()
        with open(path, "w") as f:
            for r in recs:
                f.write(json.dumps(r, default=_jsonable) + "\n")
        return len(recs)


def _jsonable(obj):
    if isinstance(obj, (set, tuple)):
        return list(obj)
    if hasattr(obj, "as_dict"):
        return obj.as_dict()
    return repr(obj)


def read_jsonl(path) -> list[dict]:
    """Load a metrics export back into a list of records."""
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


@dataclass
class PhaseCycles:
    """Cycle-accounting of the main loop: how simulated time was spent."""

    stepped: int = 0          # cycles advanced one-by-one with live issue
    fast_forwarded: int = 0   # cycles skipped across quiet regions
    epochs: int = 0           # Algorithm 1 epoch boundaries crossed
    events: int = 0           # engine callbacks processed
    heartbeats: int = 0
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"stepped": self.stepped,
                "fast_forwarded": self.fast_forwarded,
                "total": self.stepped + self.fast_forwarded,
                "epochs": self.epochs, "events": self.events,
                "heartbeats": self.heartbeats, **self.extra}
