"""Runtime fault injection: evaluate a :class:`~repro.faults.plan.FaultPlan`
against the simulation's event streams.

One :class:`FaultInjector` is armed per system; the hooked components
(fabrics, vaults, NSUs, the credit manager) each hold a reference that is
``None`` when no plan is armed, so the clean path costs a single attribute
test and stays cycle-exact.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Callable

from repro.faults.plan import FaultPlan, FaultSpec

#: Cycles after the injection decision at which a ``lost`` callback fires
#: (models the packet dying some hops into its route).
LOSS_NOTIFY_DELAY = 20


class _SpecState:
    """Mutable per-run state of one FaultSpec: its RNG and event count."""

    __slots__ = ("spec", "rng", "seen")

    def __init__(self, spec: FaultSpec, rng: random.Random) -> None:
        self.spec = spec
        self.rng = rng
        self.seen = 0       # events observed at the site

    def fires(self) -> bool:
        self.seen += 1
        s = self.spec
        return (self.seen in s.at_events
                or (s.rate and self.rng.random() < s.rate))


class FaultInjector:
    """Evaluates an armed plan at each hooked site."""

    def __init__(self, plan: FaultPlan, engine) -> None:
        self.plan = plan
        self.engine = engine
        self._by_site: dict[str, list[_SpecState]] = defaultdict(list)
        for i, spec in enumerate(plan.specs):
            rng = random.Random(f"{plan.seed}:{spec.site}:{i}")
            self._by_site[spec.site].append(_SpecState(spec, rng))
        self.fired: dict[tuple[str, str], int] = defaultdict(int)

    # -- decision ----------------------------------------------------------

    def decide(self, site: str) -> FaultSpec | None:
        """Count one event at ``site``; return the winning spec (first in
        plan order) if a fault fires, else None."""
        states = self._by_site.get(site)
        if not states:
            return None
        winner = None
        for st in states:
            if st.fires() and winner is None:
                winner = st.spec
        if winner is not None:
            self.fired[(site, winner.kind)] += 1
        return winner

    def packet(self, site: str, deliver: Callable[[], None],
               lost: Callable[[], None] | None = None):
        """Filter one packet send.  Returns the (possibly wrapped)
        ``deliver`` callback, or None when the packet is dropped -- in
        which case ``lost`` is scheduled so the sender can reconcile
        conservation counters."""
        spec = self.decide(site)
        if spec is None:
            return deliver
        if spec.kind == "delay":
            d = spec.delay_cycles
            return lambda: self.engine.after(d, deliver)
        # drop / corrupt: the receiver never sees the packet.
        if lost is not None:
            self.engine.after(LOSS_NOTIFY_DELAY, lost)
        return None

    # -- introspection -----------------------------------------------------

    @property
    def total_fired(self) -> int:
        return sum(self.fired.values())

    def snapshot(self) -> dict:
        """Per-site event/fire counts for RunResult.extra and metrics."""
        events = {site: sum(st.seen for st in states)
                  for site, states in sorted(self._by_site.items())}
        fired = {f"{site}.{kind}": n
                 for (site, kind), n in sorted(self.fired.items())}
        return {"plan": self.plan.name, "seed": self.plan.seed,
                "events": events, "fired": fired,
                "total_fired": self.total_fired}

    def metrics_counters(self) -> dict[str, int]:
        return {f"faults.{site}.{kind}": n
                for (site, kind), n in sorted(self.fired.items())}
