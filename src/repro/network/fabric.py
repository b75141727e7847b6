"""Link fabrics: the inter-HMC memory network and the GPU off-chip links.

Both fabrics are built from :class:`repro.sim.engine.Link` servers, one per
(edge, direction).  The memory network forwards packets hop-by-hop along the
dimension-order route so every traversed link pays serialization -- this is
what makes multi-hop RDF forwarding cost real bandwidth, and what keeps
inter-HMC data movement off the GPU links (the paper's central bandwidth
argument).

Both fabrics carry an optional fault injector (``repro.faults``): when a
plan is armed, every send is filtered and may be dropped, delayed or
corrupted.  Senders that maintain conservation counters pass a ``lost``
callback that fires when their packet dies in flight.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.config import SystemConfig
from repro.memory.backend import backend_of
from repro.network.topology import dimension_order_path, hypercube_topology
from repro.sim.engine import _NOARG, Engine, Link

#: Per-hop router pipeline latency (SM cycles).
HOP_LATENCY = 6


class _HopWalk:
    """One packet's hop-by-hop traversal of the memory network.

    Replaces the per-hop forwarding closure: the network binds the walk
    record into each link-arrival event (``Engine.call_at`` via
    ``Link.send``'s argument-carrying form) and advances ``hop`` in
    place until the last hop delivers.
    """

    __slots__ = ("path", "hop", "size", "deliver")

    def __init__(self, path: tuple[int, ...], size: int,
                 deliver: Callable[[], None]) -> None:
        self.path = path
        self.hop = 0
        self.size = size
        self.deliver = deliver


class MemoryNetwork:
    """Hypercube of device-to-device links: HMC serdes, or a CXL switch
    fabric on the ``cxl`` substrate (the record's ``net_bpc``)."""

    def __init__(self, engine: Engine, cfg: SystemConfig) -> None:
        self.engine = engine
        self.cfg = cfg
        self.faults = None   # armed by the system when a plan is active
        bpc = backend_of(cfg).net_bpc
        self._links: dict[tuple[int, int], Link] = {}
        for u, v in hypercube_topology(cfg.num_hmcs):
            for a, b in ((u, v), (v, u)):
                self._links[(a, b)] = Link(
                    engine, f"net{a}->{b}", bpc, latency=HOP_LATENCY)
        # Every (src, dst) route, built once: a routed packet shares its
        # pair's tuple instead of building a path list.
        nodes = range(cfg.num_hmcs)
        self._routes: dict[tuple[int, int], tuple[int, ...]] = {
            (s, d): tuple(dimension_order_path(s, d))
            for s in nodes for d in nodes}

    def send(self, src: int, dst: int, size_bytes: int,
             deliver: Callable[[], None],
             lost: Callable[[], None] | None = None) -> None:
        """Route a packet from stack ``src`` to stack ``dst``.

        ``deliver`` fires at the destination's logic layer.  Local traffic
        (src == dst) skips the network entirely.  ``lost`` fires instead of
        ``deliver`` if an armed fault plan kills the packet in flight.

        Every delivery — including the local src == dst shortcut — runs
        as an engine event, never inline in the caller's frame.
        ``System.run`` relies on this: no packet may wake an SM
        synchronously from inside another component's tick
        (invariant I3, docs/performance.md).
        """
        try:
            path = self._routes[(src, dst)]
        except KeyError:
            raise ValueError(f"no memory-network node pair ({src}, {dst}) "
                             f"among {self.cfg.num_hmcs} stacks") from None
        if self.faults is not None:
            deliver = self.faults.packet("mem_net", deliver, lost)
            if deliver is None:
                return
        if src == dst:
            self.engine.at(self.engine.now, deliver)
            return
        self._step(_HopWalk(path, size_bytes, deliver))

    def _step(self, walk: _HopWalk) -> None:
        """Advance one hop; the link arrival re-enters here with the same
        record until the last hop, which delivers."""
        path = walk.path
        hop = walk.hop
        if hop == len(path) - 1:
            walk.deliver()
            return
        link = self._links[(path[hop], path[hop + 1])]
        walk.hop = hop + 1
        link.send(walk.size, self._step, walk)

    def total_bytes(self) -> int:
        return sum(l.bytes_sent for l in self._links.values())

    def metrics_snapshot(self) -> dict:
        """Counters/gauges published into the metrics registry."""
        links = self._links.values()
        return {
            "bytes": self.total_bytes(),
            "packets": sum(l.packets_sent for l in links),
            "max_queue_delay": max((l.queue_delay for l in links), default=0),
        }


class GPULinks:
    """The GPU's off-chip links, one bidirectional link per HMC.

    Table 2: 8 bidirectional links at 20 GB/s per direction.  With 8 stacks,
    each stack hangs off one dedicated link (the memory-network footnote of
    Figure 1); requests to stack ``i`` serialize on link ``i`` downstream and
    responses on link ``i`` upstream.
    """

    def __init__(self, engine: Engine, cfg: SystemConfig) -> None:
        if cfg.gpu.num_links != cfg.num_hmcs:
            raise ValueError(
                f"system wiring expects one GPU link per HMC "
                f"({cfg.gpu.num_links} links, {cfg.num_hmcs} HMCs)")
        self.engine = engine
        self.faults = None   # armed by the system when a plan is active
        # The substrate record sets each direction's rate and latency:
        # symmetric on the HMC (Table 2), asymmetric on CXL.mem.
        be = backend_of(cfg)
        self.down: list[Link] = []   # GPU -> HMC
        self.up: list[Link] = []     # HMC -> GPU
        for i in range(cfg.num_hmcs):
            self.down.append(Link(engine, f"gpu->hmc{i}", be.link_down_bpc,
                                  latency=be.link_down_latency))
            self.up.append(Link(engine, f"hmc{i}->gpu", be.link_up_bpc,
                                latency=be.link_up_latency))

    def to_hmc(self, hmc: int, size_bytes: int, deliver: Callable,
               lost: Callable | None = None, arg=_NOARG) -> None:
        """Send ``size_bytes`` down link ``hmc``; ``deliver`` fires on
        arrival, ``lost`` instead if an armed fault plan kills the packet.
        ``arg``, when given, is passed to both: hot senders bind their
        packet record instead of building a closure per packet."""
        if self.faults is not None:
            if arg is not _NOARG:
                deliver, lost, arg = self._bind(deliver, lost, arg)
            deliver = self.faults.packet("gpu_link_down", deliver, lost)
            if deliver is None:
                return
        self.down[hmc].send(size_bytes, deliver, arg)

    def to_gpu(self, hmc: int, size_bytes: int, deliver: Callable,
               lost: Callable | None = None, arg=_NOARG) -> None:
        """Send ``size_bytes`` up link ``hmc``; as :meth:`to_hmc`."""
        if self.faults is not None:
            if arg is not _NOARG:
                deliver, lost, arg = self._bind(deliver, lost, arg)
            deliver = self.faults.packet("gpu_link_up", deliver, lost)
            if deliver is None:
                return
        self.up[hmc].send(size_bytes, deliver, arg)

    @staticmethod
    def _bind(deliver: Callable, lost: Callable | None, arg):
        """Bind ``arg`` into both callbacks, so the fault injector sees
        the zero-argument callables it schedules."""
        # perf: alloc-ok -- armed fault plans only
        deliver = partial(deliver, arg)
        if lost is not None:
            # perf: alloc-ok -- armed fault plans only
            lost = partial(lost, arg)
        return deliver, lost, _NOARG

    def bytes_down(self) -> int:
        return sum(l.bytes_sent for l in self.down)

    def bytes_up(self) -> int:
        return sum(l.bytes_sent for l in self.up)

    def total_bytes(self) -> int:
        return self.bytes_down() + self.bytes_up()

    def metrics_snapshot(self) -> dict:
        """Counters/gauges published into the metrics registry."""
        links = self.down + self.up
        return {
            "bytes_down": self.bytes_down(),
            "bytes_up": self.bytes_up(),
            "packets": sum(l.packets_sent for l in links),
            "max_queue_delay": max((l.queue_delay for l in links), default=0),
        }
