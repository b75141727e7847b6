"""System assembly and the main simulation loop.

``System`` wires the GPU (SMs + caches + links), the HMC stacks, the memory
network, the NSUs and the NDP controller together from a
:class:`~repro.config.SystemConfig`, distributes a workload's warp traces
across the SMs, and runs to completion with epoch-based offload-ratio
updates (Algorithm 1).
"""

from __future__ import annotations

import bisect

from repro.config import OffloadMode, SystemConfig
from repro.core.decision import DynamicDecider, make_decider
from repro.core.nsu import NSU
from repro.core.offload import NDPController
from repro.gpu.sm import SM
from repro.memory.address import AddressMap
from repro.memory.hmc import HMCStack
from repro.network.fabric import GPULinks, MemoryNetwork
from repro.sim.engine import Engine, RateAccumulator
from repro.sim.results import RunResult, StallBreakdown, TrafficBytes


class SimulationTimeout(RuntimeError):
    """The run exceeded its cycle budget (lost packet / deadlock guard)."""


class System:
    """A complete simulated node: GPU + stacks + network + NDP.

    Pass ``metrics`` (a :class:`~repro.sim.metrics.MetricsRegistry`) to
    sample component counters on a heartbeat cadence during :meth:`run`
    and publish a structured summary at the end.
    """

    def __init__(self, cfg: SystemConfig, *, config_name: str = "",
                 metrics=None, faults=None) -> None:
        self.cfg = cfg
        self.config_name = config_name or cfg.ndp.mode
        self.metrics = metrics
        # Scheduling counters of the last run; they never enter RunResult,
        # so result digests do not depend on them.
        self.sched_stats: dict = {}
        # The main loop's active set: sorted ids of the SMs ticked every
        # stepped cycle, and for each parked SM the first cycle whose idle
        # accounting is still unsettled.
        self._active: list[int] = []
        self._asleep: dict[int, int] = {}
        self._deferred_integral = 0  # active-warp-cycles owed by sleepers
        self._sm_wakes = 0
        # Structural-reject parking: sm_id -> per-cycle counter cost for
        # SMs parked mid-retry-loop (MSHR-full / inflight-cap spin).  The
        # elided cycles' L1 miss + MSHR reject counters are replayed at
        # wake/settle time; membership also vetoes fast-forward, because
        # time must step cycle-by-cycle while any SM can issue.
        self._struct_cost: dict[int, int] = {}
        self._struct_parks = 0
        self._struct_replayed = 0
        self.engine = Engine()
        # The memory substrate ("hmc" or "cxl") is data: each component
        # below reads its device facts from repro.memory.backend.
        self.amap = AddressMap(cfg)
        self.gpu_links = GPULinks(self.engine, cfg)
        self.network = MemoryNetwork(self.engine, cfg)
        self.hmcs = [HMCStack(self.engine, cfg, i, self.amap)
                     for i in range(cfg.num_hmcs)]

        from repro.sim.memsys import GPUMemSystem
        self.memsys = GPUMemSystem(self.engine, cfg, amap=self.amap,
                                   gpu_links=self.gpu_links, hmcs=self.hmcs)

        self.decider = make_decider(cfg.ndp, seed=cfg.seed)
        ndp_enabled = cfg.ndp.mode != OffloadMode.OFF
        self.ndp = None
        self.nsus: list[NSU] = []
        if ndp_enabled:
            self.ndp = NDPController(
                self.engine, cfg, amap=self.amap, memsys=self.memsys,
                gpu_links=self.gpu_links, network=self.network,
                hmcs=self.hmcs, decider=self.decider)
            self.nsus = [NSU(self.engine, cfg, i, self.ndp)
                         for i in range(cfg.num_hmcs)]
            self.ndp.nsus = self.nsus
            for hmc, nsu in zip(self.hmcs, self.nsus):
                hmc.nsu = nsu

        g = cfg.gpu
        self.sms = [
            SM(self.engine, i, warps_per_sm=g.warps_per_sm,
               alu_latency=g.alu_latency,
               max_inflight_loads=g.max_inflight_loads_per_warp,
               memsys=self.memsys, ndp=self.ndp, decider=self.decider)
            for i in range(g.num_sms)
        ]
        # Every NSU runs at one clock ratio, so one accumulator decides
        # how many NSU cycles elapse for all of them.
        self._nsu_acc = (RateAccumulator(
            cfg.nsu.cycles_per_sm_cycle(g.sm_clock_mhz))
            if self.nsus else None)
        self.workload_name = ""
        self._epoch_log: list[tuple[int, float]] = []
        from repro.sim.metrics import PhaseCycles
        self.phases = PhaseCycles()

        # Fault injection (repro.faults): arming is a plain attribute write
        # on each component -- an unarmed system carries ``faults = None``
        # everywhere and its event stream is untouched.
        self.fault_injector = None
        self.watchdog = None
        if faults is not None:
            from repro.faults.inject import FaultInjector
            inj = FaultInjector(faults, self.engine)
            self.fault_injector = inj
            self.network.faults = inj
            self.gpu_links.faults = inj
            for hmc in self.hmcs:
                for vault in hmc.vaults:
                    vault.faults = inj
            for nsu in self.nsus:
                nsu.faults = inj
            if self.ndp is not None:
                self.ndp.credits.faults = inj
            if faults.recovery is not None:
                # One watchdog for both layers: the ACK deadlines (NDP)
                # and the fill deadlines (baseline loads) share the
                # policy, the adaptive EWMA state and one heap.
                from repro.faults.recovery import Watchdog
                watchdog = self.watchdog = Watchdog(faults.recovery,
                                                    self.engine)
                self.memsys.watchdog = watchdog
                watchdog.handle("mshr", self.memsys.on_deadline)
                if self.ndp is not None:
                    self.ndp.watchdog = watchdog
                    watchdog.handle("ack", self.ndp.on_deadline)

    # -- workload loading ----------------------------------------------------------

    def load_workload(self, name: str, traces) -> None:
        """Distribute warp traces round-robin across the SMs."""
        self.workload_name = name
        n = len(self.sms)
        buckets = [[] for _ in range(n)]
        for i, t in enumerate(traces):
            buckets[i % n].append(t)
        for sm, bucket in zip(self.sms, buckets):
            sm.assign(bucket)

    def set_code_layout(self, blocks) -> None:
        if self.ndp is not None:
            self.ndp.set_code_layout(blocks)

    # -- active-set scheduling (see docs/performance.md) ---------------------

    def _wake_sm(self, sm) -> None:
        """Activate a parked SM, settling its deferred idle accounting first.

        Called (via ``sm.waker``) at the TOP of every external wake path,
        before the wake mutates warp state: the slept cycles
        ``[since, now - 1]`` are classified against the frozen pre-wake
        state, exactly as ticking the SM every cycle would have classified
        them one at a time.  A wake of an already-active SM is a no-op.
        """
        idx = sm.sm_id
        since = self._asleep.pop(idx, None)
        if since is None:
            return
        bisect.insort(self._active, idx)
        self._sm_wakes += 1
        owed = self.engine.now - since
        cost = self._struct_cost.pop(idx, None)
        if owed > 0:
            if cost:
                self.memsys.replay_struct_rejects(idx, owed * cost)
                self._struct_replayed += owed * cost
            sm.classify_idle_bulk(owed)
            self._deferred_integral += owed * sm.live_warps

    def _wake_sm_id(self, sm_id: int) -> None:
        """``memsys.sm_waker`` adapter: L1 fills address SMs by id."""
        self._wake_sm(self.sms[sm_id])

    def _settle_asleep(self, now: int) -> None:
        """Settle every parked SM's idle accounting through ``now``
        *inclusive*, in place (the SMs stay parked).

        Run at every point that observes cross-SM aggregate state --
        Algorithm-1 epoch boundaries (``active_integral`` feeds the IPC
        normalization), heartbeats (stall counters are sampled), and both
        timeout raises (post-mortem state must match ticking everything)
        -- so those observers see exactly what ticking every SM every
        cycle would have accumulated.
        """
        asleep = self._asleep
        sms = self.sms
        struct_cost = self._struct_cost
        for idx, since in sorted(asleep.items()):
            owed = now - since + 1
            if owed > 0:
                sm = sms[idx]
                cost = struct_cost.get(idx)
                if cost:
                    self.memsys.replay_struct_rejects(idx, owed * cost)
                    self._struct_replayed += owed * cost
                sm.classify_idle_bulk(owed)
                self._deferred_integral += owed * sm.live_warps
                asleep[idx] = now + 1

    # -- main loop -------------------------------------------------------------------

    def run(self, max_cycles: int = 20_000_000) -> RunResult:
        """Simulate to completion and collect the result.

        Only SMs that can make progress are ticked; the others are parked
        until an external event wakes them.  The result is bit-identical
        to ticking every SM on every stepped cycle (the reference stepper
        the tests compare against), by construction:

        * The stepped/fast-forwarded cycle sets are identical -- the
          fast-forward predicate ``not act`` equals "no SM can issue"
          because active membership tracks ``can_issue_now`` exactly
          (parked on False after a tick, woken by the same external
          events that make it True).
        * A parked SM's would-be ticks are pure no-ops except for stall
          classification, and its classification inputs (``ready``,
          ``dep_count``, ``warps``, ``pending_traces``, ``live_warps``)
          are frozen while parked -- so deferring the accounting to wake
          or settle time is exact, not approximate.
        * NSUs never park: the temporal-SIMT ``_busy_subcycles`` countdown
          depends on the global stepped-cycle set, so quiescent NSU ticks
          are elided *eagerly* via :meth:`NSU.account_idle`, which is
          arithmetically identical to the elided ticks.
        """
        engine = self.engine
        sms = self.sms
        nsus = self.nsus
        epoch = self.cfg.ndp.epoch_cycles
        dyn = isinstance(self.decider, DynamicDecider)
        next_epoch = engine.now + epoch if dyn else None
        prev_block_instrs = 0
        # Algorithm 1 compares per-epoch throughput of offload-block
        # instructions.  At our scaled run lengths the warp population
        # ramps down within the run, which would superimpose a monotonic
        # decline on the signal; normalizing by active-warp-cycles makes
        # epochs comparable (the paper's multi-million-cycle runs are in
        # steady state and don't need this).
        active_integral = 0
        prev_active_integral = 0
        metrics = self.metrics
        next_heartbeat = (engine.now + metrics.heartbeat_cycles
                          if metrics is not None else None)
        watchdog = self.watchdog
        memsys = self.memsys
        phases = self.phases
        process_due = engine.process_due
        finished = self._finished
        settle = self._settle_asleep

        # Every SM starts active.  Parking and waking mutate these two in
        # place, so the hot loop's locals stay bound to them.
        act = self._active = list(range(len(sms)))
        asleep = self._asleep = {}
        self._deferred_integral = 0
        self._sm_wakes = 0
        wake_sm = self._wake_sm
        for sm in sms:
            sm.waker = wake_sm
        # MSHR-capacity wake hook: a struct-parked SM registers no MSHR
        # waiter, so the L1 fill path must reactivate it explicitly.
        memsys.sm_waker = self._wake_sm_id
        self._struct_cost = {}
        struct_cost = self._struct_cost
        self._struct_parks = 0
        self._struct_replayed = 0
        acc = self._nsu_acc
        # The hot loop mirrors ``engine.now`` in a local: a per-cycle cost
        # on the path this whole loop exists to shrink.
        now = engine.now
        sm_ticks = 0
        stepped = 0
        fast_forwarded = 0

        try:
            while True:
                process_due()
                if watchdog is not None:
                    watchdog.poll(now)

                n_act = len(act)
                if n_act:
                    live = 0
                    since = now + 1
                    parks = None
                    struct_parks = None
                    for idx in act:
                        sm = sms[idx]
                        issued = sm.tick()
                        live += len(sm.warps)
                        if not (sm.ready or (sm.pending_traces
                                             and len(sm.warps)
                                             < sm.warps_per_sm)):
                            if parks is None:
                                parks = [idx]
                            else:
                                parks.append(idx)
                        elif not issued:
                            # Retry loop?  If every attempt of this tick
                            # was a pure structural load reject, park at
                            # the recorded cost and replay the elided
                            # cycles' counters at wake time.
                            cost = sm.struct_park_probe()
                            if cost is not None:
                                if struct_parks is None:
                                    struct_parks = [(idx, cost)]
                                else:
                                    struct_parks.append((idx, cost))
                    if len(act) != n_act:   # pragma: no cover - see I3
                        raise RuntimeError(
                            "synchronous cross-SM wake during the tick "
                            "phase; route it through an engine event")
                    if parks is not None:
                        for idx in parks:
                            act.remove(idx)
                            asleep[idx] = since
                    if struct_parks is not None:
                        for idx, cost in struct_parks:
                            act.remove(idx)
                            asleep[idx] = since
                            struct_cost[idx] = cost
                        self._struct_parks += len(struct_parks)
                    active_integral += live
                    sm_ticks += n_act
                stepped += 1
                if acc is not None:
                    k = acc.step()
                    if k:
                        for nsu in nsus:
                            if nsu._busy_subcycles == 0 and not nsu.ready:
                                nsu.account_idle(k)
                            else:
                                for _ in range(k):
                                    nsu.tick()

                if dyn and now >= next_epoch:
                    settle(now)
                    active_integral += self._deferred_integral
                    self._deferred_integral = 0
                    total = sum(sm.block_instrs_retired for sm in sms)
                    d_active = max(1, active_integral - prev_active_integral)
                    ipc = (total - prev_block_instrs) / d_active
                    prev_block_instrs = total
                    prev_active_integral = active_integral
                    self.decider.end_epoch(ipc)
                    self._epoch_log.append((now, self.decider.ratio))
                    phases.epochs += 1
                    next_epoch = now + epoch

                if next_heartbeat is not None and now >= next_heartbeat:
                    settle(now)
                    self._publish_heartbeat()
                    next_heartbeat = now + metrics.heartbeat_cycles

                if finished():
                    settle(now)
                    break
                if now >= max_cycles:
                    settle(now)
                    raise SimulationTimeout(
                        f"{self.workload_name}/{self.config_name}: exceeded "
                        f"{max_cycles} cycles; "
                        f"{sum(sm.live_warps for sm in sms)} warps live")

                # Fast-forward: with every SM parked and no NSU holding
                # issuable work, jump to the next external stimulus.
                # Struct-parked SMs veto the jump: an SM in a retry loop
                # can issue, so time steps cycle-by-cycle, and epoch
                # boundaries land in the digest via the epoch log.
                if not act and not struct_cost and not any(
                        n.has_ready for n in nsus):
                    nt = engine.next_event_time()
                    if watchdog is not None:
                        wd = watchdog.next_deadline()
                        if wd is not None and (nt is None or wd < nt):
                            nt = wd
                    if nt is None:
                        # Quiet, no pending events, no watchdog armed, yet
                        # not finished: nothing can ever change.  Without
                        # recovery a lost packet lands here (detect it now
                        # instead of crawling to max_cycles).
                        settle(now)
                        raise SimulationTimeout(
                            f"{self.workload_name}/{self.config_name}: "
                            f"deadlock at cycle {now}; "
                            f"{sum(sm.live_warps for sm in sms)} warps live")
                    if nt > now + 1:
                        skip = nt - now - 1
                        if acc is not None:
                            idle_cycles = acc.step_many(skip)
                            if idle_cycles:
                                for nsu in nsus:
                                    nsu.account_idle(idle_cycles)
                        now = nt - 1
                        fast_forwarded += skip
                now += 1
                engine.now = now
        finally:
            for sm in sms:
                sm.waker = None
            memsys.sm_waker = None
            phases.stepped += stepped
            phases.fast_forwarded += fast_forwarded
            self.sched_stats = {"sm_ticks": sm_ticks,
                                "sm_wakes": self._sm_wakes,
                                "struct_parks": self._struct_parks,
                                "struct_replayed": self._struct_replayed}

        return self._collect()

    # -- metrics publishing --------------------------------------------------

    def _publish_heartbeat(self) -> None:
        """Sample every component's counters into the metrics registry."""
        m = self.metrics
        self.phases.heartbeats += 1
        sm_snaps = [sm.metrics_snapshot() for sm in self.sms]
        live = sum(s["live_warps"] for s in sm_snaps)
        ready = sum(s["ready_warps"] for s in sm_snaps)
        vault_q = [h.queue_occupancy for h in self.hmcs]
        nsu_snaps = [n.metrics_snapshot() for n in self.nsus]
        gauges = {
            "sm.live_warps": live,
            "sm.ready_warps": ready,
            "vault.queue_total": sum(vault_q),
            "vault.queue_max": max(vault_q, default=0),
            "engine.pending_events": self.engine.pending,
            "gpu_link.max_queue_delay":
                self.gpu_links.metrics_snapshot()["max_queue_delay"],
            "mem_net.max_queue_delay":
                self.network.metrics_snapshot()["max_queue_delay"],
        }
        traffic = self._traffic()
        counters = {
            "sm.instructions": sum(s["instructions"] for s in sm_snaps),
            "stall.exec_unit_busy":
                sum(s["stall_exec_unit_busy"] for s in sm_snaps),
            "stall.dependency":
                sum(s["stall_dependency"] for s in sm_snaps),
            "stall.warp_idle": sum(s["stall_warp_idle"] for s in sm_snaps),
            "traffic.gpu_link": traffic.gpu_link,
            "traffic.mem_net": traffic.mem_net,
            "traffic.intra_hmc": traffic.intra_hmc,
        }
        if nsu_snaps:
            gauges["nsu.warps"] = sum(s["warps"] for s in nsu_snaps)
            gauges["nsu.cmd_queue"] = sum(s["cmd_queue"] for s in nsu_snaps)
            gauges["nsu.read_buf"] = sum(s["read_buf"] for s in nsu_snaps)
            gauges["nsu.wta_buf"] = sum(s["wta_buf"] for s in nsu_snaps)
            counters["nsu.instructions"] = sum(
                s["instructions"] for s in nsu_snaps)
        if self.ndp is not None:
            # lint: ignore[DET002] -- fills a name-keyed counters dict;
            # registry publication is order-free
            for kind, n in self.ndp.stats.packet_counts().items():
                counters[f"packets.{kind}"] = n
        m.observe("vault.queue_occupancy", sum(vault_q))
        m.observe("sm.live_warps", live)
        if self.nsus:
            m.observe("nsu.warps", gauges["nsu.warps"])
        m.set_counters(counters)
        m.heartbeat(self.engine.now, gauges, counters)

    def _publish_summary(self, res: RunResult) -> None:
        """Final counters + the structured summary record."""
        m = self.metrics
        self.phases.events = self.engine.events_processed
        stalls = res.stalls.as_dict()
        packets = (self.ndp.stats.packet_counts() if self.ndp is not None
                   else {})
        m.set_counters({
            "sm.instructions": res.instructions,
            "nsu.instructions": res.nsu_instructions,
            "warps.completed": res.warps_completed,
            "stall.exec_unit_busy": res.stalls.exec_unit_busy,
            "stall.dependency": res.stalls.dependency_stall,
            "stall.warp_idle": res.stalls.warp_idle,
            "dram.activations": res.dram_activations,
            "l2.misses": res.l2_misses,
        })
        traffic = res.traffic.as_dict()
        # lint: ignore[DET002] -- set_counters stores by name; order-free
        m.set_counters({f"traffic.{k}": v for k, v in traffic.items()})
        # lint: ignore[DET002] -- same: name-keyed counter publication
        m.set_counters({f"packets.{k}": v for k, v in packets.items()})
        if self.fault_injector is not None:
            m.set_counters(self.fault_injector.metrics_counters())
            if self.watchdog is not None:
                if self.ndp is not None:
                    m.set_counters(self.ndp.rstats.metrics_counters())
                m.set_counters(self.memsys.rstats.metrics_counters())
                m.set_counters(self.watchdog.metrics_counters())
        m.meta.setdefault("workload", res.workload)
        m.meta.setdefault("config", res.config_name)
        m.record("summary", cycle=self.engine.now, stalls=stalls,
                 packets=packets, traffic=res.traffic.as_dict(),
                 phases=self.phases.as_dict(),
                 sched=dict(self.sched_stats),
                 dram={"activations": res.dram_activations,
                       "reads": res.dram_reads, "writes": res.dram_writes},
                 hmc=[h.metrics_snapshot() for h in self.hmcs],
                 gpu_links=self.gpu_links.metrics_snapshot(),
                 mem_net=self.network.metrics_snapshot(),
                 engine=self.engine.metrics_snapshot())

    def _finished(self) -> bool:
        # Runs every stepped cycle: an open due cycle means events are
        # pending, without counting them.
        if self.engine.next_event_time() is not None:
            return False
        if any(not sm.done for sm in self.sms):
            return False
        return all(n.idle for n in self.nsus)

    # -- result collection --------------------------------------------------------------

    def _traffic(self) -> TrafficBytes:
        """Bytes by traffic class: each link counts what it sent, and each
        stack what its NoC carried."""
        return TrafficBytes(
            gpu_link=self.gpu_links.total_bytes(),
            mem_net=self.network.total_bytes(),
            intra_hmc=sum(h.noc_bytes for h in self.hmcs),
            invalidations=self.memsys.invalidation_bytes,
        )

    def _collect(self) -> RunResult:
        stalls = StallBreakdown()
        for sm in self.sms:
            stalls = stalls.merged(sm.stalls)
        dram_acts = sum(h.stats.activations for h in self.hmcs)
        dram_reads = sum(h.stats.read_bytes for h in self.hmcs)
        dram_writes = sum(h.stats.write_bytes for h in self.hmcs)
        nsu_occ = sum(n.occupancy_sum for n in self.nsus)
        nsu_cycles = sum(n.cycles for n in self.nsus)
        icache_touched = sum(len(n.icache_touched) for n in self.nsus)
        icache_total = sum(n.icache_lines for n in self.nsus)
        res = RunResult(
            workload=self.workload_name,
            config_name=self.config_name,
            cycles=self.engine.now,
            instructions=sum(sm.instructions for sm in self.sms),
            nsu_instructions=sum(n.instructions for n in self.nsus),
            warps_completed=sum(sm.warps_completed for sm in self.sms),
            stalls=stalls,
            traffic=self._traffic(),
            dram_activations=dram_acts,
            dram_reads=dram_reads,
            dram_writes=dram_writes,
            l1_hits=self.memsys.l1_stats.hits,
            l1_misses=self.memsys.l1_stats.misses,
            l2_hits=self.memsys.l2_stats.hits,
            l2_misses=self.memsys.l2_stats.misses,
            l1_accesses=self.memsys.l1_stats.accesses
            + self.memsys.l1_stats.accesses_probe,
            l2_accesses=self.memsys.l2_stats.accesses
            + self.memsys.l2_stats.accesses_probe,
            rdf_packets=self.ndp.stats.rdf_packets if self.ndp else 0,
            rdf_cache_hits=self.ndp.stats.rdf_hits if self.ndp else 0,
            offloads_issued=sum(sm.offloads for sm in self.sms),
            offloads_suppressed=getattr(self.decider, "suppressed_count", 0),
            blocks_total=sum(sm.offloads + sm.inlines for sm in self.sms),
            nsu_occupancy_sum=nsu_occ / max(1, self.cfg.nsu.num_warp_slots),
            nsu_cycles=nsu_cycles,
            nsu_icache_lines_touched=icache_touched,
            nsu_icache_lines_total=icache_total,
            gpu_alu_ops=sum(sm.alu_ops for sm in self.sms),
            nsu_alu_ops=sum(n.alu_ops for n in self.nsus),
            extra={
                "epoch_log": list(self._epoch_log),
                "final_ratio": getattr(self.decider, "ratio", None),
            },
        )
        if self.fault_injector is not None:
            res.extra["faults"] = self.fault_injector.snapshot()
            if self.watchdog is not None:
                # Both layers merge into one dict (field names disjoint).
                rec = dict(self.memsys.rstats.as_dict())
                if self.ndp is not None:
                    rec.update(self.ndp.rstats.as_dict())
                res.extra["recovery"] = rec
                if self.watchdog.policy.adaptive:
                    res.extra["recovery_timeouts"] = self.watchdog.snapshot()
        if self.metrics is not None:
            self._publish_summary(res)
        return res
