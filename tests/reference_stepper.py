"""The reference stepper: a built ``System`` run by ticking everything.

:func:`step` drives a :class:`~repro.sim.system.System` to completion
the slow, obvious way: every SM and every NSU ticks on every stepped
cycle, and time fast-forwards only when no SM and no NSU can issue.
``System.run`` parks SMs that cannot issue and settles their idle
cycles in bulk instead (docs/performance.md); the differential test in
``tests/test_baseline_recovery.py`` requires the two to agree on the
digest, the stall breakdown and the phase counts.
"""

from __future__ import annotations

from repro.core.decision import DynamicDecider
from repro.sim.system import SimulationTimeout


def step(system, max_cycles: int = 20_000_000):
    """Simulate ``system`` to completion; returns its ``RunResult``."""
    engine = system.engine
    sms = system.sms
    nsus = system.nsus
    acc = system._nsu_acc
    epoch = system.cfg.ndp.epoch_cycles
    dyn = isinstance(system.decider, DynamicDecider)
    next_epoch = engine.now + epoch if dyn else None
    prev_block_instrs = 0
    # Algorithm 1's IPC signal is normalized by active-warp-cycles.
    active_integral = 0
    prev_active_integral = 0
    metrics = system.metrics
    next_heartbeat = (engine.now + metrics.heartbeat_cycles
                      if metrics is not None else None)
    ndp = system.ndp
    rec = ndp is not None and ndp.recovery is not None
    memsys = system.memsys
    mem_rec = memsys.recovery is not None
    phases = system.phases

    while True:
        engine.process_due()
        if rec:
            ndp.poll_watchdogs(engine.now)
        if mem_rec:
            memsys.poll_watchdogs(engine.now)
        live = 0
        for sm in sms:
            sm.tick()
            live += sm.live_warps
        active_integral += live
        phases.stepped += 1
        if acc is not None:
            k = acc.step()
            for nsu in nsus:
                for _ in range(k):
                    nsu.tick()

        if dyn and engine.now >= next_epoch:
            total = sum(sm.block_instrs_retired for sm in sms)
            d_active = max(1, active_integral - prev_active_integral)
            ipc = (total - prev_block_instrs) / d_active
            prev_block_instrs = total
            prev_active_integral = active_integral
            system.decider.end_epoch(ipc)
            system._epoch_log.append((engine.now, system.decider.ratio))
            phases.epochs += 1
            next_epoch = engine.now + epoch

        if next_heartbeat is not None and engine.now >= next_heartbeat:
            system._publish_heartbeat()
            next_heartbeat = engine.now + metrics.heartbeat_cycles

        if system._finished():
            break
        if engine.now >= max_cycles:
            raise SimulationTimeout(
                f"{system.workload_name}/{system.config_name}: exceeded "
                f"{max_cycles} cycles; "
                f"{sum(sm.live_warps for sm in sms)} warps live")

        # Fast-forward across quiet regions: nothing can issue until the
        # next event, so jump there and account the idle cycles.
        if (not any(sm.can_issue_now for sm in sms)
                and not any(n.has_ready for n in nsus)):
            nt = engine.next_event_time()
            if rec:
                wd = ndp.next_watchdog_deadline()
                if wd is not None and (nt is None or wd < nt):
                    nt = wd
            if mem_rec:
                wd = memsys.next_watchdog_deadline()
                if wd is not None and (nt is None or wd < nt):
                    nt = wd
            if nt is None:
                raise SimulationTimeout(
                    f"{system.workload_name}/{system.config_name}: "
                    f"deadlock at cycle {engine.now}; "
                    f"{sum(sm.live_warps for sm in sms)} warps live")
            if nt > engine.now + 1:
                skip = nt - engine.now - 1
                active_integral += skip * sum(sm.live_warps for sm in sms)
                for sm in sms:
                    sm.classify_idle_bulk(skip)
                if acc is not None:
                    idle_cycles = acc.step_many(skip)
                    if idle_cycles:
                        for nsu in nsus:
                            nsu.account_idle(idle_cycles)
                engine.now = nt - 1
                phases.fast_forwarded += skip
        engine.now += 1

    system.sched_stats = {"sm_ticks": phases.stepped * len(sms),
                          "sm_wakes": 0, "struct_parks": 0,
                          "struct_replayed": 0}
    return system._collect()
