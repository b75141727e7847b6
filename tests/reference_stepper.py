"""The reference stepper: a built ``System`` run by ticking everything.

:func:`step` drives a :class:`~repro.sim.system.System` to completion
the slow, obvious way: every SM and every NSU ticks on every stepped
cycle, and time fast-forwards only when no SM and no NSU can issue.
``System.run`` parks SMs that cannot issue and settles their idle
cycles in bulk instead (docs/performance.md); the differential test in
``tests/test_baseline_recovery.py`` requires the two to agree on the
digest, the stall breakdown and the phase counts.

:func:`struct_park_cost` is the oracle for the other half of parking:
it re-derives, by walking the next cycle's issue attempts without
making them, the retry cost that ``SM._issue`` records for
``SM.struct_park_probe``.
"""

from __future__ import annotations

from repro.core.decision import DynamicDecider
from repro.gpu.sm import MAX_ISSUE_ATTEMPTS
from repro.gpu.trace import DynBlock
from repro.isa.instructions import Opcode
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
    watchdog = system.watchdog
    phases = system.phases

    while True:
        engine.process_due()
        if watchdog is not None:
            watchdog.poll(engine.now)
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
            if watchdog is not None:
                wd = watchdog.next_deadline()
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


def _attempt_cost(sm, warp, now: int) -> int | None:
    """Would ``sm._try_issue(warp)`` be a pure structural load reject
    this cycle?  ``None`` if the attempt could make progress or have any
    side effect, else its counter cost: 1 for an MSHR-full retry (one L1
    miss + one MSHR reject), 0 for an inflight-cap spin.  Touches
    nothing."""
    item = warp.current_item()
    if item is None:
        return None                    # would finish the warp
    if isinstance(item, DynBlock):
        if warp.mode != "inline":
            # The offload decision and packet generation have side
            # effects (decider state, NDP credits).
            return None
        instr = item.block.instrs[warp.sub_pc]
        accesses = (item.mem_accesses[warp.mem_seq]
                    if instr.is_mem else ())
    else:
        instr = item.instr
        accesses = item.accesses
    reads = instr.reads
    if reads and warp.srcs_ready_at(reads) > now:
        return None                    # would block on a dependency
    if instr.op is not Opcode.LD or not accesses:
        return None                    # would issue
    replay = sm._replays.get(warp.wid)
    if replay is None:
        if warp.inflight_loads >= sm.max_inflight_loads:
            return 0                   # cap spin: rejected pre-counters
        return None                    # would create a replay and send
    if sm.memsys.l1_would_reject(sm.sm_id,
                                 replay.accesses[replay.sent].line_addr):
        return 1                       # MSHR-full retry: miss + reject
    return None                        # the load would make progress


def struct_park_cost(sm) -> int | None:
    """Walk the attempts ``sm``'s next tick would make, in the issue
    pass's order -- the current warp first (GTO), then the ready set in
    insertion order, at most ``MAX_ISSUE_ATTEMPTS`` -- and return their
    summed counter cost if every one is a pure structural load reject,
    else ``None``."""
    if sm.pending_traces and len(sm.warps) < sm.warps_per_sm:
        return None                    # a launch would make progress
    ready = sm.ready
    if not ready:
        return None
    now = sm.engine.now
    cost = 0
    attempts = 0
    cur = sm.current
    if cur is not None and cur.wid in ready:
        c = _attempt_cost(sm, cur, now)
        if c is None:
            return None
        cost += c
        attempts += 1
    for warp in ready.values():
        if attempts >= MAX_ISSUE_ATTEMPTS:
            break
        if warp is cur:
            continue
        c = _attempt_cost(sm, warp, now)
        if c is None:
            return None
        cost += c
        attempts += 1
    return cost
