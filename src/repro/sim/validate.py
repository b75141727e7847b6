"""Post-run consistency auditing.

``audit_system`` inspects a finished :class:`~repro.sim.system.System` and
its :class:`~repro.sim.results.RunResult` for conservation violations --
lost packets, leaked buffer entries, unbalanced credits, impossible
counters.  The integration tests run it after every simulated
configuration, and :func:`repro.sim.runner.run_cell` runs it for
``api.run`` and every grid cell when asked to audit or a fault plan is
armed.
"""

from __future__ import annotations

from repro.memory.backend import backend_of
from repro.sim.results import RunResult


class AuditError(AssertionError):
    """A conservation invariant failed after a run."""


def _check(ok: bool, msg: str, failures: list[str]) -> None:
    if not ok:
        failures.append(msg)


def audit_system(system, result: RunResult) -> list[str]:
    """Return a list of invariant violations (empty = clean)."""
    failures: list[str] = []
    cfg = system.cfg

    # -- engine drained -------------------------------------------------------
    _check(system.engine.pending == 0,
           f"{system.engine.pending} events still pending", failures)

    # -- GPU side -------------------------------------------------------------
    for sm in system.sms:
        _check(sm.done, f"SM {sm.sm_id} still has live warps", failures)
        _check(sm.dep_count == 0,
               f"SM {sm.sm_id} leaks dep_count={sm.dep_count}", failures)
        _check(sm.pending_replays == 0,
               f"SM {sm.sm_id} leaks load replays", failures)
    for part, w in enumerate(system.memsys._l2_waiters):
        _check(not w, f"L2 slice {part} leaks {len(w)} parked requests",
               failures)
    for part, m in enumerate(system.memsys.l2_mshr):
        _check(len(m) == 0, f"L2 slice {part} leaks MSHR entries", failures)
    for sm_id, m in enumerate(system.memsys.l1_mshr):
        _check(len(m) == 0, f"L1 {sm_id} leaks MSHR entries", failures)

    # -- baseline fill recovery ------------------------------------------------
    ms = system.memsys
    _check(not ms._fetches,
           f"{len(ms._fetches)} baseline fills still tracked", failures)
    if ms.watchdog is not None:
        b = ms.rstats
        # Every issued fetch attempt resolves exactly one way: it fills
        # the L2, its packet is reported lost, or it arrives late as a
        # duplicate.  In-flight responses and loss notifications are
        # engine events, so a drained engine implies no fourth state.
        _check(b.fetch_attempts == b.fills + b.fills_lost + b.fills_dup,
               f"fill conservation: attempts {b.fetch_attempts} != fills "
               f"{b.fills} + lost {b.fills_lost} + dup {b.fills_dup}",
               failures)
        _check(b.fetch_attempts == ms.dram_read_requests,
               f"fetch attempts {b.fetch_attempts} != DRAM read requests "
               f"{ms.dram_read_requests}", failures)

    # -- NDP side -------------------------------------------------------------
    if system.ndp is not None:
        s = system.ndp.stats
        # Under fault injection an offload may complete via inline fallback
        # (no ACK) and an NDP write's invalidation may be dropped; the
        # recovery stats account for both so conservation still holds.
        fallbacks = system.ndp.rstats.fallbacks
        writes_lost = system.ndp.rstats.writes_lost
        _check(s.acks + fallbacks == s.offloads,
               f"ACKs {s.acks} + fallbacks {fallbacks} != "
               f"offloads {s.offloads}", failures)
        _check(s.invalidations_sent + writes_lost == s.ndp_writes,
               "one INV per NDP write violated", failures)
        _check(all(v == 0 for v in system.ndp.wta_inflight),
               f"in-flight WTA counters leak: {system.ndp.wta_inflight}",
               failures)
        _check(all(p == 0 for p in system.ndp.pending),
               f"SM pending buffers leak: {system.ndp.pending}", failures)
        try:
            system.ndp.credits.assert_conserved()
        except AssertionError as e:
            failures.append(str(e))
        # Command-queue depth is a substrate fact (hmc: the NSU buffer;
        # cxl: the expander-port queue) -- see backends.md.
        want = (backend_of(cfg).cmd_entries, cfg.nsu.read_data_entries,
                cfg.nsu.write_addr_entries)
        for hmc in range(cfg.num_hmcs):
            got = system.ndp.credits.available(hmc)
            _check(got == want,
                   f"HMC {hmc} credits {got} != capacity {want}", failures)
        for nsu in system.nsus:
            _check(nsu.idle, f"NSU {nsu.hmc_id} not idle", failures)
            _check(len(nsu.read_buf) == 0,
                   f"NSU {nsu.hmc_id} read buffer leaks", failures)
            _check(len(nsu.wta_buf) == 0,
                   f"NSU {nsu.hmc_id} WTA buffer leaks", failures)

    # -- result-level sanity ----------------------------------------------------
    _check(result.stalls.total >= 0, "negative stall total", failures)
    _check(result.l1_hits + result.l1_misses <= result.l1_accesses,
           "L1 demand accesses exceed total accesses", failures)
    _check(result.rdf_cache_hits <= result.rdf_packets,
           "more RDF hits than packets", failures)
    _check(result.dram_reads % 128 == 0 and result.dram_writes % 128 == 0,
           "DRAM byte counters not line-aligned", failures)
    return failures


def assert_clean(system, result: RunResult) -> None:
    failures = audit_system(system, result)
    if failures:
        raise AuditError("; ".join(failures))
