"""Baseline memory-path recovery: timeout-and-reissue for non-offloaded
loads (PR 3 tentpole).

Before this subsystem existed, any drop on the baseline load path
(GPU link, vault read) deadlocked the MSHR waiting for a fill that
never arrives and the run ended ``fatal``.  These tests pin the new
contract: armed runs recover, audits stay clean, the fill-conservation
invariant holds, and unarmed runs are bit-identical to the pre-recovery
simulator.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.config import ci_config
from repro.faults import (
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
    TimeoutTracker,
    get_scenario,
)
from repro.sim.runner import build_system
from repro.sim.serialize import result_to_dict
from repro.sim.system import SimulationTimeout
from repro.sim.validate import audit_system
from tests import reference_stepper


def _run(config, plan, workload="VADD", max_cycles=5_000_000):
    system = build_system(workload, config, base=ci_config(), scale="ci",
                          faults=plan)
    result = system.run(max_cycles=max_cycles)
    return system, result


def _digest(result) -> str:
    blob = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _starved_mshr(base):
    """``base`` with a 1-entry L1 MSHR file, so loads hit structural
    rejects and SMs spin in the issue retry loop."""
    l1d = dataclasses.replace(base.gpu.l1d, mshr_entries=1)
    return dataclasses.replace(
        base, gpu=dataclasses.replace(base.gpu, l1d=l1d))


class TestBaselineRecovery:
    """Drops on the baseline load path end ``recovered``, not ``fatal``."""

    @pytest.mark.parametrize("scenario", ["vault-read-loss", "link-corrupt",
                                          "ack-drop"])
    def test_baseline_drops_recover(self, scenario):
        plan = get_scenario(scenario, rate=0.05, seed=1)
        system, result = _run("Baseline", plan)
        assert system.fault_injector.total_fired > 0
        assert audit_system(system, result) == []
        b = system.memsys.rstats
        assert b.fetch_attempts == b.fills + b.fills_lost + b.fills_dup
        assert b.fills > 0

    def test_vault_read_loss_counters_move(self):
        plan = get_scenario("vault-read-loss", rate=0.05, seed=1)
        system, result = _run("Baseline", plan)
        rec = result.extra["recovery"]
        assert rec["fills_lost"] > 0
        assert rec["mshr_reissues"] > 0
        assert rec["fills"] > 0

    def test_mixed_path_ndp_config_recovers(self):
        # NDP(Dyn) exercises both the offload path (ACK watchdog) and
        # baseline loads (fill watchdog) under the same plan.
        plan = get_scenario("vault-read-loss", rate=0.05, seed=1)
        system, result = _run("NDP(Dyn)", plan)
        assert system.fault_injector.total_fired > 0
        assert audit_system(system, result) == []

    def test_give_up_surfaces_as_timeout(self):
        # mshr_max_retries=0 means the first lost fill is abandoned;
        # the warp never drains and the run deadlocks (-> fatal).
        policy = RecoveryPolicy(mshr_max_retries=0)
        plan = get_scenario("vault-read-loss", rate=0.05, seed=1,
                            recovery=policy)
        system = build_system("VADD", "Baseline", base=ci_config(),
                              scale="ci", faults=plan)
        with pytest.raises(SimulationTimeout):
            system.run(max_cycles=5_000_000)
        assert system.memsys.rstats.mshr_gaveup > 0

    def test_duplicate_fill_dropped_exactly_once(self):
        # Delay responses on the uplink past a tiny fill timeout: the
        # watchdog reissues, then the delayed original arrives late and
        # must be counted as a duplicate, not double-filled.
        policy = RecoveryPolicy().with_site_timeout("mshr", 120)
        plan = FaultPlan(
            name="dup-fill", seed=1,
            specs=(FaultSpec("gpu_link_up", "delay", rate=0.1,
                             delay_cycles=400),),
            recovery=policy)
        system, result = _run("Baseline", plan)
        b = system.memsys.rstats
        assert b.mshr_watchdog_fires > 0
        assert b.fills_dup > 0
        assert b.fetch_attempts == b.fills + b.fills_lost + b.fills_dup
        assert audit_system(system, result) == []


class TestAdaptiveTimeouts:
    def test_adaptive_policy_recovers_and_reports(self):
        policy = RecoveryPolicy(adaptive=True)
        plan = get_scenario("vault-read-loss", rate=0.05, seed=1,
                            recovery=policy)
        system, result = _run("Baseline", plan)
        assert audit_system(system, result) == []
        snap = result.extra["recovery_timeouts"]
        assert snap["mshr"]["observations"] > 0
        assert snap["mshr"]["timeout"] >= policy.min_timeout

    def test_tracker_ewma_math(self):
        policy = RecoveryPolicy(adaptive=True, ewma_alpha=0.5,
                                timeout_scale=4.0, min_timeout=100)
        t = TimeoutTracker(policy)
        assert t.timeout("mshr") == 3000  # no observations -> static
        t.observe("mshr", 200)
        assert t.timeout("mshr") == 800  # 4 * 200
        t.observe("mshr", 100)
        assert t.timeout("mshr") == 600  # 4 * (0.5*100 + 0.5*200)

    def test_static_site_override(self):
        policy = RecoveryPolicy(ack_timeout=3000).with_site_timeout(
            "mshr", 500)
        t = TimeoutTracker(policy)
        assert t.timeout("mshr") == 500
        assert t.timeout("ack") == 3000

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(site_timeouts=(("bogus-site", 100),))
        with pytest.raises(ValueError):
            RecoveryPolicy(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(site_timeouts=(("mshr", 0),))


class TestUnarmedDigests:
    """Unarmed runs are bit-identical to the pre-recovery simulator.

    VADD/KMN digests were captured from the seed tree (commit 4999bdf)
    before the baseline-recovery changes landed.  The BFS digest was
    refreshed when workload RNG seeding switched from ``hash(name)``
    (PYTHONHASHSEED-dependent, flagged by ``repro lint`` rule DET004) to
    ``zlib.crc32``: BFS consumes the per-warp RNG, so its traces -- and
    only then its digest -- depend on that seed component.
    """

    EXPECTED = {
        ("VADD", "Baseline"):
            "fee302ab795d798eca8696616cbc58c001f395679d1b5ee4c7cd82540531ee69",
        ("VADD", "NDP(Dyn)"):
            "d5bf548c1e545fb3cd00d93ff26301ef882f454688048baee84e5f5891ef996d",
        ("KMN", "NDP(Dyn)_Cache"):
            "2acecddc7e259ad35edcafd9c32d19741bfdb35faad8a0f2ce2d56afce7f3976",
        ("BFS", "NDP(Dyn)"):
            "a1445f286ed3325342c0a57b09f18cfc83fa5e9d844aec4afeaab8a4a11b4685",
    }

    @pytest.mark.parametrize("workload,config", sorted(EXPECTED))
    def test_unarmed_digest_unchanged(self, workload, config):
        system = build_system(workload, config, base=ci_config(),
                              scale="ci")
        result = system.run(max_cycles=20_000_000)
        assert _digest(result) == self.EXPECTED[(workload, config)]

    @pytest.mark.parametrize("workload,config", sorted(EXPECTED))
    def test_legacy_scheduler_digest_unchanged(self, workload, config):
        # The pins also bind the tick-everything loop, which lives on as
        # the reference stepper: a pin failure that moves both runs is a
        # component change, one that moves only System.run is the loop.
        system = build_system(workload, config, base=ci_config(),
                              scale="ci")
        result = reference_stepper.step(system, max_cycles=20_000_000)
        assert _digest(result) == self.EXPECTED[(workload, config)]

    #: Cells on which ``System.run`` must replay the reference stepper:
    #: the four pinned cells (BFS stresses dependency stalls, KMN with the
    #: cache filter the offload/suppress path), the cxl expander, and a
    #: 1-entry L1 MSHR file that forces structural parking.
    DIFFERENTIAL = [
        *(pytest.param(w, c, ci_config(), id=f"{w}-{c}")
          for w, c in sorted(EXPECTED)),
        pytest.param("VADD", "NDP(Dyn)", ci_config().with_backend("cxl"),
                     id="VADD-NDP(Dyn)-cxl"),
        pytest.param("VADD", "Baseline", _starved_mshr(ci_config()),
                     id="VADD-Baseline-mshr1"),
    ]

    @pytest.mark.parametrize("workload,config,base", DIFFERENTIAL)
    def test_schedulers_agree_beyond_the_digest(self, workload, config,
                                                base):
        # System.run parks SMs that cannot issue and settles their idle
        # cycles in bulk; the reference stepper ticks every SM on every
        # stepped cycle.  The digest covers RunResult; the stall breakdown
        # and phase accounting also feed figures and the metrics stream,
        # so they must agree too.
        system = build_system(workload, config, base=base, scale="ci")
        result = system.run(max_cycles=20_000_000)
        ref_system = build_system(workload, config, base=base, scale="ci")
        ref = reference_stepper.step(ref_system, max_cycles=20_000_000)
        assert _digest(result) == _digest(ref)
        assert result.stalls.as_dict() == ref.stalls.as_dict()
        for field in ("stepped", "fast_forwarded", "epochs"):
            assert (getattr(system.phases, field)
                    == getattr(ref_system.phases, field)), \
                f"phase counter {field} diverged from the reference"
        assert (system.engine.events_processed
                == ref_system.engine.events_processed)
        if base.gpu.l1d.mshr_entries == 1:
            # MSHR-full SMs park mid-retry-loop and replay the elided
            # cycles' miss/reject counters on wake (digest equality).
            stats = system.sched_stats
            assert stats["struct_parks"] > 0
            assert stats["struct_replayed"] > 0
            assert stats["sm_ticks"] < ref_system.sched_stats["sm_ticks"]

    def test_active_scheduler_elides_ticks(self):
        # The point of parking: strictly fewer SM ticks than the dense
        # stepped * num_sms product, with the gap settled into the same
        # idle classifications (the differential test above).
        system = build_system("VADD", "Baseline", base=ci_config(),
                              scale="ci")
        system.run(max_cycles=20_000_000)
        dense = system.phases.stepped * system.cfg.gpu.num_sms
        assert 0 < system.sched_stats["sm_ticks"] < dense
        assert system.sched_stats["sm_wakes"] > 0

    @pytest.mark.parametrize("hashseed", ["0", "1"])
    def test_bfs_digest_stable_across_hash_seeds(self, hashseed):
        # The pre-fix bug: hash(self.name) in the RNG seed tuple made BFS
        # traces vary with PYTHONHASHSEED, which pytest inherits -- so an
        # in-process digest check could never catch it.  Run in a child
        # with a pinned, different hash seed each time.
        code = (
            "import hashlib, json\n"
            "from repro.config import ci_config\n"
            "from repro.sim.runner import build_system\n"
            "from repro.sim.serialize import result_to_dict\n"
            "system = build_system('BFS', 'NDP(Dyn)', base=ci_config(),"
            " scale='ci')\n"
            "result = system.run(max_cycles=20_000_000)\n"
            "blob = json.dumps(result_to_dict(result), sort_keys=True)\n"
            "print(hashlib.sha256(blob.encode()).hexdigest())\n")
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH="src")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True,
                              cwd=os.path.dirname(os.path.dirname(
                                  os.path.abspath(__file__))))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == self.EXPECTED[("BFS", "NDP(Dyn)")]

    def test_armed_zero_rate_matches_unarmed_cycles(self):
        # Arming recovery with a zero-rate plan must not perturb timing:
        # the watchdog never fires and reissue never happens, so cycle
        # counts match the unarmed run exactly.
        plan = get_scenario("vault-read-loss", rate=0.0, seed=0)
        armed_sys, armed = _run("Baseline", plan)
        plain = build_system("VADD", "Baseline", base=ci_config(),
                             scale="ci").run(max_cycles=5_000_000)
        assert armed.cycles == plain.cycles
        assert armed_sys.memsys.rstats.fills_lost == 0
        assert armed_sys.memsys.rstats.fills_dup == 0
