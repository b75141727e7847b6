"""Tests for the deterministic fault-injection subsystem (repro.faults):
plan validation, seed determinism, zero-overhead arming, recovery paths
and the chaos CLI."""

import dataclasses
import hashlib
import json

import pytest

from repro.config import ci_config
from repro.faults import FaultPlan, FaultSpec, get_scenario, scenario_names
from repro.faults.inject import FaultInjector
from repro.sim.engine import Engine
from repro.sim.runner import build_system, run_workload
from repro.sim.serialize import result_to_dict
from repro.sim.system import SimulationTimeout
from repro.sim.validate import audit_system


def digest(result) -> str:
    return hashlib.sha256(
        json.dumps(result_to_dict(result), sort_keys=True).encode()
    ).hexdigest()


def run_with(plan, config="NDP(Dyn)", max_cycles=2_000_000):
    system = build_system("VADD", config, base=ci_config(), scale="ci",
                          faults=plan)
    return system, system.run(max_cycles=max_cycles)


class TestPlanValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(site="warp_engine")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(site="mem_net", kind="scramble")

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultSpec(site="mem_net", rate=1.5)

    def test_delay_only_on_packet_sites(self):
        with pytest.raises(ValueError):
            FaultSpec(site="credit", kind="delay")

    def test_delay_cycles_must_be_positive(self):
        # Engine.after() rejects non-positive delays; the plan must fail
        # at construction, not mid-simulation.
        with pytest.raises(ValueError, match="delay_cycles"):
            FaultSpec(site="mem_net", kind="delay", delay_cycles=0)
        with pytest.raises(ValueError, match="delay_cycles"):
            FaultSpec(site="mem_net", kind="delay", delay_cycles=-5)

    def test_fingerprint_covers_specs(self):
        a = FaultPlan(name="p", seed=1,
                      specs=(FaultSpec(site="mem_net", rate=0.1),))
        b = FaultPlan(name="p", seed=1,
                      specs=(FaultSpec(site="mem_net", rate=0.2),))
        assert a.fingerprint() != b.fingerprint()

    def test_scenario_registry(self):
        names = scenario_names()
        assert "rdf-drop" in names and "credit-loss" in names
        plan = get_scenario("rdf-drop", rate=0.02, seed=5)
        assert plan.seed == 5
        assert any(s.site == "mem_net" for s in plan.specs)
        with pytest.raises(KeyError):
            get_scenario("no-such-scenario")


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan(name="d", seed=9, specs=(
            FaultSpec(site="mem_net", kind="drop", rate=0.3),))
        seq = []
        for _ in range(2):
            inj = FaultInjector(plan, Engine())
            seq.append([inj.decide("mem_net") is not None
                        for _ in range(200)])
        assert seq[0] == seq[1]
        assert any(seq[0])   # 0.3 over 200 events: some must fire

    def test_different_seeds_differ(self):
        mk = lambda seed: FaultInjector(
            FaultPlan(name="d", seed=seed, specs=(
                FaultSpec(site="mem_net", kind="drop", rate=0.3),)),
            Engine())
        a, b = mk(1), mk(2)
        sa = [a.decide("mem_net") is not None for _ in range(200)]
        sb = [b.decide("mem_net") is not None for _ in range(200)]
        assert sa != sb

    def test_at_events_and_max_events(self):
        plan = FaultPlan(name="d", seed=0, specs=(
            FaultSpec(site="credit", kind="drop", at_events=(2, 4)),))
        inj = FaultInjector(plan, Engine())
        hits = [inj.decide("credit") is not None for _ in range(6)]
        assert hits == [False, True, False, True, False, False]


class TestZeroOverhead:
    def test_rate_zero_plan_is_bit_identical_to_unarmed(self):
        baseline = run_workload("VADD", "NDP(Dyn)", base=ci_config(),
                                scale="ci")
        plan = FaultPlan(name="armed-zero", seed=0, specs=(
            FaultSpec(site="mem_net", kind="drop", rate=0.0),
            FaultSpec(site="gpu_link_up", kind="drop", rate=0.0),
            FaultSpec(site="vault_read", kind="drop", rate=0.0),
            FaultSpec(site="nsu_buffer", kind="corrupt", rate=0.0),
            FaultSpec(site="credit", kind="drop", rate=0.0),
        ))
        system, armed = run_with(plan)
        assert armed.extra["faults"]["total_fired"] == 0
        # Strip the armed-only extra keys: everything else must match the
        # unarmed run exactly (cycle-exact seed behaviour).
        armed_d = result_to_dict(armed)
        armed_d["extra"].pop("faults")
        armed_d["extra"].pop("recovery")
        assert armed_d == result_to_dict(baseline)


class TestRecovery:
    def test_seeded_plan_recovers_and_audits_clean(self):
        # The ISSUE acceptance plan: 1% RDF drop + one credit-loss event.
        plan = FaultPlan(name="accept", seed=3, specs=(
            FaultSpec(site="mem_net", kind="drop", rate=0.1),
            FaultSpec(site="credit", kind="drop", at_events=(1,)),
        ))
        digests = []
        for _ in range(2):
            system, result = run_with(plan)
            assert audit_system(system, result) == []
            assert result.extra["faults"]["total_fired"] > 0
            rec = result.extra["recovery"]
            assert rec["credits_reclaimed"] >= 1
            digests.append(digest(result))
        assert digests[0] == digests[1]   # same seed -> same run

    def test_heavy_loss_falls_back_and_stays_consistent(self):
        plan = get_scenario("rdf-drop", rate=0.2, seed=3)
        system, result = run_with(plan)
        assert audit_system(system, result) == []
        rec = result.extra["recovery"]
        assert rec["retries"] > 0
        # acks + fallbacks == offloads is part of the audit; spot-check
        # the counters surfaced to users as well.
        s = system.ndp.stats
        assert s.acks + rec["fallbacks"] == s.offloads

    def test_nsu_corruption_recovers(self):
        plan = get_scenario("nsu-corrupt", rate=0.05, seed=11)
        system, result = run_with(plan)
        assert audit_system(system, result) == []
        assert result.extra["faults"]["total_fired"] > 0

    def test_recovery_disabled_deadlocks_fast(self):
        plan = dataclasses.replace(
            get_scenario("rdf-drop", rate=0.2, seed=3), recovery=None)
        with pytest.raises(SimulationTimeout) as exc:
            run_with(plan)
        assert "deadlock" in str(exc.value)


class TestChaosCLI:
    def test_degradation_table(self, capsys):
        from repro.cli import main

        rc = main(["--scale", "ci", "--workloads", "VADD", "--no-store",
                   "chaos", "--rates", "0,0.01,0.2",
                   "--configs", "NDP(Dyn),NaiveNDP", "--fault-seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "VADD / rdf-drop" in out
        assert "clean x1.00" in out       # rate 0 matches the reference
        assert "recovered" in out         # rate 0.2 forces recovery
        assert "[chaos] simulations:" in out

    def test_chaos_store_salting(self, tmp_path, capsys):
        from repro.cli import main

        args = ["--scale", "ci", "--workloads", "VADD",
                "--store", str(tmp_path),
                "chaos", "--rates", "0.2", "--configs", "NDP(Dyn)",
                "--fault-seed", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        # Second invocation is served from the plan-salted store and the
        # table is unchanged (deterministic outcomes).
        assert "simulations: 0" in second
        assert (first.splitlines()[-3] == second.splitlines()[-3])

    def test_run_with_faults_skips_store(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["--scale", "ci", "--store", str(tmp_path),
                   "run", "VADD", "NDP(Dyn)",
                   "--faults", "rdf-drop", "--fault-rate", "0.1",
                   "--fault-seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults fired" in out
        # The faulted result must not be cached under the plain cell key.
        rc = main(["--scale", "ci", "--store", str(tmp_path),
                   "run", "VADD", "NDP(Dyn)"])
        assert rc == 0
        assert "[store] hit" not in capsys.readouterr().out
