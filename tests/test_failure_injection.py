"""Failure-injection tests: the simulator must fail loudly, not hang or
silently corrupt, when packets or protocol state die in flight.

Faults are injected through the deterministic ``repro.faults`` plans (the
same hooks the chaos CLI drives) rather than by monkeypatching internals,
so these tests exercise the production injection + recovery paths.
"""

import dataclasses

import pytest

from repro.config import ci_config
from repro.faults import FaultPlan, FaultSpec, get_scenario
from repro.sim.runner import build_system, run_workload
from repro.sim.system import SimulationTimeout
from repro.sim.validate import audit_system


def _run(plan, config="NaiveNDP", max_cycles=200_000):
    system = build_system("VADD", config, base=ci_config(), scale="ci",
                          faults=plan)
    return system, system.run(max_cycles=max_cycles)


class TestWatchdog:
    def test_timeout_raised_not_hang(self):
        # An absurdly small cycle budget must raise SimulationTimeout with
        # diagnostic info, never loop forever.
        with pytest.raises(SimulationTimeout) as exc:
            run_workload("VADD", "Baseline", base=ci_config(), scale="ci",
                         max_cycles=10)
        assert "VADD" in str(exc.value)
        assert "warps live" in str(exc.value)

    def test_lost_ack_without_recovery_deadlocks(self):
        # Drop every ACK packet with recovery disabled: warps block at
        # OFLD.END forever; the deadlock detector reports it immediately.
        plan = FaultPlan(name="ack-drop-all", seed=1, recovery=None,
                         specs=(FaultSpec(site="gpu_link_up", kind="drop",
                                          rate=1.0),))
        with pytest.raises(SimulationTimeout) as exc:
            _run(plan)
        assert "deadlock" in str(exc.value)

    def test_lost_rdf_response_without_recovery_deadlocks(self):
        # Swallow every memory-network packet (RDF response forwarding):
        # NSU read-data entries never complete and warps starve.
        plan = FaultPlan(name="rdf-drop-all", seed=1, recovery=None,
                         specs=(FaultSpec(site="mem_net", kind="drop",
                                          rate=1.0),))
        with pytest.raises(SimulationTimeout):
            _run(plan)

    def test_stuck_credit_without_recovery_deadlocks(self):
        # Drop every credit-return message: once the initial grants run
        # out, reservations queue forever.
        plan = FaultPlan(name="credit-drop-all", seed=1, recovery=None,
                         specs=(FaultSpec(site="credit", kind="drop",
                                          rate=1.0),))
        with pytest.raises(SimulationTimeout):
            _run(plan)

    def test_lost_rdf_with_recovery_completes(self):
        # The same mem-net loss at a survivable rate completes through
        # watchdog-driven replay when recovery is armed (the default).
        plan = FaultPlan(name="rdf-drop-some", seed=3, specs=(
            FaultSpec(site="mem_net", kind="drop", rate=0.1),))
        system, result = _run(plan, config="NDP(Dyn)", max_cycles=2_000_000)
        assert result.extra["faults"]["total_fired"] > 0
        assert result.extra["recovery"]["watchdog_fires"] > 0

    def test_stuck_credit_with_recovery_completes(self):
        # A single dropped credit-return message is reconciled from the
        # per-instance ledger when its block completes.
        plan = FaultPlan(name="credit-drop-one", seed=2, specs=(
            FaultSpec(site="credit", kind="drop", at_events=(1,)),))
        system, result = _run(plan, config="NDP(Dyn)", max_cycles=2_000_000)
        assert result.extra["faults"]["fired"] == {"credit.drop": 1}
        assert result.extra["recovery"]["credits_reclaimed"] >= 1


class TestBufferInvariantTraps:
    @pytest.mark.parametrize("workload,seed", [("VADD", 1), ("KMN", 2)])
    def test_abort_frees_entries_before_credits_return(self, workload,
                                                       seed):
        # With 4-entry NDP buffers every credit is in use.  An aborted
        # attempt's returned credits grant a waiting block at once, and
        # its announced entries must find the aborted ones purged.
        base = ci_config()
        base = dataclasses.replace(base, nsu=dataclasses.replace(
            base.nsu, read_data_entries=4, write_addr_entries=4))
        plan = get_scenario("link-corrupt", rate=0.05, seed=seed)
        system = build_system(workload, "NaiveNDP", base=base, scale="ci",
                              faults=plan)
        result = system.run(max_cycles=1_000_000)
        assert system.ndp.rstats.retries > 0
        assert audit_system(system, result) == []

    def test_read_buffer_overflow_trips_assertion(self):
        from repro.core.buffers import NDPBuffer

        b = NDPBuffer("read-data", 2)
        b.expect(("a", 0), 1)
        b.expect(("a", 1), 1)
        with pytest.raises(AssertionError):
            b.expect(("a", 2), 1)

    def test_cmd_buffer_overflow_trips_assertion(self):
        from repro.sim.runner import make_config
        from repro.sim.system import System
        from repro.workloads import get_workload

        cfg = make_config("NaiveNDP", ci_config())
        system = System(cfg)
        nsu = system.nsus[0]
        nsu.num_slots = 0   # never spawn: queue can only grow
        class FakeInst:
            block = get_workload("VADD").build(cfg, "ci").blocks[0]
            uid = ("x",)
        with pytest.raises(AssertionError):
            for i in range(cfg.nsu.cmd_buffer_entries + 1):
                nsu.receive_cmd(FakeInst())
