"""Deterministic fault injection and protocol recovery for the NDP
protocol (RDF/WTA/CMD/ACK/credit traffic).

See ``docs/fault-injection.md`` for the schema, the scenario registry and
the recovery semantics, and ``repro chaos --help`` for the sweep CLI.
"""

from repro.faults.inject import FaultInjector
from repro.faults.plan import (FaultPlan, FaultSpec, RecoveryPolicy,
                               get_scenario, scenario_names)
from repro.faults.recovery import (BaselineRecoveryStats, RecoveryStats,
                                   Watchdog)

__all__ = ["BaselineRecoveryStats", "FaultInjector", "FaultPlan",
           "FaultSpec", "RecoveryPolicy", "RecoveryStats", "Watchdog",
           "get_scenario", "scenario_names"]
