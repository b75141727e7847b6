"""Run helpers: named configurations and workload execution.

:func:`run_cell` is the one path that builds, runs and audits a cell:
``api.run`` and the grid runner's worker both call it, and
:func:`outcome_of` classifies what it returns.

The configuration names follow the paper's figures:

* ``Baseline``             -- 64 SMs, no NDP (Figure 7/9 reference)
* ``Baseline_MoreCore``    -- +8 SMs instead of the 8 NSUs (Section 6)
* ``NaiveNDP``             -- offload every block instance (Section 6)
* ``NDP(x)``               -- static offload ratio x (Section 7.1)
* ``NDP(Dyn)``             -- Algorithm 1 (Section 7.2)
* ``NDP(Dyn)_Cache``       -- + cache-locality filter (Section 7.3)
"""

from __future__ import annotations

from repro.config import OffloadMode, SystemConfig, paper_config
from repro.sim.results import RunResult
from repro.sim.system import SimulationTimeout, System
from repro.workloads import WorkloadModel, get_workload


def config_variants(base: SystemConfig) -> dict[str, SystemConfig]:
    """All named system variants derived from a base configuration."""
    out = {
        "Baseline": base.with_mode(OffloadMode.OFF),
        "Baseline_MoreCore": base.with_mode(OffloadMode.OFF).scaled_gpu(
            num_sms=base.gpu.num_sms + base.num_hmcs),
        "NaiveNDP": base.with_mode(OffloadMode.NAIVE),
        "NDP(Dyn)": base.with_mode(OffloadMode.DYNAMIC),
        "NDP(Dyn)_Cache": base.with_mode(OffloadMode.DYNAMIC_CACHE),
    }
    for r in (0.2, 0.4, 0.6, 0.8, 1.0):
        out[f"NDP({r:.1f})"] = base.with_mode(OffloadMode.STATIC,
                                              static_ratio=r)
    return out


def make_config(name: str, base: SystemConfig | None = None) -> SystemConfig:
    base = base or paper_config()
    variants = config_variants(base)
    try:
        return variants[name]
    except KeyError:
        raise KeyError(f"unknown config {name!r}; choose from "
                       f"{sorted(variants)}") from None


#: Epoch lengths matched to each scale's run length.  The paper's 30,000
#: cycles assume multi-million-cycle workloads; scaled-down runs need
#: proportionally shorter epochs so Algorithm 1 gets enough steps (a few
#: thousand cycles still retire plenty of block instructions across 64
#: SMs, so the per-epoch IPC signal stays clean).
EPOCH_BY_SCALE = {"ci": 400, "bench": 1000, "paper": 2500}


def scaled_config(config_name: str, base: SystemConfig | None,
                  scale) -> SystemConfig:
    """Resolve a named variant and match its epoch length to the scale."""
    import dataclasses

    cfg = make_config(config_name, base)
    scale_name = scale if isinstance(scale, str) else scale.name
    epoch = EPOCH_BY_SCALE.get(scale_name)
    if epoch is not None and cfg.ndp.epoch_cycles != epoch:
        cfg = dataclasses.replace(
            cfg, ndp=dataclasses.replace(cfg.ndp, epoch_cycles=epoch))
    return cfg


def build_system(workload: str | WorkloadModel, config_name: str,
                 *, base: SystemConfig | None = None, scale="ci",
                 metrics=None, faults=None) -> System:
    """Assemble a ready-to-run system with its workload loaded.

    ``metrics`` is an optional :class:`~repro.sim.metrics.MetricsRegistry`
    the system will publish heartbeats and a summary into.  ``faults`` is
    an optional :class:`~repro.faults.FaultPlan`; passing one arms the
    fault injector and (unless the plan disables it) protocol recovery.
    """
    model = (get_workload(workload) if isinstance(workload, str)
             else workload)
    cfg = scaled_config(config_name, base, scale)
    system = System(cfg, config_name=config_name, metrics=metrics,
                    faults=faults)
    instance = model.build(cfg, scale)
    system.set_code_layout(instance.blocks)
    system.load_workload(instance.name, instance.traces)
    if metrics is not None:
        metrics.meta.update({
            "workload": instance.name, "config": config_name,
            "scale": scale if isinstance(scale, str) else scale.name})
    return system


def run_workload(workload: str | WorkloadModel, config_name: str,
                 *, base: SystemConfig | None = None,
                 scale="ci",
                 max_cycles: int = 20_000_000,
                 metrics=None, faults=None) -> RunResult:
    """Build the system + workload and simulate to completion.

    ``scale`` is a preset name ("ci"/"bench"/"paper") or a custom
    :class:`~repro.workloads.Scale`.
    """
    system = build_system(workload, config_name, base=base, scale=scale,
                          metrics=metrics, faults=faults)
    return system.run(max_cycles=max_cycles)


def run_cell(workload: str | WorkloadModel, config_name: str, *,
             base: SystemConfig | None = None, scale="ci",
             max_cycles: int = 20_000_000, faults=None, audit: bool = False,
             metrics=None, trace=None
             ) -> tuple[System, "RunResult | SimulationTimeout", list[str]]:
    """Build, run and audit one cell; return ``(system, result,
    failures)``.

    A run that deadlocks returns a fresh copy of its
    :class:`SimulationTimeout` as ``result`` instead of raising it (the
    raised one's traceback would pin the system's frames).  ``failures``
    is :func:`~repro.sim.validate.audit_system`'s list when ``audit`` is
    set or a fault plan is armed, and ``[]`` otherwise: the verdict rides
    beside the result, never inside ``result.extra``.  ``trace`` is a
    :class:`~repro.sim.tracing.MessageTrace` to arm on the NDP controller
    (a system without one ignores it).
    """
    system = build_system(workload, config_name, base=base, scale=scale,
                          metrics=metrics, faults=faults)
    if trace is not None and system.ndp is not None:
        system.ndp.trace = trace
    try:
        result = system.run(max_cycles=max_cycles)
    except SimulationTimeout as e:
        return system, SimulationTimeout(*e.args), []
    if not audit and faults is None:
        return system, result, []
    # Looked up at call time, so a patched audit reaches every cell path.
    from repro.sim import validate
    return system, result, validate.audit_system(system, result)


def outcome_of(result: "RunResult | SimulationTimeout",
               failures: list[str]) -> str:
    """A cell's outcome in the chaos vocabulary: ``fatal`` (deadlocked),
    ``audit-fail`` (completed, an invariant broke), ``recovered`` (faults
    fired, audit clean) or ``clean``."""
    if isinstance(result, SimulationTimeout):
        return "fatal"
    if failures:
        return "audit-fail"
    if result.extra.get("faults", {}).get("total_fired", 0):
        return "recovered"
    return "clean"
