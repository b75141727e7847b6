"""Run helpers: named configurations and workload execution.

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
from repro.sim.system import System
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
