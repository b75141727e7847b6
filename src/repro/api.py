"""The unified programmatic facade: one front door for single runs,
config sweeps and chaos grids.

Everything the CLI can do is reachable from Python through four calls:

* :func:`run` -- one simulation described by a :class:`RunRequest`
  (keyword-only), with store round-tripping, fault arming, recovery
  overrides, metrics and tracing.
* :func:`sweep` -- one workload across many configurations, riding an
  :class:`~repro.analysis.figures.ExperimentRunner` (in-memory + store +
  parallel pool caching).
* :func:`chaos` -- a fault-scenario degradation grid (rate x config x
  workload), parallel by default, returning a :class:`ChaosReport`.
* :func:`make_runner` -- the shared :class:`ExperimentRunner` factory for
  figure/report-style grid consumers.
* :func:`explore` -- design-space exploration (:mod:`repro.explore`):
  a search agent over :class:`SystemConfig` knobs, evaluated through
  the store-backed parallel pool.  See ``docs/design-space.md``.

The low-level primitives (:func:`repro.sim.runner.build_system`,
:func:`repro.sim.runner.run_workload`, and
:func:`repro.sim.runner.run_cell`, the one build-run-audit step under
:func:`run` and every grid) remain supported for users who need the
:class:`~repro.sim.system.System` object itself; this module is the
canonical entry point for everything above that.  See ``docs/api.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.analysis.figures import FIG9_CONFIGS, ExperimentRunner, RunnerStats
from repro.config import SystemConfig, paper_config
from repro.faults import (FaultPlan, RecoveryPolicy, get_scenario,
                          scenario_names)
from repro.sim.results import RunResult
from repro.sim.runner import outcome_of, run_cell
from repro.sim.store import ResultStore, cell_key

__all__ = ["ChaosCell", "ChaosReport", "RunOutcome", "RunRequest",
           "SweepOutcome", "base_config", "chaos", "explore", "fault_plan",
           "lint", "loadtest", "make_runner", "resolve_store", "run", "serve",
           "sweep"]


# -- shared resolution helpers (subsume the old private cli plumbing) --------

def base_config(*, base: SystemConfig | None = None, sms: int | None = None,
                nsu_mhz: float | None = None, ro_cache: int | None = None,
                target_policy: str | None = None,
                backend: str | None = None) -> SystemConfig:
    """The base :class:`SystemConfig` with the standard overrides applied
    (``paper_config()`` unless ``base`` is given).  ``backend`` selects
    the memory substrate ("hmc"/"cxl", see docs/backends.md)."""
    cfg = base or paper_config()
    if sms:
        cfg = cfg.scaled_gpu(num_sms=sms)
    if nsu_mhz:
        cfg = cfg.with_nsu_clock(nsu_mhz)
    if ro_cache:
        cfg = cfg.with_ro_cache(ro_cache)
    if target_policy:
        cfg = cfg.with_target_policy(target_policy)
    if backend:
        cfg = cfg.with_backend(backend)
    return cfg


def resolve_store(store: ResultStore | str | None = None, *,
                  use_store: bool = True) -> ResultStore | None:
    """The persistent store: an instance, a path, or ``$REPRO_STORE``
    (``use_store=False`` disables it entirely, like ``--no-store``).
    An unusable store directory raises a structured :class:`OSError`
    naming the path, not a bare traceback from deep inside ``os``."""
    if not use_store:
        return None
    if isinstance(store, ResultStore):
        return store
    path = store or os.environ.get("REPRO_STORE")
    if not path:
        return None
    try:
        return ResultStore(path)
    except OSError as e:
        raise OSError(f"cannot use result store at {str(path)!r}: "
                      f"{e}") from None


def fault_plan(faults: FaultPlan | str | None, *, rate: float = 0.01,
               seed: int = 0,
               recovery: RecoveryPolicy | None = None) -> FaultPlan | None:
    """Resolve ``faults`` (a plan, a scenario name, or None) into a
    :class:`FaultPlan`; ``recovery`` overrides the plan's policy.  Raises
    :class:`KeyError` for an unknown scenario name."""
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        return faults if recovery is None else replace(faults,
                                                       recovery=recovery)
    if faults not in scenario_names():
        raise KeyError(f"unknown fault scenario {faults!r}; choose from "
                       f"{', '.join(scenario_names())}")
    return get_scenario(faults, rate=rate, seed=seed, recovery=recovery)


# -- single runs -------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class RunRequest:
    """Everything one simulation needs, keyword-only and immutable.

    ``faults`` is a :class:`FaultPlan` or a scenario name (parameterized
    by ``fault_rate``/``fault_seed``); ``recovery`` overrides the plan's
    :class:`RecoveryPolicy` (per-site timeouts, adaptive mode).  ``store``
    is a :class:`ResultStore`, a path, or None for ``$REPRO_STORE``;
    ``use_store=False`` forces a fresh simulation.  Faulted or
    instrumented runs (metrics/trace) never touch the plain store.
    """

    workload: str
    config: str = "NDP(Dyn)"
    scale: str = "bench"
    base: SystemConfig | None = None
    sms: int | None = None
    nsu_mhz: float | None = None
    ro_cache: int | None = None
    target_policy: str | None = None
    #: Memory substrate ("hmc"/"cxl"); None keeps the base config's.
    backend: str | None = None
    faults: FaultPlan | str | None = None
    fault_rate: float = 0.01
    fault_seed: int = 0
    recovery: RecoveryPolicy | None = None
    max_cycles: int = 20_000_000
    store: ResultStore | str | None = None
    use_store: bool = True
    metrics: object = None          # a MetricsRegistry, if any
    trace: bool = False             # arm a MessageTrace on the NDP
    audit: bool = False             # always audit (faulted runs always are)

    def resolved_config(self) -> SystemConfig:
        return base_config(base=self.base, sms=self.sms,
                           nsu_mhz=self.nsu_mhz, ro_cache=self.ro_cache,
                           target_policy=self.target_policy,
                           backend=self.backend)

    def resolved_plan(self) -> FaultPlan | None:
        return fault_plan(self.faults, rate=self.fault_rate,
                          seed=self.fault_seed, recovery=self.recovery)

    def resolved_store(self) -> ResultStore | None:
        return resolve_store(self.store, use_store=self.use_store)


@dataclass
class RunOutcome:
    """What :func:`run` produced.

    ``outcome`` uses the chaos vocabulary: ``clean`` (completed, no fault
    fired), ``recovered`` (faults fired, completed, audit clean),
    ``audit-fail`` (completed but an invariant broke) or ``fatal``
    (deadlock -- ``result`` is None and ``error`` holds the diagnosis).
    ``system`` is None when the result came from the store.
    """

    request: RunRequest
    result: RunResult | None
    system: object = None
    outcome: str = "clean"
    from_store: bool = False
    store_key: str = ""
    store_root: str | None = None
    error: str | None = None
    audit_failures: list[str] = field(default_factory=list)
    trace: object = None

    @property
    def ok(self) -> bool:
        return self.outcome in ("clean", "recovered")


def _validate_request(req: RunRequest, cfg: SystemConfig) -> None:
    """Fail fast with a structured error -- before any simulation state
    is built -- so callers (CLI, serve daemon) can map the exception type
    to an exit code / HTTP status: :class:`KeyError` for unknown names,
    :class:`ValueError` for bad enum-ish values."""
    from repro.sim.runner import config_variants
    from repro.workloads import SCALES, workload_names

    if req.workload not in workload_names():
        raise KeyError(f"unknown workload {req.workload!r}; choose from "
                       f"{', '.join(workload_names())}")
    variants = config_variants(cfg)
    if req.config not in variants:
        raise KeyError(f"unknown config {req.config!r}; choose from "
                       f"{', '.join(sorted(variants))}")
    if isinstance(req.scale, str) and req.scale not in SCALES:
        raise ValueError(f"unknown scale {req.scale!r}; choose from "
                         f"{', '.join(SCALES)}")
    if req.max_cycles <= 0:
        raise ValueError(f"max_cycles must be positive, got "
                         f"{req.max_cycles}")


def run(request: RunRequest | None = None, **kwargs) -> RunOutcome:
    """Execute one simulation: ``run(RunRequest(...))`` or
    ``run(workload="VADD", config="NDP(Dyn)", ...)``."""
    req = request if request is not None else RunRequest(**kwargs)
    cfg = req.resolved_config()
    _validate_request(req, cfg)
    plan = req.resolved_plan()
    store = req.resolved_store()
    key = cell_key(req.workload, req.config, cfg, req.scale, req.max_cycles)
    root = str(store.root) if store is not None else None
    # Faulted runs never touch the plain store (their results depend on
    # the plan; chaos owns plan-salted caching), and instrumented runs
    # need a live system to read from.
    instrumented = (plan is not None or req.metrics is not None
                    or req.trace)
    if store is not None and not instrumented:
        cached = store.get(key)
        if cached is not None:
            return RunOutcome(request=req, result=cached, from_store=True,
                              store_key=key, store_root=root)

    trace = None
    if req.trace:
        from repro.sim.tracing import MessageTrace
        trace = MessageTrace()
    system, result, failures = run_cell(
        req.workload, req.config, base=cfg, scale=req.scale,
        max_cycles=req.max_cycles, faults=plan, audit=req.audit,
        metrics=req.metrics, trace=trace)
    if system.ndp is None:
        trace = None
    outcome = outcome_of(result, failures)
    if outcome == "fatal":
        return RunOutcome(request=req, result=None, system=system,
                          outcome=outcome, store_key=key, store_root=root,
                          error=str(result), trace=trace)
    if store is not None and not instrumented and not failures:
        store.put(key, result, meta={"scale": str(req.scale)})
    return RunOutcome(request=req, result=result, system=system,
                      outcome=outcome, store_key=key, store_root=root,
                      audit_failures=failures, trace=trace)


# -- grids -------------------------------------------------------------------

def make_runner(*, base: SystemConfig | None = None, sms: int | None = None,
                nsu_mhz: float | None = None, ro_cache: int | None = None,
                target_policy: str | None = None,
                backend: str | None = None, scale: str = "bench",
                workloads=None, parallel: int = 1,
                store: ResultStore | str | None = None,
                use_store: bool = True, max_cycles: int = 20_000_000,
                verbose: bool = False,
                audit: bool = False) -> ExperimentRunner:
    """The canonical :class:`ExperimentRunner` factory (figure/report
    grids, benchmarks, and the building block under :func:`sweep` and
    :func:`chaos`).  ``audit=True`` runs the invariant audit on every
    simulated cell (the runner keeps its failures beside the result, and
    a failing result is never persisted); store hits are served
    as-is."""
    return ExperimentRunner(
        base=base_config(base=base, sms=sms, nsu_mhz=nsu_mhz,
                         ro_cache=ro_cache, target_policy=target_policy,
                         backend=backend),
        scale=scale, workloads=workloads, max_cycles=max_cycles,
        verbose=verbose, parallel=max(1, parallel or 1),
        store=resolve_store(store, use_store=use_store), audit=audit)


@dataclass
class SweepOutcome:
    """One workload across many configurations."""

    workload: str
    configs: tuple[str, ...]
    results: dict[str, RunResult]
    speedups: dict[str, float]     # vs Baseline; empty if not swept
    stats: RunnerStats
    #: config -> audit failure messages, for cells simulated with
    #: ``audit=True`` that broke an invariant (empty when clean/off).
    audit_failures: dict[str, list[str]] = field(default_factory=dict)


def sweep(workload: str, configs=None, *, runner: ExperimentRunner = None,
          audit: bool | None = None, **runner_kwargs) -> SweepOutcome:
    """Sweep ``workload`` across ``configs`` (default: the Figure 9
    columns plus NaiveNDP).  Pass a prebuilt ``runner`` to share caches,
    or :func:`make_runner` keyword arguments to build one.  ``audit=True``
    audits every simulated cell, like :func:`run` does for single runs;
    failures land in :attr:`SweepOutcome.audit_failures`."""
    configs = (tuple(configs) if configs is not None
               else tuple(FIG9_CONFIGS) + ("NaiveNDP",))
    if runner is None:
        runner_kwargs.setdefault("workloads", [workload])
        if audit is not None:
            runner_kwargs.setdefault("audit", audit)
        runner = make_runner(**runner_kwargs)
    elif audit is not None:
        runner.audit = audit
    verdicts = runner.prefetch(configs, workloads=[workload])
    results = {c: runner.result(workload, c) for c in configs}
    speedups = ({c: runner.speedup(workload, c) for c in configs}
                if "Baseline" in configs else {})
    failures = {c: list(f) for c in configs
                if (f := verdicts[workload, c])}
    return SweepOutcome(workload=workload, configs=configs, results=results,
                        speedups=speedups, stats=runner.stats,
                        audit_failures=failures)


# -- chaos grids -------------------------------------------------------------

@dataclass
class ChaosCell:
    """One (workload, config, rate) cell of a chaos grid."""

    outcome: str                   # clean / recovered / audit-fail / fatal
    cycles: int | None             # None when fatal
    slowdown: float | None         # vs the fault-free reference run
    #: Total energy (nJ) of this cell, from the run's event/byte counters
    #: (retry and replay traffic included), and its ratio vs the
    #: fault-free reference -- the energy cost of riding out the faults.
    energy_nj: float | None = None
    energy_ratio: float | None = None

    def label(self) -> str:
        if self.slowdown is None:
            return self.outcome
        label = f"{self.outcome} x{self.slowdown:.2f}"
        if self.energy_ratio is not None:
            label += f" e{self.energy_ratio:.2f}"
        return label


@dataclass
class ChaosReport:
    """A fault-scenario degradation grid plus its provenance."""

    scenario: str
    fault_seed: int
    scale: str
    workloads: tuple[str, ...]
    configs: tuple[str, ...]
    rates: tuple[float, ...]
    ref_cycles: dict[tuple[str, str], int]
    #: Fault-free reference energy (nJ) per (workload, config) -- the
    #: denominator of every cell's ``energy_ratio``.
    ref_energy_nj: dict[tuple[str, str], float]
    cells: dict[tuple[str, str, float], ChaosCell]
    stats: RunnerStats
    store_root: str | None
    #: "workload/config" -> audit failures of the fault-free reference
    #: cells, populated when the grid runs with ``audit=True``.
    ref_audit_failures: dict[str, list[str]] = field(default_factory=dict)

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        # Sorted so the counts dict itself has a deterministic key order.
        for key in sorted(self.cells):
            outcome = self.cells[key].outcome
            counts[outcome] = counts.get(outcome, 0) + 1
        return counts

    @property
    def fatal_cells(self) -> list[tuple[str, str, float]]:
        return sorted(k for k, c in self.cells.items()
                      if c.outcome == "fatal")


def chaos(*, scenario: str = "rdf-drop", rates=(0.0, 0.01, 0.05),
          configs=("NDP(Dyn)", "NDP(Dyn)_Cache"), workloads=("VADD",),
          fault_seed: int = 0, recovery: RecoveryPolicy | None = None,
          runner: ExperimentRunner = None, audit: bool | None = None,
          **runner_kwargs) -> ChaosReport:
    """Sweep ``scenario`` over rate x config x workload.

    Reference (fault-free) cells ride the runner's normal caches; chaos
    cells are cached under plan-fingerprint-salted keys.  With
    ``parallel > 1`` both fan out over the hardened worker pool.  Chaos
    cells are always audited; ``audit=True`` extends the same audit to
    the fault-free reference cells (failures land in
    :attr:`ChaosReport.ref_audit_failures`).  Raises :class:`KeyError`
    for an unknown scenario name.
    """
    if scenario not in scenario_names():
        raise KeyError(f"unknown fault scenario {scenario!r}; choose from "
                       f"{', '.join(scenario_names())}")
    workloads = tuple(workloads)
    configs = tuple(configs)
    rates = tuple(float(r) for r in rates)
    if runner is None:
        runner_kwargs.setdefault("workloads", list(workloads))
        if audit is not None:
            runner_kwargs.setdefault("audit", audit)
        runner = make_runner(**runner_kwargs)
    elif audit is not None:
        runner.audit = audit
    plans = {rate: get_scenario(scenario, rate=rate, seed=fault_seed,
                                recovery=recovery) for rate in rates}
    # Fault-free references first (plain store keys), then the grid.
    verdicts = runner.prefetch(configs, workloads=workloads)
    ref_results = {(w, c): runner.result(w, c)
                   for w in workloads for c in configs}
    ref = {k: r.cycles for k, r in sorted(ref_results.items())}
    ref_failures = {f"{w}/{c}": list(f)
                    for (w, c), f in sorted(verdicts.items()) if f}
    from repro.energy import compute_energy
    ref_energy = {(w, c): compute_energy(r, runner.config(c)).total
                  for (w, c), r in sorted(ref_results.items())}
    grid = runner.chaos_grid(plans, configs, workloads)
    cells = {}
    # Sorted for a deterministic cell order regardless of grid scheduling.
    for key in sorted(grid):
        w, c, rate = key
        outcome, res = grid[key]
        energy = (compute_energy(res, runner.config(c)).total
                  if res is not None else None)
        cells[key] = ChaosCell(
            outcome=outcome,
            cycles=res.cycles if res is not None else None,
            slowdown=(res.cycles / ref[(w, c)] if res is not None else None),
            energy_nj=energy,
            energy_ratio=(energy / ref_energy[(w, c)]
                          if energy is not None else None))
    return ChaosReport(
        scenario=scenario, fault_seed=fault_seed, scale=str(runner.scale),
        workloads=workloads, configs=configs, rates=rates, ref_cycles=ref,
        ref_energy_nj=ref_energy, cells=cells, stats=runner.stats,
        store_root=str(runner.store.root) if runner.store else None,
        ref_audit_failures=ref_failures)


# -- design-space exploration -------------------------------------------------

def explore(*, workload: str = "VADD", space=None, agent: str = "hillclimb",
            generations: int = 5, population: int = 8, seed: int = 0,
            fitness: str = "cycles", top_k: int = 5,
            out: str = "explore-out", resume: str | None = None,
            base: SystemConfig | None = None, scale: str = "bench",
            store: ResultStore | str | None = None, use_store: bool = True,
            parallel: int = 1, max_cycles: int = 20_000_000,
            metrics=None, progress=None):
    """Search the NDP design space and return an
    :class:`~repro.explore.driver.ExploreOutcome`.

    ``space`` is a :class:`~repro.explore.space.SearchSpace`, a registry
    name (``"default"``, ``"tiny"``), or None for the default; ``agent``
    is ``random`` / ``hillclimb`` / ``genetic``; ``fitness`` is
    ``cycles`` / ``energy`` / ``edp``.  Candidates are evaluated through
    the hardened parallel pool under plain store keys, so re-visited
    configurations -- across runs, agents, or prior sweeps -- are served
    from the store.  ``out`` receives ``trajectory.jsonl`` and
    ``best_configs.json`` (None skips both); ``resume`` replays a prior
    (possibly truncated) trajectory and continues it bit-identically.
    Fixed ``seed`` implies an identical candidate sequence and identical
    artifacts across runs.  See ``docs/design-space.md``.
    """
    from repro.explore.driver import explore as run_explore
    return run_explore(
        workload=workload, space=space, agent=agent,
        generations=generations, population=population, seed=seed,
        fitness=fitness, top_k=top_k, out=out, resume=resume, base=base,
        scale=scale, store=store, use_store=use_store, parallel=parallel,
        max_cycles=max_cycles, metrics=metrics,
        progress=progress)


# -- simulation-as-a-service --------------------------------------------------

def serve(*, host: str = "127.0.0.1", port: int = 0, shards: int = 2,
          job_timeout: float = 900.0,
          request_timeout: float = 900.0, queue_depth: int = 256,
          rate: float = 0.0, burst: float = 16.0, hot_set: int = 64,
          store: str | None = None, use_store: bool = True,
          metrics_out: str | None = None, block: bool = True,
          sanitize: bool = False, progress=None):
    """Start the ``repro serve`` daemon and return the
    :class:`~repro.serve.daemon.ServeDaemon` (see ``docs/serving.md``).

    ``port=0`` binds an ephemeral port (read ``daemon.port``); ``rate``
    is the per-client token-bucket refill in requests/second (0 turns
    limiting off, ``burst`` is the bucket depth); ``hot_set`` bounds the
    in-memory LRU of recent run responses.  ``store`` defaults to
    ``$REPRO_STORE`` via the daemon's workers.  ``block=True`` serves in
    the foreground until interrupted or ``POST /v1/shutdown``;
    ``block=False`` returns immediately with the daemon running in
    background threads (call ``daemon.stop()`` yourself).
    ``sanitize=True`` arms the runtime lock sanitizer
    (:mod:`repro.lint.sanitize`) before the daemon is built -- equivalent
    to ``REPRO_SANITIZE=1``.
    """
    if sanitize:
        from repro.lint.sanitize import install
        install()
    from repro.serve.daemon import ServeConfig, ServeDaemon
    resolved = store if store is not None else os.environ.get("REPRO_STORE")
    daemon = ServeDaemon(ServeConfig(
        host=host, port=port, shards=shards,
        job_timeout=job_timeout, request_timeout=request_timeout,
        queue_depth=queue_depth, rate=rate, burst=burst, hot_set=hot_set,
        store=resolved, use_store=use_store, metrics_out=metrics_out))
    daemon.start()
    if progress is not None:
        progress(f"serving on {daemon.address} "
                 f"({shards} shard(s), "
                 f"store {resolved or 'disabled'})")
    if block:
        daemon.wait()
    return daemon


def loadtest(*, url: str, clients: int = 8, requests: int = 4,
             duplicates: float = 0.5, seed: int = 0,
             workload: str = "VADD", config: str = "Baseline",
             scale: str = "ci", max_cycles: int = 2_000_000,
             mix: str = "run", out: str | None = None,
             sanitize: bool = False, progress=None) -> dict:
    """Hammer a running daemon with the seeded mixed schedule and return
    the report dict (throughput, latency percentiles, coalesce-hit and
    rate-limit deltas; ``out`` writes it as JSON).  See
    ``docs/serving.md`` for the schedule construction and how
    ``expected_duplicates`` is derived.  ``sanitize=True`` arms the
    runtime lock sanitizer in *this* process, which checks the daemon
    when it shares the process (``api.serve(block=False)`` harnesses)."""
    if sanitize:
        from repro.lint.sanitize import install
        install()
    from repro.serve.loadtest import run_loadtest
    return run_loadtest(url=url, clients=clients, requests=requests,
                        duplicates=duplicates, seed=seed, workload=workload,
                        config=config, scale=scale, max_cycles=max_cycles,
                        mix=mix, out=out, progress=progress)


# -- static analysis ----------------------------------------------------------

def lint(paths=("src/repro",), *, rules=None):
    """Run the :mod:`repro.lint` static analyzer over ``paths`` and return
    a :class:`~repro.lint.runner.LintReport` (``report.exit_code`` is 0
    only when no finding remains).  ``rules`` restricts the run to those
    rule ids.  Raises ``ValueError`` for an unknown rule id or a path
    that is neither a directory nor a ``.py`` file.  See
    ``docs/static-analysis.md`` for the rule catalogue and the
    suppression syntax."""
    from repro.lint import run_lint
    return run_lint(paths, rules=rules)
