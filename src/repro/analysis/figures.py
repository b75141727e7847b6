"""Regenerators for every figure of the paper's evaluation.

Each ``figureN`` function returns plain dicts of series, in the same shape
the paper plots; the benchmark harness prints them and asserts the
qualitative claims.  :class:`ExperimentRunner` caches simulation results so
figures that share runs (7, 8, 9, 10, 11 all reuse the same sweeps) only
simulate once per (workload, config).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from repro.config import SystemConfig, paper_config
from repro.core.target_select import target_policy_traffic_study
from repro.energy import compute_energy
from repro.sim.results import RunResult
from repro.sim.runner import make_config, run_workload
from repro.sim.store import ResultStore, cell_key
from repro.workloads import workload_names

#: Figure 9's configuration columns, in plot order.
FIG9_CONFIGS = ("Baseline", "Baseline_MoreCore", "NDP(0.2)", "NDP(0.4)",
                "NDP(0.6)", "NDP(0.8)", "NDP(1.0)", "NDP(Dyn)",
                "NDP(Dyn)_Cache")


def geomean(values) -> float:
    vals = [v for v in values]
    if not vals:
        return float("nan")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def _run_cell(args) -> "RunResult":
    """Module-level worker for parallel prefetching (must be picklable).

    ``args`` is ``(workload, config, base, scale, max_cycles, audit)``.
    With audit on, the invariant audit runs in the worker -- the
    ``System`` cannot cross the pool boundary -- and its failures ride
    back on ``result.extra["audit"]``.
    """
    workload, config, base, scale, max_cycles, audit = args
    if not audit:
        return run_workload(workload, config, base=base, scale=scale,
                            max_cycles=max_cycles)
    from repro.sim.runner import build_system
    from repro.sim.validate import audit_system
    system = build_system(workload, config, base=base, scale=scale)
    result = system.run(max_cycles=max_cycles)
    result.extra["audit"] = {"failures": audit_system(system, result)}
    return result


def _run_chaos_cell(args) -> tuple[str, "RunResult | None"]:
    """Module-level worker for parallel chaos sweeps.

    Builds, runs and audits in one process (a ``System`` cannot cross the
    pool boundary) and returns ``(outcome, result)`` with the chaos
    outcome vocabulary: ``clean`` / ``recovered`` / ``audit-fail`` /
    ``fatal`` (result is None for fatal -- the run deadlocked).  ``args``
    is ``(workload, config, base, scale, max_cycles, plan)``.
    """
    workload, config, base, scale, max_cycles, plan = args
    from repro.sim.runner import build_system
    from repro.sim.system import SimulationTimeout
    from repro.sim.validate import audit_system
    system = build_system(workload, config, base=base, scale=scale,
                          faults=plan)
    try:
        result = system.run(max_cycles=max_cycles)
    except SimulationTimeout:
        return "fatal", None
    if audit_system(system, result):
        return "audit-fail", result
    fired = result.extra.get("faults", {}).get("total_fired", 0)
    return ("recovered" if fired else "clean"), result


@dataclass
class RunnerStats:
    """Where each requested cell came from (the cache-hit counters the
    CLI prints after ``figure``/``sweep``/``report``)."""

    sim_runs: int = 0       # cells actually simulated this process
    memory_hits: int = 0    # served from the in-process cache
    store_hits: int = 0     # served from the persistent store
    worker_failures: int = 0
    worker_retries: int = 0
    serial_fallbacks: int = 0
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"sim_runs": self.sim_runs, "memory_hits": self.memory_hits,
                "store_hits": self.store_hits,
                "worker_failures": self.worker_failures,
                "worker_retries": self.worker_retries,
                "serial_fallbacks": self.serial_fallbacks}


class ExperimentRunner:
    """Caches one simulation per (workload, config name).

    Three cache levels: the in-process dict, an optional persistent
    :class:`~repro.sim.store.ResultStore` (``store=`` path or instance),
    and -- with ``parallel > 1`` -- a process pool that :meth:`prefetch`
    fans independent cells out over.  Parallel sweeps are hardened: each
    worker gets ``worker_timeout`` seconds, failed cells are retried once
    in a fresh pool, and anything still missing falls back to serial
    execution with a warning instead of hanging the sweep.
    """

    def __init__(self, base: SystemConfig | None = None,
                 scale: str = "bench", workloads=None,
                 max_cycles: int = 20_000_000, verbose: bool = False,
                 parallel: int = 1, store=None,
                 worker_timeout: float = 900.0,
                 audit: bool = False) -> None:
        self.base = base or paper_config()
        self.scale = scale
        self.workloads = list(workloads or workload_names())
        self.max_cycles = max_cycles
        self.verbose = verbose
        self.parallel = max(1, parallel)
        # Audit every simulated cell (fault-free grid cells included) and
        # stash failures on result.extra["audit"]; failing results are
        # never persisted.  Store/memory hits are served as-is: anything
        # already persisted passed its audit (or predates auditing).
        self.audit = audit
        self.store = (store if (store is None
                                or isinstance(store, ResultStore))
                      else ResultStore(store))
        self.worker_timeout = worker_timeout
        self.stats = RunnerStats()
        self._cache: dict[tuple[str, str], RunResult] = {}
        # Test seams: a fake executor factory / worker fn can be injected
        # to exercise the timeout/crash recovery paths deterministically.
        self._executor_factory = None
        self._worker = _run_cell
        self._chaos_worker = _run_chaos_cell

    # -- store plumbing ------------------------------------------------------

    def store_key(self, workload: str, config: str) -> str:
        return cell_key(workload, config, self.base, self.scale,
                        self.max_cycles)

    def _store_get(self, workload: str, config: str) -> RunResult | None:
        if self.store is None:
            return None
        return self.store.get(self.store_key(workload, config))

    def _store_put(self, workload: str, config: str,
                   result: RunResult) -> None:
        if self.store is not None:
            self.store.put(self.store_key(workload, config), result,
                           meta={"scale": str(self.scale),
                                 "max_cycles": self.max_cycles})

    def _remember(self, workload: str, config: str,
                  result: RunResult, *, persist: bool = True) -> None:
        self._cache[(workload, config)] = result
        if persist:
            self._store_put(workload, config, result)

    # -- cell access ---------------------------------------------------------

    def _cell_args(self, workload: str, config: str) -> tuple:
        """The ``_run_cell`` argument tuple for one grid cell."""
        return (workload, config, self.base, self.scale, self.max_cycles,
                self.audit)

    def result(self, workload: str, config: str) -> RunResult:
        key = (workload, config)
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.memory_hits += 1
            return cached
        stored = self._store_get(workload, config)
        if stored is not None:
            self.stats.store_hits += 1
            self._cache[key] = stored
            return stored
        if self.verbose:  # pragma: no cover - progress chatter
            print(f"  simulating {workload} / {config} ...", flush=True)
        self.stats.sim_runs += 1
        # The real in-process path, deliberately not self._worker: the
        # test seams only redirect the pool, never serial execution.
        res = _run_cell(self._cell_args(workload, config))
        self._remember(workload, config, res,
                       persist=not self._audit_failures(res))
        return res

    @staticmethod
    def _audit_failures(result: RunResult) -> list:
        return result.extra.get("audit", {}).get("failures", [])

    def prefetch(self, configs, workloads=None) -> None:
        """Simulate a grid of cells up-front, in parallel when enabled."""
        workloads = list(workloads or self.workloads)
        todo = [(w, c) for w in workloads for c in configs
                if (w, c) not in self._cache]
        # Serve what the persistent store already has before fanning out.
        if self.store is not None:
            remaining = []
            for w, c in todo:
                stored = self._store_get(w, c)
                if stored is not None:
                    self.stats.store_hits += 1
                    self._cache[(w, c)] = stored
                else:
                    remaining.append((w, c))
            todo = remaining
        if not todo:
            return
        if self.parallel > 1:
            def remember(key, res):
                self.stats.sim_runs += 1
                self._remember(key[0], key[1], res,
                               persist=not self._audit_failures(res))

            def make_arg(key):
                return self._cell_args(key[0], key[1])

            todo = self._parallel_map(todo, make_arg, self._worker,
                                      remember, what="prefetch")
        for w, c in todo:
            self.result(w, c)

    def eval_cells(self, cells) -> dict:
        """Evaluate heterogeneous cells -- ``(workload, config_name,
        base_config)`` triples, each with its *own* base -- and return
        ``{store_key: RunResult | None}`` (None marks a fatal cell that
        deadlocked).

        This is the exploration driver's evaluation path
        (:mod:`repro.explore.driver`): unlike :meth:`result`/:meth:`prefetch`
        the per-cell base varies, so cells are identified by their full
        content-addressed store key rather than ``(workload, config)``.
        Keys are the *plain* :func:`~repro.sim.store.cell_key` -- no
        explore-specific salt -- so candidates dedupe against every sweep
        and figure cell ever stored (see the key-reuse note in
        ``sim/store.py``).  Misses ride the same hardened pool as
        :meth:`prefetch`; a cell that times out in the serial fallback is
        recorded as None instead of aborting the batch.
        """
        from repro.sim.system import SimulationTimeout

        out: dict[str, RunResult | None] = {}
        by_key: dict[str, tuple] = {}
        todo: list[tuple] = []
        for workload, config, base in cells:
            key = cell_key(workload, config, base, self.scale,
                           self.max_cycles)
            if key in out or key in by_key:
                continue
            stored = self.store.get(key) if self.store is not None else None
            if stored is not None:
                self.stats.store_hits += 1
                out[key] = stored
            else:
                by_key[key] = (workload, config, base)
                todo.append((workload, config, key))

        def make_arg(item):
            workload, config, base = by_key[item[2]]
            return (workload, config, base, self.scale, self.max_cycles,
                    self.audit)

        def record(item, res):
            self.stats.sim_runs += 1
            out[item[2]] = res
            if self.store is not None and not self._audit_failures(res):
                self.store.put(item[2], res,
                               meta={"scale": str(self.scale),
                                     "max_cycles": self.max_cycles})

        if self.parallel > 1 and len(todo) > 1:
            todo = self._parallel_map(todo, make_arg, self._worker,
                                      record, what="explore")
        for item in todo:
            try:
                res = _run_cell(make_arg(item))
            except SimulationTimeout:
                self.stats.sim_runs += 1
                out[item[2]] = None
                continue
            record(item, res)
        return out

    # -- hardened parallel fan-out (shared by prefetch and chaos) ------------

    def _parallel_map(self, keys: list, make_arg, worker, on_result,
                      what: str = "map") -> list:
        """Fan ``keys`` over a process pool: ``worker(make_arg(key))`` per
        key, ``on_result(key, value)`` per success.  Failed keys (worker
        timeout or crash) are retried once in a fresh pool; whatever still
        fails is returned for the caller to run serially.

        Concurrency contract (checked by the CONC lint rules): workers
        are *processes*, so ``worker`` must stay a module-level picklable
        callable that reaches the simulator only through the ``repro.api``
        facade / ``_run_cell`` -- never a closure mutating runner state.
        ``self.stats`` and ``on_result`` run solely on the coordinating
        thread (future results are consumed here, one at a time), i.e.
        guarded-by: none -- single-thread access by construction."""
        import concurrent.futures as cf

        factory = self._executor_factory or cf.ProcessPoolExecutor
        pending = list(keys)
        for attempt in (0, 1):
            if not pending:
                break
            if attempt:
                self.stats.worker_retries += len(pending)
                warnings.warn(
                    f"parallel {what}: retrying {len(pending)} failed "
                    f"cell(s) in a fresh worker pool", RuntimeWarning,
                    stacklevel=3)
            pending = self._parallel_attempt(factory, pending, cf,
                                             make_arg, worker, on_result)
        if pending:
            self.stats.serial_fallbacks += len(pending)
            warnings.warn(
                f"parallel {what}: {len(pending)} cell(s) failed twice; "
                f"falling back to serial simulation", RuntimeWarning,
                stacklevel=3)
        return pending

    def _parallel_attempt(self, factory, keys, cf, make_arg, worker,
                          on_result) -> list:
        """One pool pass over ``keys``; returns the keys that failed
        (worker timeout or crash)."""
        pool = factory(max_workers=min(self.parallel, len(keys)))
        failed: list = []
        futures = {}
        try:
            for key in keys:
                futures[key] = pool.submit(worker, make_arg(key))
            # lint: ignore[DET002] -- mirrors the deterministic keys list
            for key, fut in futures.items():
                try:
                    res = fut.result(timeout=self.worker_timeout)
                except cf.TimeoutError:
                    self.stats.worker_failures += 1
                    failed.append(key)
                except Exception:
                    # Worker crash (BrokenProcessPool) or a simulation
                    # error; both are retried, then surfaced serially.
                    self.stats.worker_failures += 1
                    failed.append(key)
                else:
                    if self.verbose:  # pragma: no cover
                        label = " / ".join(str(p) for p in key)
                        print(f"  [parallel] {label} done", flush=True)
                    on_result(key, res)
        finally:
            # Never wait for a hung worker: cancel what has not started
            # and leave stragglers to die with the pool's processes.
            pool.shutdown(wait=False, cancel_futures=True)
        return failed

    # -- chaos grids ---------------------------------------------------------

    def chaos_store_key(self, workload: str, config: str, plan) -> str:
        """Chaos cells are cached under keys salted with the plan
        fingerprint so faulted results never collide with clean ones."""
        from repro.sim.store import CODE_VERSION_SALT
        salt = f"{CODE_VERSION_SALT}|chaos|{plan.fingerprint()}"
        return cell_key(workload, config, self.base, self.scale,
                        self.max_cycles, salt=salt)

    def chaos_grid(self, plans: dict, configs, workloads=None
                   ) -> dict:
        """Run every (workload, config, plan-key) chaos cell and return
        ``{(workload, config, key): (outcome, result)}``.

        ``plans`` maps an opaque key (e.g. a fault rate) to a
        :class:`~repro.faults.FaultPlan`.  Cells ride the same hardened
        pool as :meth:`prefetch` when ``parallel > 1``; only ``clean`` and
        ``recovered`` outcomes are persisted (``audit-fail`` and ``fatal``
        are never cached).
        """
        workloads = list(workloads or self.workloads)
        out: dict = {}
        todo: list = []
        for w in workloads:
            for c in configs:
                # lint: ignore[DET002] -- plan grid is built in
                # scenario-declaration order, stable by construction
                for pkey, plan in plans.items():
                    stored = (self.store.get(self.chaos_store_key(w, c, plan))
                              if self.store is not None else None)
                    if stored is not None:
                        self.stats.store_hits += 1
                        fired = stored.extra.get("faults", {}).get(
                            "total_fired", 0)
                        out[(w, c, pkey)] = (
                            "recovered" if fired else "clean", stored)
                    else:
                        todo.append((w, c, pkey))

        def make_arg(key):
            w, c, pkey = key
            return (w, c, self.base, self.scale, self.max_cycles,
                    plans[pkey])

        def record(key, value):
            outcome, res = value
            self.stats.sim_runs += 1
            out[key] = value
            if (res is not None and outcome in ("clean", "recovered")
                    and self.store is not None):
                w, c, pkey = key
                self.store.put(self.chaos_store_key(w, c, plans[pkey]), res,
                               meta={"scale": str(self.scale),
                                     "max_cycles": self.max_cycles,
                                     "chaos": plans[pkey].name})

        if self.parallel > 1 and len(todo) > 1:
            todo = self._parallel_map(todo, make_arg, self._chaos_worker,
                                      record, what="chaos")
        for key in todo:
            record(key, self._chaos_worker(make_arg(key)))
        return out

    def speedup(self, workload: str, config: str) -> float:
        return self.result(workload, config).speedup_over(
            self.result(workload, "Baseline"))

    def config(self, name: str) -> SystemConfig:
        return make_config(name, self.base)


# ---------------------------------------------------------------------------
# Figure 5: target-NSU selection policy vs. traffic
# ---------------------------------------------------------------------------

def figure5(num_hmcs: int = 8, trials: int = 20_000) -> dict:
    """Normalized inter-stack traffic of the first-HMC policy vs. the
    optimal policy as the number of memory accesses per block varies."""
    return target_policy_traffic_study(
        num_hmcs=num_hmcs,
        access_counts=tuple(range(1, 65)),
        trials=trials)


# ---------------------------------------------------------------------------
# Figure 7: naive NDP vs. baselines
# ---------------------------------------------------------------------------

def figure7(runner: ExperimentRunner) -> dict:
    """Speedup (runtime ratio vs. Baseline) of Baseline_MoreCore and
    NaiveNDP for every workload, plus the geometric mean row."""
    configs = ("Baseline", "Baseline_MoreCore", "NaiveNDP")
    runner.prefetch(configs)
    out: dict[str, dict[str, float]] = {}
    for w in runner.workloads:
        out[w] = {c: runner.speedup(w, c) for c in configs}
    out["GMEAN"] = {
        c: geomean(out[w][c] for w in runner.workloads) for c in configs}
    return out


# ---------------------------------------------------------------------------
# Figure 8: no-issue cycle breakdown
# ---------------------------------------------------------------------------

def figure8(runner: ExperimentRunner) -> dict:
    """Per-workload, per-config no-issue-cycle breakdown normalized to the
    Baseline's total no-issue cycles (the figure's y axis)."""
    configs = ("Baseline", "Baseline_MoreCore", "NaiveNDP")
    out: dict[str, dict[str, dict[str, float]]] = {}
    for w in runner.workloads:
        base_total = max(1, runner.result(w, "Baseline").stalls.total)
        out[w] = {}
        for c in configs:
            s = runner.result(w, c).stalls
            # lint: ignore[DET002] -- Figure 8 columns keep the stall
            # dataclass's field order (exec busy, dependency, idle)
            out[w][c] = {k: v / base_total for k, v in s.as_dict().items()}
    return out


# ---------------------------------------------------------------------------
# Figure 9: offload-ratio sweep + dynamic mechanisms
# ---------------------------------------------------------------------------

def figure9(runner: ExperimentRunner) -> dict:
    runner.prefetch(FIG9_CONFIGS)
    out: dict[str, dict[str, float]] = {}
    for w in runner.workloads:
        out[w] = {c: runner.speedup(w, c) for c in FIG9_CONFIGS}
    out["GMEAN"] = {
        c: geomean(out[w][c] for w in runner.workloads)
        for c in FIG9_CONFIGS}
    return out


# ---------------------------------------------------------------------------
# Figure 10: energy
# ---------------------------------------------------------------------------

FIG10_CONFIGS = ("Baseline", "Baseline_MoreCore", "NDP(Dyn)",
                 "NDP(Dyn)_Cache")


def figure10(runner: ExperimentRunner) -> dict:
    """Energy breakdown per workload and config, normalized to the
    workload's Baseline total (the Figure 10 stacks)."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    for w in runner.workloads:
        base_cfg = runner.config("Baseline")
        base_e = compute_energy(runner.result(w, "Baseline"), base_cfg)
        out[w] = {}
        for c in FIG10_CONFIGS:
            e = compute_energy(runner.result(w, c), runner.config(c))
            out[w][c] = e.normalized_to(base_e)
    gm = {}
    for c in FIG10_CONFIGS:
        gm[c] = {"Total": geomean(out[w][c]["Total"]
                                  for w in runner.workloads)}
    out["GMEAN"] = gm
    return out


# ---------------------------------------------------------------------------
# Figure 11: NSU I-cache utilization and warp occupancy
# ---------------------------------------------------------------------------

def figure11(runner: ExperimentRunner, config: str = "NDP(Dyn)_Cache") -> dict:
    out: dict[str, dict[str, float]] = {}
    for w in runner.workloads:
        r = runner.result(w, config)
        out[w] = {
            "icache_utilization": r.nsu_icache_utilization,
            "warp_occupancy": r.avg_nsu_occupancy,
        }
    out["AVG"] = {
        k: sum(out[w][k] for w in runner.workloads) / len(runner.workloads)
        for k in ("icache_utilization", "warp_occupancy")}
    return out


# ---------------------------------------------------------------------------
# Section 4.2: invalidation traffic overhead
# ---------------------------------------------------------------------------

def coherence_overhead(runner: ExperimentRunner,
                       config: str = "NDP(Dyn)_Cache") -> dict:
    out = {w: runner.result(w, config).invalidation_overhead
           for w in runner.workloads}
    out["AVG"] = sum(out[w] for w in runner.workloads) / len(runner.workloads)
    return out


# ---------------------------------------------------------------------------
# Section 7.3: a more powerful GPU (2x compute units)
# ---------------------------------------------------------------------------

def bigger_gpu(runner_factory=None, base: SystemConfig | None = None,
               scale: str = "bench", workloads=None) -> dict:
    """Speedup of NDP(Dyn)_Cache over Baseline when the SM count doubles."""
    if runner_factory is not None:
        import warnings

        warnings.warn(
            "bigger_gpu(runner_factory=...) is ignored and deprecated; "
            "pass base/scale/workloads or use repro.api.make_runner",
            DeprecationWarning, stacklevel=2)
    base = base or paper_config()
    big = base.scaled_gpu(num_sms=base.gpu.num_sms * 2)
    runner = ExperimentRunner(base=big, scale=scale, workloads=workloads)
    out = {w: runner.speedup(w, "NDP(Dyn)_Cache") for w in runner.workloads}
    out["GMEAN"] = geomean(out[w] for w in runner.workloads)
    return out


# ---------------------------------------------------------------------------
# Section 7.6: NSU frequency sensitivity (350 -> 175 MHz)
# ---------------------------------------------------------------------------

def nsu_frequency(base: SystemConfig | None = None, scale: str = "bench",
                  workloads=None, clock_mhz: float = 175.0) -> dict:
    base = base or paper_config()
    slow = base.with_nsu_clock(clock_mhz)
    runner = ExperimentRunner(base=slow, scale=scale, workloads=workloads)
    out = {w: runner.speedup(w, "NDP(Dyn)_Cache") for w in runner.workloads}
    out["GMEAN"] = geomean(out[w] for w in runner.workloads)
    return out
