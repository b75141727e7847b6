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
from repro.executor import CellExecutor, WorkerLost
from repro.sim.results import RunResult
from repro.sim.runner import build_system, make_config, run_workload
from repro.sim.store import ResultStore, cell_key
from repro.sim.system import SimulationTimeout
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


def _run_cell(args) -> "RunResult | SimulationTimeout":
    """The one cell worker (module-level, so it pickles into a pool).

    ``args`` is ``(workload, config, base, scale, max_cycles, audit,
    plan)``.  Builds and runs the cell, and audits it when ``audit`` is
    set or a fault ``plan`` is armed -- in the worker, since the
    ``System`` cannot cross the pool boundary -- with the failures riding
    back on ``result.extra["audit"]``.  A cell that deadlocks returns its
    :class:`SimulationTimeout` instead of raising it: ``fatal`` is an
    outcome (see :func:`_outcome`), not a worker failure to retry.
    """
    workload, config, base, scale, max_cycles, audit, plan = args
    try:
        if not audit and plan is None:
            return run_workload(workload, config, base=base, scale=scale,
                                max_cycles=max_cycles)
        from repro.sim.validate import audit_system
        system = build_system(workload, config, base=base, scale=scale,
                              faults=plan)
        result = system.run(max_cycles=max_cycles)
    except SimulationTimeout as e:
        # A fresh copy: the raised one's traceback and context would pin
        # the System in the cache.
        return SimulationTimeout(*e.args)
    result.extra["audit"] = {"failures": audit_system(system, result)}
    return result


def _outcome(value: "RunResult | SimulationTimeout") -> str:
    """A cell's chaos-vocabulary outcome: ``fatal`` (deadlocked),
    ``audit-fail`` (completed, an invariant broke), ``recovered``
    (faults fired, audit clean) or ``clean``."""
    if isinstance(value, SimulationTimeout):
        return "fatal"
    if value.extra.get("audit", {}).get("failures"):
        return "audit-fail"
    if value.extra.get("faults", {}).get("total_fired", 0):
        return "recovered"
    return "clean"


def _completed(value: "RunResult | SimulationTimeout") -> RunResult:
    if isinstance(value, SimulationTimeout):
        # Raise a copy so the cached fatal value never gains a context.
        raise SimulationTimeout(*value.args) from None
    return value


@dataclass
class RunnerStats:
    """Where each requested cell came from (the cache-hit counters the
    CLI prints after ``figure``/``sweep``/``report``), plus the
    :class:`~repro.executor.CellExecutor` counters of parallel batches."""

    sim_runs: int = 0       # cells actually simulated this process
    memory_hits: int = 0    # served from the in-process cache
    store_hits: int = 0     # served from the persistent store
    worker_failures: int = 0    # attempts lost to a deadline / dead worker
    worker_retries: int = 0     # cells retried in a fresh pool
    serial_fallbacks: int = 0   # cells lost twice, then run serially
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"sim_runs": self.sim_runs, "memory_hits": self.memory_hits,
                "store_hits": self.store_hits,
                "worker_failures": self.worker_failures,
                "worker_retries": self.worker_retries,
                "serial_fallbacks": self.serial_fallbacks}


class ExperimentRunner:
    """Caches one simulation per cell, keyed by its store key.

    :meth:`result`, :meth:`prefetch`, :meth:`eval_cells` and
    :meth:`chaos_grid` all resolve cells through one path: the
    in-process cache, then an optional persistent
    :class:`~repro.sim.store.ResultStore` (``store=`` path or instance),
    then -- with ``parallel > 1`` and a batch of misses -- a
    :class:`~repro.executor.CellExecutor` of worker processes, and last a
    serial in-process run of the rest.  Each
    worker gets ``worker_timeout`` seconds; a cell whose worker misses
    that deadline or dies is retried once in a fresh pool, a cell that
    deadlocks is ``fatal`` after one run, and a sweep never hangs.
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
        self._cache: dict[str, RunResult | SimulationTimeout] = {}
        # Test seams: a fake pool factory / worker fn can be injected to
        # exercise the timeout/crash recovery paths deterministically.
        self._executor_factory = None
        self._worker = _run_cell

    # -- the cell path -------------------------------------------------------

    def store_key(self, workload: str, config: str) -> str:
        return cell_key(workload, config, self.base, self.scale,
                        self.max_cycles)

    def chaos_store_key(self, workload: str, config: str, plan) -> str:
        """Chaos cells are cached under keys salted with the plan
        fingerprint so faulted results never collide with clean ones."""
        from repro.sim.store import CODE_VERSION_SALT
        salt = f"{CODE_VERSION_SALT}|chaos|{plan.fingerprint()}"
        return cell_key(workload, config, self.base, self.scale,
                        self.max_cycles, salt=salt)

    def _cell_args(self, workload: str, config: str, base=None,
                   plan=None) -> tuple:
        """The :func:`_run_cell` argument tuple for one cell."""
        return (workload, config, self.base if base is None else base,
                self.scale, self.max_cycles, self.audit, plan)

    def _cells(self, cells: dict, min_batch: int = 2) -> dict:
        """Resolve ``{store_key: _run_cell args}`` to ``{store_key:
        RunResult | SimulationTimeout}``: memory cache -> store ->
        executor -> serial run of the cells the executor gave up on.
        Only ``clean``/``recovered`` results are persisted.

        The misses go to the executor only when ``parallel > 1`` and
        there are at least ``min_batch`` of them; fewer run in-process,
        with no pool to start and no deadline.  :meth:`prefetch` passes
        1, since it asks for the pool even for one cell."""
        out: dict = {}
        todo: list = []
        # lint: ignore[DET002] -- callers build cells in grid order
        for key, args in cells.items():
            if key in self._cache:
                self.stats.memory_hits += 1
                out[key] = self._cache[key]
                continue
            stored = self.store.get(key) if self.store is not None else None
            if stored is not None:
                self.stats.store_hits += 1
                self._cache[key] = out[key] = stored
            else:
                todo.append((key, args))
        if todo and self.parallel > 1 and len(todo) >= min_batch:
            todo = self._fan_out(todo, out)
        for key, args in todo:
            if self.verbose:  # pragma: no cover - progress chatter
                print(f"  simulating {args[0]} / {args[1]} ...", flush=True)
            # The real in-process path, deliberately not self._worker:
            # the test seams only redirect the pool, never serial runs.
            out[key] = self._record(key, args, _run_cell(args))
        return out

    def _fan_out(self, todo: list, out: dict) -> list:
        """Run ``todo`` (``(key, args)`` pairs) on a
        :class:`~repro.executor.CellExecutor`, recording results into
        ``out``; return the cells it gave up on.  An error a worker
        raised itself propagates once every finished cell is recorded."""
        if self.verbose:  # pragma: no cover - progress chatter
            print(f"  simulating {len(todo)} cell(s) on "
                  f"{min(self.parallel, len(todo))} worker(s) ...",
                  flush=True)
        with CellExecutor(self.parallel, self.worker_timeout,
                          factory=self._executor_factory) as pool:
            done = pool.starmap(self._worker, [(args,) for _, args in todo])
        self.stats.worker_failures += pool.failures
        self.stats.worker_retries += pool.retries
        self.stats.serial_fallbacks += pool.gave_up
        if pool.retries:
            warnings.warn(
                f"parallel cells: {pool.retries} cell(s) needed retrying "
                "in a fresh worker pool (worker missed its "
                f"{self.worker_timeout:g}s deadline or died)",
                RuntimeWarning, stacklevel=4)
        if pool.gave_up:
            warnings.warn(
                f"parallel cells: {pool.gave_up} cell(s) failed twice; "
                "falling back to serial simulation", RuntimeWarning,
                stacklevel=4)
        lost, errors = [], []
        for (key, args), (value, error) in zip(todo, done):
            if error is None:
                out[key] = self._record(key, args, value)
            elif isinstance(error, WorkerLost):
                lost.append((key, args))
            else:
                errors.append(error)
        if errors:
            raise errors[0]
        return lost

    def _record(self, key: str, args: tuple, value):
        self.stats.sim_runs += 1
        self._cache[key] = value
        if self.store is not None and _outcome(value) in ("clean",
                                                          "recovered"):
            meta = {"scale": str(self.scale), "max_cycles": self.max_cycles}
            plan = args[6]       # the _run_cell tuple's fault plan
            if plan is not None:
                meta["chaos"] = plan.name
            self.store.put(key, value, meta=meta)
        return value

    # -- public cell access --------------------------------------------------

    def result(self, workload: str, config: str) -> RunResult:
        """One grid cell; raises :class:`SimulationTimeout` if it
        deadlocked."""
        key = self.store_key(workload, config)
        return _completed(
            self._cells({key: self._cell_args(workload, config)})[key])

    def prefetch(self, configs, workloads=None) -> None:
        """Simulate a grid of cells up-front, in parallel when enabled;
        raises :class:`SimulationTimeout` if any cell deadlocked."""
        cells = {self.store_key(w, c): self._cell_args(w, c)
                 for w in (workloads or self.workloads) for c in configs}
        values = self._cells(cells, min_batch=1)
        for key in cells:
            _completed(values[key])

    def eval_cells(self, cells) -> dict:
        """Evaluate heterogeneous cells -- ``(workload, config_name,
        base_config)`` triples, each with its *own* base -- and return
        ``{store_key: RunResult | None}`` (None marks a fatal cell that
        deadlocked).

        This is the exploration driver's evaluation path
        (:mod:`repro.explore.driver`).  Keys are the *plain*
        :func:`~repro.sim.store.cell_key` -- no explore-specific salt --
        so candidates dedupe against every sweep and figure cell ever
        stored (see the key-reuse note in ``sim/store.py``).
        """
        todo = {}
        for workload, config, base in cells:
            key = cell_key(workload, config, base, self.scale,
                           self.max_cycles)
            todo.setdefault(key, self._cell_args(workload, config, base))
        values = self._cells(todo)
        return {key: (None if _outcome(values[key]) == "fatal"
                      else values[key]) for key in todo}

    def chaos_grid(self, plans: dict, configs, workloads=None
                   ) -> dict:
        """Run every (workload, config, plan-key) chaos cell and return
        ``{(workload, config, key): (outcome, result)}`` (result is None
        for ``fatal``).

        ``plans`` maps an opaque key (e.g. a fault rate) to a
        :class:`~repro.faults.FaultPlan`.  Only ``clean`` and
        ``recovered`` outcomes are persisted (``audit-fail`` and
        ``fatal`` are never cached).
        """
        keys = {}
        cells = {}
        for w in (workloads or self.workloads):
            for c in configs:
                # lint: ignore[DET002] -- plan grid is built in
                # scenario-declaration order, stable by construction
                for pkey, plan in plans.items():
                    key = self.chaos_store_key(w, c, plan)
                    keys[(w, c, pkey)] = key
                    cells[key] = self._cell_args(w, c, plan=plan)
        values = self._cells(cells)
        out = {}
        for cell in keys:
            value = values[keys[cell]]
            outcome = _outcome(value)
            out[cell] = (outcome, None if outcome == "fatal" else value)
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

def bigger_gpu(base: SystemConfig | None = None, scale: str = "bench",
               workloads=None) -> dict:
    """Speedup of NDP(Dyn)_Cache over Baseline when the SM count doubles."""
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
