"""The exploration driver: generations of propose -> validate -> evaluate.

One :func:`explore` call runs a search agent over a
:class:`~repro.explore.space.SearchSpace` for a fixed number of
generations, evaluating every candidate through
:meth:`~repro.analysis.figures.ExperimentRunner.eval_cells` -- the same
hardened parallel pool and content-addressed store every sweep and
figure uses.  Because candidates materialize to plain ``(config name,
base config)`` store cells (no explore-specific salt), re-visited
configurations are served from the store across runs *and* across
agents: a second seeded run proposes the identical candidate sequence
and completes with zero fresh simulations.

Artifacts (under ``out/``):

* ``trajectory.jsonl``   -- one meta record, then every evaluation and a
  per-generation summary row, in evaluation order.  Records carry no
  timestamps and no cache provenance, so two seeded runs (and a
  ``resume`` of a truncated file) produce byte-identical trajectories.
* ``best_configs.json``  -- the ``top_k`` best candidates with their
  store keys (see :mod:`repro.explore.report`).

``resume`` replays the agent loop from generation 0 with evaluations
served from the prior trajectory: the agent's RNG stream re-advances
through the identical proposal sequence, reconstructing its exact state
before the first genuinely new generation runs.  Nothing about agent
internals is ever serialized.  See ``docs/design-space.md``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from repro.explore.agents import Evaluation, History, best_of, make_agent
from repro.explore.space import resolve_space

__all__ = ["FITNESS", "ExploreOutcome", "ExploreStats", "explore"]

#: Trajectory schema version; bump on incompatible record changes.
TRAJECTORY_SCHEMA = 1


# -- fitness functions --------------------------------------------------------

def _fitness_cycles(result, cfg) -> float:
    return float(result.cycles)


def _fitness_energy(result, cfg) -> float:
    from repro.energy import compute_energy
    return float(compute_energy(result, cfg).total)


def _fitness_edp(result, cfg) -> float:
    # Energy-delay product, the classic single-number architecture merit.
    return _fitness_cycles(result, cfg) * _fitness_energy(result, cfg)


#: Fitness registry: name -> fn(RunResult, full SystemConfig) -> float,
#: lower is better.  ``cfg`` is the *materialized* configuration of the
#: candidate (offload mode applied), as the energy model requires.
FITNESS = {
    "cycles": _fitness_cycles,
    "energy": _fitness_energy,
    "edp": _fitness_edp,
}


# -- outcome ------------------------------------------------------------------

@dataclass
class ExploreStats:
    """Where the evaluations of one :func:`explore` call came from."""

    evaluated: int = 0      # evaluations recorded (all sources)
    cache_hits: int = 0     # served from the persistent result store
    fresh: int = 0          # actually simulated this run
    replayed: int = 0       # served from the resume trajectory
    rejected: int = 0       # proposals failing space validity
    revisits: int = 0       # proposals of already-evaluated points
    generations: int = 0    # generation loops executed

    def as_dict(self) -> dict:
        return {"evaluated": self.evaluated, "cache_hits": self.cache_hits,
                "fresh": self.fresh, "replayed": self.replayed,
                "rejected": self.rejected, "revisits": self.revisits,
                "generations": self.generations}

    @property
    def hit_pct(self) -> float:
        return 100.0 * self.cache_hits / max(1, self.evaluated)


@dataclass
class ExploreOutcome:
    """Everything one :func:`explore` call produced."""

    workload: str
    space: object                  # the resolved SearchSpace
    agent: str
    seed: int
    fitness: str
    scale: str
    max_cycles: int
    history: History
    best: list[Evaluation]         # top_k, fitness ascending
    best_entries: list[dict]       # the best_configs.json entries
    generation_rows: list[dict]    # the per-generation fitness table
    stats: ExploreStats
    trajectory_path: str | None = None
    best_path: str | None = None
    store_root: str | None = None
    fatal_points: list[tuple] = field(default_factory=list)


# -- trajectory records -------------------------------------------------------

def _dump(rec: dict) -> str:
    """Canonical bytes for one trajectory record: sorted keys, no
    whitespace variance, so byte identity falls out of value identity."""
    return json.dumps(rec, sort_keys=True)


def _meta_record(workload, sp, agent, fitness, scale, max_cycles) -> dict:
    return {
        "kind": "explore-meta",
        "schema": TRAJECTORY_SCHEMA,
        "workload": workload,
        "agent": agent.name,
        "seed": agent.seed,
        "population": agent.population,
        "fitness": fitness,
        "scale": scale if isinstance(scale, str) else repr(scale),
        "max_cycles": max_cycles,
        "space": {"name": sp.name, "fingerprint": sp.fingerprint(),
                  "knobs": {k.name: list(k.values) for k in sp.knobs}},
    }


#: Meta fields that must match for a resume to be sound (``generations``
#: is deliberately absent: resuming with more generations extends a run).
_IDENTITY_FIELDS = ("workload", "agent", "seed", "population", "fitness",
                    "scale", "max_cycles")


def _load_trajectory(path: str) -> list[dict]:
    """Parse a trajectory file, tolerating a truncated final line (a
    killed run tears at most the tail)."""
    records: list[dict] = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                break
    return records


def _check_resume_meta(prior: dict, meta: dict, path: str) -> None:
    if prior.get("kind") != "explore-meta":
        raise ValueError(f"{path} does not start with an explore-meta "
                         "record; not a trajectory file")
    if prior.get("schema") != meta["schema"]:
        raise ValueError(f"{path}: trajectory schema {prior.get('schema')} "
                         f"!= {meta['schema']}")
    for f in _IDENTITY_FIELDS:
        if prior.get(f) != meta[f]:
            raise ValueError(
                f"cannot resume from {path}: {f} was {prior.get(f)!r}, "
                f"this run has {meta[f]!r}")
    fp = (prior.get("space") or {}).get("fingerprint")
    if fp != meta["space"]["fingerprint"]:
        raise ValueError(
            f"cannot resume from {path}: search-space fingerprint changed "
            f"({fp} -> {meta['space']['fingerprint']})")


def _evaluation_record(ev: Evaluation) -> dict:
    return {"kind": "evaluation", "gen": ev.gen, "point": ev.point,
            "config": ev.config_name,
            "fitness": ev.fitness if ev.ok else None,
            "cycles": ev.cycles, "energy_nj": ev.energy_nj,
            "outcome": ev.outcome}


def _replayed_evaluation(sp, gen: int, point: dict, rec: dict) -> Evaluation:
    fatal = rec.get("outcome") == "fatal"
    return Evaluation(
        gen=gen, point=dict(point), key=sp.point_key(point),
        config_name=rec["config"],
        fitness=math.inf if fatal else float(rec["fitness"]),
        cycles=rec.get("cycles"), energy_nj=rec.get("energy_nj"),
        outcome="fatal" if fatal else "ok")


# -- the driver ---------------------------------------------------------------

def explore(*, workload: str = "VADD", space=None, agent: str = "hillclimb",
            generations: int = 5, population: int = 8, seed: int = 0,
            fitness: str = "cycles", top_k: int = 5,
            out: str = "explore-out", resume: str | None = None,
            base=None, scale: str = "bench", store=None,
            use_store: bool = True, parallel: int = 1,
            max_cycles: int = 20_000_000, metrics=None,
            progress=None) -> ExploreOutcome:
    """Run ``agent`` over ``space`` for ``generations`` and return an
    :class:`ExploreOutcome`.  See :func:`repro.api.explore` for the
    parameter catalogue and ``docs/design-space.md`` for the contract."""
    from repro.analysis.figures import ExperimentRunner
    from repro.api import resolve_store
    from repro.sim.runner import make_config
    from repro.sim.store import cell_key

    sp = resolve_space(space, base)
    if fitness not in FITNESS:
        raise KeyError(f"unknown fitness {fitness!r}; choose from "
                       f"{sorted(FITNESS)}")
    fitness_fn = FITNESS[fitness]
    ag = make_agent(agent, sp, seed=seed, population=population)
    meta = _meta_record(workload, sp, ag, fitness, scale, max_cycles)

    # Resume: preload the prior trajectory's evaluations by point key.
    # The loop below replays from generation 0, serving these instead of
    # simulating, which re-advances the agent RNG to its exact pre-crash
    # state -- continuation is then bit-identical by construction.
    preloaded: dict[tuple, dict] = {}
    if resume:
        prior = _load_trajectory(resume)
        if not prior:
            raise ValueError(f"{resume} has no usable trajectory records")
        _check_resume_meta(prior[0], meta, resume)
        for rec in prior[1:]:
            if rec.get("kind") == "evaluation":
                preloaded[sp.point_key(rec["point"])] = rec

    runner = ExperimentRunner(
        base=sp.base, scale=scale, workloads=[workload],
        max_cycles=max_cycles, parallel=max(1, parallel or 1),
        store=resolve_store(store, use_store=use_store))

    stats = ExploreStats()
    history = History()
    generation_rows: list[dict] = []
    fatal_points: list[tuple] = []

    traj_path = None
    traj_file = None
    if out is not None:
        os.makedirs(out, exist_ok=True)
        traj_path = os.path.join(out, "trajectory.jsonl")
        traj_file = open(traj_path, "w")
        traj_file.write(_dump(meta) + "\n")
        traj_file.flush()

    try:
        for gen in range(max(0, generations)):
            proposals = ag.propose(history)
            if not proposals:
                break
            stats.generations += 1

            # Validate and dedupe, preserving proposal order.
            batch: list[tuple[tuple, dict]] = []
            batch_keys = set()
            rejected = revisits = 0
            for p in proposals:
                if not sp.valid(p):
                    rejected += 1
                    continue
                k = sp.point_key(p)
                if k in history or k in batch_keys:
                    revisits += 1
                    continue
                batch_keys.add(k)
                batch.append((k, p))
            stats.rejected += rejected
            stats.revisits += revisits

            # Materialize the cells that need evaluating (not replayed).
            pending: dict[tuple, tuple[str, str, object]] = {}
            for k, p in batch:
                if k in preloaded:
                    continue
                config_name, cfg = sp.materialize(p)
                skey = cell_key(workload, config_name, cfg, scale,
                                max_cycles)
                pending[k] = (skey, config_name, cfg)

            before_hits = runner.stats.store_hits
            before_sims = runner.stats.sim_runs
            results = (runner.eval_cells(
                [(workload, c, cfg) for _s, c, cfg in
                 [pending[k] for k, _p in batch if k in pending]])
                if pending else {})
            stats.cache_hits += runner.stats.store_hits - before_hits
            stats.fresh += runner.stats.sim_runs - before_sims

            # Record evaluations in proposal order.
            for k, p in batch:
                if k in preloaded:
                    ev = _replayed_evaluation(sp, gen, p, preloaded[k])
                    stats.replayed += 1
                else:
                    skey, config_name, cfg = pending[k]
                    res = results[skey]
                    if res is None:
                        ev = Evaluation(gen=gen, point=dict(p), key=k,
                                        config_name=config_name,
                                        fitness=math.inf, outcome="fatal")
                    else:
                        full = make_config(config_name, cfg)
                        from repro.energy import compute_energy
                        ev = Evaluation(
                            gen=gen, point=dict(p), key=k,
                            config_name=config_name,
                            fitness=float(fitness_fn(res, full)),
                            cycles=res.cycles,
                            energy_nj=float(compute_energy(res, full).total),
                            outcome="ok")
                history.add(ev)
                stats.evaluated += 1
                if not ev.ok:
                    fatal_points.append(k)
                if traj_file is not None:
                    traj_file.write(_dump(_evaluation_record(ev)) + "\n")

            best = history.best()
            row = {"kind": "generation", "gen": gen,
                   "proposed": len(proposals), "evaluated": len(batch),
                   "rejected": rejected, "revisits": revisits,
                   "best_fitness": best.fitness if best else None,
                   "best_point": dict(best.point) if best else None}
            generation_rows.append(row)
            if traj_file is not None:
                traj_file.write(_dump(row) + "\n")
                traj_file.flush()
            if progress is not None:
                bf = (f"{row['best_fitness']:,.0f}"
                      if row["best_fitness"] is not None else "n/a")
                progress(f"gen {gen}: evaluated {len(batch)} "
                         f"(rejected {rejected}, revisits {revisits}), "
                         f"best {fitness} {bf}")
    finally:
        if traj_file is not None:
            traj_file.close()

    best = best_of(history.evaluations, top_k)
    best_entries = []
    for rank, ev in enumerate(best, start=1):
        config_name, cfg = sp.materialize(ev.point)
        best_entries.append({
            "rank": rank, "point": dict(ev.point), "config": config_name,
            "fitness": ev.fitness, "cycles": ev.cycles,
            "energy_nj": ev.energy_nj,
            "store_key": cell_key(workload, config_name, cfg, scale,
                                  max_cycles)})

    outcome = ExploreOutcome(
        workload=workload, space=sp, agent=ag.name, seed=seed,
        fitness=fitness, scale=meta["scale"], max_cycles=max_cycles,
        history=history, best=best, best_entries=best_entries,
        generation_rows=generation_rows, stats=stats,
        trajectory_path=traj_path,
        store_root=(str(runner.store.root) if runner.store is not None
                    else None),
        fatal_points=fatal_points)

    if out is not None:
        from repro.explore.report import write_best_configs
        outcome.best_path = write_best_configs(
            outcome, os.path.join(out, "best_configs.json"))

    if metrics is not None:
        metrics.meta.update({"workload": workload, "explore_space": sp.name,
                             "explore_agent": ag.name,
                             "explore_fitness": fitness})
        metrics.counter("explore.evaluated").add(stats.evaluated)
        metrics.counter("explore.cache_hits").add(stats.cache_hits)
        metrics.counter("explore.fresh").add(stats.fresh)
        metrics.counter("explore.replayed").add(stats.replayed)
        metrics.counter("explore.rejected").add(stats.rejected)
        metrics.counter("explore.revisits").add(stats.revisits)
        metrics.counter("explore.generations").add(stats.generations)
        if best:
            metrics.counter("explore.best_fitness").set(best[0].fitness)
    return outcome
