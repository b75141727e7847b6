"""The serve daemon's shard-worker pool and the picklable job executors.

N **shards** each own one thread and one long-lived single-worker
:class:`~repro.executor.CellExecutor` -- the same deadline-and-retry
executor every ``ExperimentRunner`` grid uses.  A shard pops its next
job from the daemon's fair :class:`~repro.serve.jobs.JobQueue` only when
its worker is free, so the queue's bound and its per-client round-robin
order hold for every job that waits.

The executor's policy is the service's: a job that misses the per-job
deadline or kills its worker gets the worker replaced
(``serve.worker.restarts``) and one retry in the fresh worker
(``serve.worker.retries``); a job lost twice is answered with a
``TimeoutError`` (504) or ``RuntimeError`` (500); an *application*
error (unknown workload, bad scale) is returned to the waiter as-is
without touching the worker.

Everything below ``execute_job`` runs *inside* the worker process and
must stay picklable/module-level, exactly like ``figures._run_cell``.
"""

from __future__ import annotations

import threading

from repro.executor import CellExecutor, WorkerLost
from repro.serve.jobs import QueueClosed, job_fingerprint

__all__ = ["ShardPool", "execute_job", "run_key"]

#: Job kinds the executor understands (the daemon's POST endpoints).
JOB_KINDS = ("run", "sweep", "chaos", "explore")

#: RunRequest fields settable over the wire (JSON-able only: no live
#: SystemConfig / FaultPlan / MetricsRegistry objects cross the HTTP or
#: pickle boundary).
RUN_FIELDS = ("workload", "config", "scale", "sms", "nsu_mhz", "ro_cache",
              "target_policy", "backend", "faults", "fault_rate",
              "fault_seed", "max_cycles", "audit")


class ShardPool:
    """N shards, each a thread that pulls jobs from ``queue`` into one
    replaceable worker.

    A shard thread pops a job, executes ``worker(job.kind, job.payload)``
    in its executor with a ``job_timeout`` deadline and calls
    ``on_done(job, value, error)`` exactly once; once the queue is
    closed and drained it closes its executor and exits.  ``on_counter``
    (if given) receives ``serve.*`` counter increments.
    ``executor_factory`` builds each shard's worker pool (see
    :class:`~repro.executor.CellExecutor`; tests pass thread pools).
    """

    def __init__(self, queue, on_done, shards: int = 2,
                 job_timeout: float = 900.0, worker=None, on_counter=None,
                 executor_factory=None) -> None:
        self.queue = queue
        self.on_done = on_done
        self.job_timeout = float(job_timeout)
        self.worker = worker or execute_job
        self._count = on_counter or (lambda name, n=1: None)
        self._cells = [CellExecutor(1, self.job_timeout,
                                    factory=executor_factory,
                                    on_count=self._worker_count)
                       for _ in range(max(1, int(shards)))]
        self._threads = [threading.Thread(target=self._loop, args=(cells,),
                                          daemon=True,
                                          name=f"serve-shard-{i}")
                         for i, cells in enumerate(self._cells)]
        for t in self._threads:
            t.start()

    @property
    def shards(self) -> int:
        return len(self._cells)

    @property
    def restarts(self) -> int:
        """Worker replacements across all shards (each shard's executor
        counts its own, so no lock is needed to sum them)."""
        return sum(cells.restarts for cells in self._cells)

    def stop(self) -> None:
        """Close the queue and join the shards, 5 s in all: a shard
        still running a job finishes it as a daemon thread."""
        self.queue.close()
        for t in self._threads:
            t.join(5.0 / len(self._threads))

    def _worker_count(self, name: str, n: int) -> None:
        self._count(f"serve.worker.{name}", n)

    def _loop(self, cells: CellExecutor) -> None:
        while True:
            try:
                job = self.queue.pop()
            except QueueClosed:
                cells.close()
                return
            [(value, error)] = cells.starmap(
                self.worker, [(job.kind, job.payload)])
            if isinstance(error, WorkerLost) and error.timed_out:
                error = TimeoutError(
                    f"job {job.label()} exceeded the "
                    f"{self.job_timeout:g}s worker deadline")
            elif isinstance(error, WorkerLost):
                error = RuntimeError(
                    f"worker crashed running job {job.label()}")
            try:
                self.on_done(job, value, error)
            except Exception:  # pragma: no cover - resolver must not kill us
                pass


# -- job executors (worker-process side; must stay picklable) -----------------

def run_key(payload: dict) -> str:
    """The coalescing identity of a run job: the plain store
    :func:`~repro.sim.store.cell_key` for cacheable runs, a
    :func:`~repro.serve.jobs.job_fingerprint` for faulted/audited ones
    (their results depend on more than the cell inputs and never touch
    the plain store).  Raises ``KeyError``/``ValueError``/``TypeError``
    for malformed payloads -- the daemon maps those to a 400 *before*
    anything is queued."""
    from repro.sim.store import cell_key

    req = _run_request(payload)
    req.resolved_plan()                      # unknown scenario -> KeyError
    if req.faults is not None or req.audit:
        return job_fingerprint("run", {k: payload.get(k)
                                       for k in RUN_FIELDS})
    return cell_key(req.workload, req.config, req.resolved_config(),
                    req.scale, req.max_cycles)


def _run_request(payload: dict):
    """A :class:`repro.api.RunRequest` from a wire payload.  Unknown
    fields raise ``TypeError`` (dataclass ctor), which the daemon maps
    to a 400."""
    from repro import api

    kwargs = {k: payload[k] for k in RUN_FIELDS if payload.get(k) is not None}
    kwargs["store"] = payload.get("store")
    kwargs["use_store"] = bool(payload.get("use_store", True))
    extra = set(payload) - set(RUN_FIELDS) - {"store", "use_store", "client"}
    if extra:
        raise TypeError(f"unknown run field(s): {', '.join(sorted(extra))}")
    return api.RunRequest(**kwargs)


def _outcome_dict(outcome) -> dict:
    from repro.sim.serialize import result_to_dict

    return {
        "kind": "run",
        "outcome": outcome.outcome,
        "ok": outcome.ok,
        "source": "store" if outcome.from_store else "simulated",
        "from_store": outcome.from_store,
        "store_key": outcome.store_key,
        "store_root": outcome.store_root,
        "error": outcome.error,
        "audit_failures": list(outcome.audit_failures),
        "result": (result_to_dict(outcome.result)
                   if outcome.result is not None else None),
    }


def _stored_dict(result, key: str, root: str) -> dict:
    from repro.sim.serialize import result_to_dict

    return {"kind": "run", "outcome": "clean", "ok": True, "source": "store",
            "from_store": True, "store_key": key, "store_root": root,
            "error": None, "audit_failures": [],
            "result": result_to_dict(result)}


def _exec_run(payload: dict) -> dict:
    """One simulation; ``api.run`` answers from the store when it can."""
    from repro import api

    return _outcome_dict(api.run(_run_request(payload)))


def _grid_kwargs(payload: dict) -> dict:
    out = {"scale": payload.get("scale", "bench"),
           "store": payload.get("store"),
           "use_store": bool(payload.get("use_store", True))}
    if payload.get("max_cycles") is not None:
        out["max_cycles"] = int(payload["max_cycles"])
    return out


def _exec_sweep(payload: dict) -> dict:
    from repro import api

    out = api.sweep(payload["workload"], payload.get("configs"),
                    **_grid_kwargs(payload))
    return {
        "kind": "sweep", "workload": out.workload,
        "configs": list(out.configs),
        "cycles": {c: out.results[c].cycles for c in out.configs},
        "speedups": dict(out.speedups),
        "audit_failures": dict(out.audit_failures),
        "stats": {"sim_runs": out.stats.sim_runs,
                  "store_hits": out.stats.store_hits,
                  "memory_hits": out.stats.memory_hits},
    }


def _exec_chaos(payload: dict) -> dict:
    from repro import api

    rep = api.chaos(
        scenario=payload.get("scenario", "rdf-drop"),
        rates=tuple(payload.get("rates", (0.0, 0.01))),
        configs=tuple(payload.get("configs", ("NDP(Dyn)",))),
        workloads=tuple(payload.get("workloads", ("VADD",))),
        fault_seed=int(payload.get("fault_seed", 0)),
        **_grid_kwargs(payload))
    return {
        "kind": "chaos", "scenario": rep.scenario,
        "fault_seed": rep.fault_seed,
        "outcome_counts": rep.outcome_counts(),
        "cells": {f"{w}/{c}/{r:g}": rep.cells[(w, c, r)].label()
                  for (w, c, r) in sorted(rep.cells)},
        "stats": {"sim_runs": rep.stats.sim_runs,
                  "store_hits": rep.stats.store_hits},
    }


def _exec_explore(payload: dict) -> dict:
    from repro import api

    out = api.explore(
        workload=payload.get("workload", "VADD"),
        space=payload.get("space", "tiny"),
        agent=payload.get("agent", "hillclimb"),
        generations=int(payload.get("generations", 2)),
        population=int(payload.get("population", 4)),
        seed=int(payload.get("seed", 0)),
        fitness=payload.get("fitness", "cycles"),
        top_k=int(payload.get("top_k", 3)),
        out=None,
        scale=payload.get("scale", "bench"),
        store=payload.get("store"),
        use_store=bool(payload.get("use_store", True)),
        max_cycles=int(payload.get("max_cycles", 20_000_000)))
    return {
        "kind": "explore", "workload": out.workload, "agent": out.agent,
        "seed": out.seed, "fitness": out.fitness,
        "best": [dict(e) for e in out.best_entries],
        "generations": list(out.generation_rows),
        "stats": {"evaluated": out.stats.evaluated,
                  "cache_hits": out.stats.cache_hits,
                  "fresh": out.stats.fresh},
    }


_EXECUTORS = {"run": _exec_run, "sweep": _exec_sweep, "chaos": _exec_chaos,
              "explore": _exec_explore}


def execute_job(kind: str, payload: dict) -> dict:
    """The worker-process entry point: one job in, one JSON-able dict
    out.  Raises for malformed requests; the daemon maps exception types
    to HTTP statuses."""
    fn = _EXECUTORS.get(kind)
    if fn is None:
        raise ValueError(f"unknown job kind {kind!r}; "
                         f"expected one of {', '.join(JOB_KINDS)}")
    return fn(dict(payload))
