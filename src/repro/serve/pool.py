"""The serve daemon's shard-worker pool and the picklable job executors.

N **shards** each own a FIFO of jobs and one long-lived single-worker
:class:`~repro.executor.CellExecutor` -- the same deadline-and-retry
executor every ``ExperimentRunner`` grid uses.  Jobs are routed to a
shard by their content-derived key (``int(key[:8], 16) % shards`` --
never ``hash()``, which is per-process salted), so repeated requests for
the same cell land on the same shard and duplicate work serializes
naturally even without coalescing.

The executor's policy is the service's: a job that misses the per-job
deadline or kills its worker gets the worker replaced
(``serve.worker.restarts``) and one retry in the fresh worker
(``serve.worker.retries``); a job lost twice is answered with a
``TimeoutError`` (504) or ``RuntimeError`` (500); an *application*
error (unknown workload, bad scale) is returned to the waiter as-is
without touching the worker.

Everything below ``execute_job`` runs *inside* the worker process and
must stay picklable/module-level, exactly like ``figures._run_cell``.
Run jobs follow the store reservation protocol
(:meth:`repro.sim.store.ResultStore.reserve`): the winner simulates and
publishes, losers wait for the entry -- so even two *daemons* sharing a
store simulate a cell once.
"""

from __future__ import annotations

import queue
import threading

from repro.executor import CellExecutor, WorkerLost

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
    """N shards, each a FIFO + one replaceable worker.

    ``submit(job, on_done)`` routes ``job`` to its shard;  the shard
    thread executes ``worker(job.kind, job.payload)`` in the shard's
    executor with a ``job_timeout`` deadline and calls
    ``on_done(job, value, error)`` exactly once.  ``on_counter`` (if
    given) receives ``serve.*`` counter increments.
    ``executor_factory`` builds each shard's worker pool (see
    :class:`~repro.executor.CellExecutor`; tests pass thread pools).
    """

    def __init__(self, shards: int = 2, job_timeout: float = 900.0,
                 worker=None, on_counter=None,
                 executor_factory=None) -> None:
        self.job_timeout = float(job_timeout)
        self.worker = worker or execute_job
        self.executor_factory = executor_factory
        self._count = on_counter or (lambda name, n=1: None)
        self._shards = [_Shard(i, self) for i in range(max(1, int(shards)))]

    @property
    def shards(self) -> int:
        return len(self._shards)

    @property
    def restarts(self) -> int:
        """Worker replacements across all shards (each shard's executor
        counts its own, so no lock is needed to sum them)."""
        return sum(s.cells.restarts for s in self._shards)

    def shard_of(self, key: str) -> int:
        """Stable shard index from the leading key bytes (content-derived
        keys are hex SHA-256, uniformly distributed)."""
        try:
            return int(key[:8], 16) % len(self._shards)
        except ValueError:
            return sum(key.encode()) % len(self._shards)

    def submit(self, job, on_done) -> int:
        idx = self.shard_of(job.key)
        self._shards[idx].submit(job, on_done)
        return idx

    def queue_depths(self) -> list[int]:
        """Per-shard FIFO depths (approximate -- Queue.qsize), surfaced
        by ``GET /v1/stats`` so clients can see routing skew."""
        return [s._q.qsize() for s in self._shards]

    def shutdown(self, wait_seconds: float = 5.0) -> None:
        for s in self._shards:
            s.stop()
        for s in self._shards:
            s.join(wait_seconds / max(1, len(self._shards)))

    def _worker_count(self, name: str, n: int) -> None:
        self._count(f"serve.worker.{name}", n)


class _Shard:
    """One FIFO + one single-worker executor, replaced on timeout/crash."""

    def __init__(self, index: int, pool: ShardPool) -> None:
        self.index = index
        self.pool = pool
        self._q: queue.Queue = queue.Queue()
        self.cells = CellExecutor(1, pool.job_timeout,
                                  factory=pool.executor_factory,
                                  on_count=pool._worker_count)
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name=f"serve-shard-{index}")
        self._thread.start()

    def submit(self, job, on_done) -> None:
        self._q.put((job, on_done))

    def stop(self) -> None:
        self._q.put(None)

    def join(self, timeout: float) -> None:
        self._thread.join(timeout)

    def _loop(self) -> None:
        while True:
            item = self._q.get()
            if item is None:
                self.cells.close()
                return
            job, on_done = item
            [(value, error)] = self.cells.starmap(
                self.pool.worker, [(job.kind, job.payload)])
            if isinstance(error, WorkerLost) and error.timed_out:
                error = TimeoutError(
                    f"job {job.label()} exceeded the "
                    f"{self.pool.job_timeout:g}s worker deadline")
            elif isinstance(error, WorkerLost):
                error = RuntimeError(
                    f"worker crashed running job {job.label()}")
            try:
                on_done(job, value, error)
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
    from repro.serve.jobs import job_fingerprint
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


def _outcome_dict(outcome, source: str) -> dict:
    from repro.sim.serialize import result_to_dict

    return {
        "kind": "run",
        "outcome": outcome.outcome,
        "ok": outcome.ok,
        "source": source,
        "from_store": outcome.from_store,
        "store_key": outcome.store_key,
        "store_root": outcome.store_root,
        "error": outcome.error,
        "audit_failures": list(outcome.audit_failures),
        "result": (result_to_dict(outcome.result)
                   if outcome.result is not None else None),
    }


def _stored_dict(result, key: str, root: str, source: str) -> dict:
    from repro.sim.serialize import result_to_dict

    return {"kind": "run", "outcome": "clean", "ok": True, "source": source,
            "from_store": True, "store_key": key, "store_root": root,
            "error": None, "audit_failures": [],
            "result": result_to_dict(result)}


def _exec_run(payload: dict) -> dict:
    """One simulation with cross-process exactly-once semantics."""
    from repro import api

    req = _run_request(payload)
    store = req.resolved_store()
    plan = req.resolved_plan()
    if store is None or plan is not None or req.audit:
        out = api.run(req)
        return _outcome_dict(out, "store" if out.from_store else "simulated")
    from repro.sim.store import cell_key
    key = cell_key(req.workload, req.config, req.resolved_config(),
                   req.scale, req.max_cycles)
    root = str(store.root)
    cached = store.get(key)
    if cached is not None:
        return _stored_dict(cached, key, root, "store")
    with store.reserve(key) as claim:
        if claim.acquired:
            # api.run re-checks the store before simulating (the prior
            # holder may have published between our miss and the lock).
            out = api.run(req)
            return _outcome_dict(out,
                                 "store" if out.from_store else "simulated")
    waited = store.wait(key, timeout=float(payload.get("wait_timeout", 900.0)))
    if waited is not None:
        return _stored_dict(waited, key, root, "waited")
    # Holder vanished without publishing; simulate anyway -- the atomic
    # store put keeps a duplicate harmless.
    out = api.run(req)
    return _outcome_dict(out, "store" if out.from_store else "simulated")


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
