"""The serve daemon's shard-worker pool and the picklable job executors.

The pool is the hardened-pool idiom of
:meth:`repro.analysis.figures.ExperimentRunner._parallel_map` reshaped
for a long-running service: instead of one pool per grid, N **shards**
each own a single-worker executor and a FIFO of jobs.  Jobs are routed
to a shard by their content-derived key (``int(key[:8], 16) % shards``
-- never ``hash()``, which is per-process salted), so repeated requests
for the same cell land on the same shard and duplicate work serializes
naturally even without coalescing.

Each shard survives its worker: a job that exceeds the per-job timeout
or crashes the worker process gets the executor torn down and replaced
(``serve.worker.restarts``) and one retry in the fresh worker; an
*application* error (unknown workload, bad scale) is returned to the
waiter as-is without touching the worker.  ``mode="thread"`` swaps the
process executor for a thread executor -- same code path, no pickling,
for fast deterministic tests.

Everything below ``execute_job`` runs *inside* the worker process and
must stay picklable/module-level, exactly like ``figures._run_cell``.
Run jobs follow the store reservation protocol
(:meth:`repro.sim.store.ResultStore.reserve`): the winner simulates and
publishes, losers wait for the entry -- so even two *daemons* sharing a
store simulate a cell once.
"""

from __future__ import annotations

import concurrent.futures as cf
import queue
import threading

__all__ = ["ShardPool", "execute_job", "run_key"]

#: Job kinds the executor understands (the daemon's POST endpoints).
JOB_KINDS = ("run", "sweep", "chaos", "bench", "explore")

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
    """

    def __init__(self, shards: int = 2, mode: str = "process",
                 job_timeout: float = 900.0, worker=None,
                 on_counter=None) -> None:
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown pool mode {mode!r}: "
                             "expected 'process' or 'thread'")
        self.mode = mode
        self.job_timeout = float(job_timeout)
        self.worker = worker or execute_job
        self._count = on_counter or (lambda name, n=1: None)
        self._lock = threading.Lock()
        # Bumped concurrently by every shard thread's _replace_executor;
        # unlike the daemon's snapshot counters this one feeds the
        # serve.worker.restarts metric, so lost increments would break
        # the exactly-once accounting tests.
        self._restarts = 0                 # guarded-by: _lock
        self._shards = [_Shard(i, self) for i in range(max(1, int(shards)))]

    @property
    def shards(self) -> int:
        return len(self._shards)

    @property
    def restarts(self) -> int:
        with self._lock:
            return self._restarts

    def note_restart(self) -> None:
        """Called from shard threads on worker replacement."""
        with self._lock:
            self._restarts += 1

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


class _Shard:
    """One FIFO + one single-worker executor, replaced on timeout/crash."""

    def __init__(self, index: int, pool: ShardPool) -> None:
        self.index = index
        self.pool = pool
        self._q: queue.Queue = queue.Queue()
        self._executor = None
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name=f"serve-shard-{index}")
        self._thread.start()

    def submit(self, job, on_done) -> None:
        self._q.put((job, on_done))

    def stop(self) -> None:
        self._q.put(None)

    def join(self, timeout: float) -> None:
        self._thread.join(timeout)

    # -- worker lifecycle ----------------------------------------------------

    def _new_executor(self):
        if self.pool.mode == "thread":
            return cf.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"serve-w{self.index}")
        return cf.ProcessPoolExecutor(max_workers=1)

    def _replace_executor(self) -> None:
        """Graceful worker replacement: never wait for a hung worker --
        cancel what has not started and leave the straggler to die with
        the executor's process (same policy as ``_parallel_map``)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self.pool.note_restart()
        self.pool._count("serve.worker.restarts")

    # -- the shard loop ------------------------------------------------------

    def _loop(self) -> None:
        while True:
            item = self._q.get()
            if item is None:
                if self._executor is not None:
                    self._executor.shutdown(wait=False, cancel_futures=True)
                return
            job, on_done = item
            value, error = self._execute(job)
            try:
                on_done(job, value, error)
            except Exception:  # pragma: no cover - resolver must not kill us
                pass

    def _execute(self, job) -> tuple:
        """Run one job with a deadline; one retry in a fresh worker for
        infrastructure failures (timeout / worker crash), none for
        application errors."""
        error: BaseException | None = None
        for attempt in (0, 1):
            if self._executor is None:
                self._executor = self._new_executor()
            fut = self._executor.submit(self.pool.worker, job.kind,
                                        job.payload)
            try:
                return fut.result(timeout=self.pool.job_timeout), None
            except cf.TimeoutError:
                self._replace_executor()
                error = TimeoutError(
                    f"job {job.label()} exceeded the "
                    f"{self.pool.job_timeout:g}s worker deadline")
            except cf.BrokenExecutor:
                self._replace_executor()
                error = RuntimeError(
                    f"worker crashed running job {job.label()}")
            except Exception as e:
                # Application error (unknown workload, bad config, ...):
                # the worker is healthy, the request is not.  No retry.
                return None, e
            if attempt:
                break
            self.pool._count("serve.worker.retries")
        return None, error


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


def _exec_bench(payload: dict) -> dict:
    from repro import api

    out = api.bench(suites=tuple(payload.get("suites", ("sparse",))),
                    quick=bool(payload.get("quick", True)),
                    repeats=int(payload.get("repeats", 1)),
                    max_cycles=int(payload.get("max_cycles", 20_000_000)),
                    out=None)
    return {"kind": "bench", "report": out.report}


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
              "bench": _exec_bench, "explore": _exec_explore}


def execute_job(kind: str, payload: dict) -> dict:
    """The worker-process entry point: one job in, one JSON-able dict
    out.  Raises for malformed requests; the daemon maps exception types
    to HTTP statuses."""
    fn = _EXECUTORS.get(kind)
    if fn is None:
        raise ValueError(f"unknown job kind {kind!r}; "
                         f"expected one of {', '.join(JOB_KINDS)}")
    return fn(dict(payload))
