"""One deadline-and-retry worker pool for every grid and every served job.

:class:`~repro.analysis.figures.ExperimentRunner` (the paper's figures,
``sweep``, ``chaos`` and ``explore``) and each shard of the serve
daemon's :class:`~repro.serve.pool.ShardPool` fan picklable jobs out
through a :class:`CellExecutor`, which owns the one failure policy:

* every job gets a deadline: ``timeout`` seconds from when the caller
  starts waiting on it;
* a job whose worker misses the deadline or dies (``cf.TimeoutError``,
  ``cf.BrokenExecutor``) gets the pool replaced and one retry in the
  fresh pool; a job lost that way twice comes back as
  :class:`WorkerLost`, and the caller decides what that means (the
  runner simulates the cell serially, serve answers 504/500);
* an exception the job raised itself comes back at once and is not
  retried -- the worker is healthy, the job is not.

Stdlib only and free of simulator imports, so the serve layer may use
it (CONC005).
"""

from __future__ import annotations

import concurrent.futures as cf

__all__ = ["CellExecutor", "WorkerLost"]


class WorkerLost(Exception):
    """A job's worker missed its deadline or died, on both attempts."""

    def __init__(self, timed_out: bool) -> None:
        super().__init__("worker missed its deadline" if timed_out
                         else "worker died")
        self.timed_out = timed_out


class CellExecutor:
    """Runs jobs on up to ``workers`` workers under the module's policy.

    ``factory(max_workers=n)`` builds the pool (default:
    ``cf.ProcessPoolExecutor``; tests pass ``cf.ThreadPoolExecutor``).  The
    pool is created on first use and kept until a failure replaces it or
    :meth:`close` releases it.  ``on_count(name, n)``, if given, sees
    every counter increment as it happens.

    Counters (written only by the thread calling :meth:`starmap`):
    ``failures`` -- attempts lost to a missed deadline or a dead worker;
    ``retries`` -- jobs resubmitted to a fresh pool; ``restarts`` --
    pools replaced after a failure; ``gave_up`` -- jobs lost twice.
    """

    def __init__(self, workers: int = 1, timeout: float = 900.0,
                 factory=None, on_count=None) -> None:
        self.workers = max(1, int(workers))
        self.timeout = float(timeout)
        self.factory = factory or cf.ProcessPoolExecutor
        self.on_count = on_count
        self.failures = 0
        self.retries = 0
        self.restarts = 0
        self.gave_up = 0
        self._pool = None

    def __enter__(self) -> "CellExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release the pool without waiting: jobs not yet started are
        cancelled, a hung straggler dies with its worker."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def starmap(self, fn, jobs: list) -> list:
        """Run ``fn(*job)`` for every argument tuple in ``jobs``; return
        one ``(value, error)`` pair per job, in order.  ``error`` is None
        on success, the job's own exception, or :class:`WorkerLost`.
        ``fn`` must be a module-level (picklable) function."""
        out: list = [None] * len(jobs)
        pending = list(range(len(jobs)))
        for attempt in (0, 1):
            lost = self._attempt(fn, jobs, pending, out)
            if not lost:
                return out
            self._count("failures", len(lost))
            self.close()
            self._count("restarts", 1)
            pending = [i for i, _ in lost]
            if attempt == 0:
                self._count("retries", len(pending))
        self._count("gave_up", len(lost))
        for i, timed_out in lost:
            out[i] = (None, WorkerLost(timed_out))
        return out

    def _attempt(self, fn, jobs: list, pending: list, out: list) -> list:
        """One pass over ``pending``; fills ``out`` and returns the
        ``(index, timed_out)`` pairs whose worker was lost."""
        if self._pool is None:
            self._pool = self.factory(
                max_workers=min(self.workers, len(pending)))
        lost: list = []
        futures = []
        for i in pending:
            try:
                futures.append((i, self._pool.submit(fn, *jobs[i])))
            except cf.BrokenExecutor:
                lost.append((i, False))
        for i, fut in futures:
            # cf.wait, not fut.result(timeout): a TimeoutError the job
            # raised itself must not read as a missed deadline.
            done, _ = cf.wait([fut], timeout=self.timeout)
            if not done:
                lost.append((i, True))
                continue
            try:
                out[i] = (fut.result(), None)
            except cf.BrokenExecutor:
                lost.append((i, False))
            except Exception as e:
                out[i] = (None, e)
        return sorted(lost)

    def _count(self, name: str, n: int) -> None:
        setattr(self, name, getattr(self, name) + n)
        if self.on_count is not None:
            self.on_count(name, n)
