"""Job model for the serve daemon: the fair queue and the coalescer.

A :class:`Job` is one unit of simulation work (a run, a sweep, a chaos
grid or an explore call) identified by a content-derived key.
Two structures route jobs between the HTTP threads and the shard pool:

* :class:`JobQueue` -- a bounded blocking queue with **round-robin
  client fairness**: each client gets its own FIFO lane and the shards
  pop lanes in rotation, so one chatty client cannot starve the rest.
  FIFO order *within* a client is preserved.
* :class:`Coalescer` -- the in-flight registry keyed by job key.
  Admitting a key that is already queued or running attaches the caller
  to the existing job's future instead of creating a second job, so
  identical cells simulate exactly once no matter how many clients ask.

Both are plain ``threading`` structures; nothing here touches the
simulator.  See ``docs/serving.md``.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

__all__ = ["Coalescer", "Job", "JobQueue", "QueueClosed", "job_fingerprint"]


def job_fingerprint(kind: str, payload: dict) -> str:
    """Content-derived key for non-run jobs (sweep/chaos/explore):
    sha256 over the kind and the canonical JSON of the payload, so two
    identical grid requests coalesce exactly like two identical cells."""
    canon = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(f"{kind}\n{canon}".encode()).hexdigest()


@dataclass
class Job:
    """One admitted unit of work plus its shared completion future.

    ``key`` is the coalescing identity: the *store cell key* for run
    jobs (plan-fingerprint-salted when faults are armed) and a
    :func:`job_fingerprint` for grid jobs.  ``waiters`` counts how many
    requests are blocked on :attr:`future` (1 for the admitting request;
    +1 per coalesced duplicate)."""

    kind: str                      # run / sweep / chaos / explore
    key: str
    payload: dict
    client: str
    future: Future = field(default_factory=Future)
    waiters: int = 1

    def label(self) -> str:
        return f"{self.kind}:{self.key[:12]}"


class QueueClosed(RuntimeError):
    """Raised by :meth:`JobQueue.push`/``pop`` after shutdown."""


class JobQueue:
    """Round-robin fair blocking queue of :class:`Job`.

    One FIFO lane per client; :meth:`pop` serves lanes in rotation
    starting after the last-served client.  Lane order is the order in
    which clients first appear, which makes fairness deterministic for
    tests (two clients enqueueing A,A,A and B -> pops interleave)."""

    def __init__(self, max_depth: int = 1024) -> None:
        self.max_depth = max(1, int(max_depth))
        self._lanes: dict[str, deque[Job]] = {}   # guarded-by: _lock
        self._order: list[str] = []        # guarded-by: _lock
        self._cursor = 0                   # guarded-by: _lock
        self._depth = 0                    # guarded-by: _lock
        self._closed = False               # guarded-by: _lock
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)

    def push(self, job: Job) -> int:
        """Enqueue; returns the queue depth after insertion.  Raises
        :class:`QueueClosed` after :meth:`close` and ``OverflowError``
        when the queue is at ``max_depth`` (the daemon maps this to a
        503)."""
        with self._ready:
            if self._closed:
                raise QueueClosed("job queue is shut down")
            if self._depth >= self.max_depth:
                raise OverflowError(
                    f"job queue full ({self.max_depth} jobs)")
            lane = self._lanes.get(job.client)
            if lane is None:
                lane = self._lanes[job.client] = deque()
                self._order.append(job.client)
            lane.append(job)
            self._depth += 1
            self._ready.notify()
            return self._depth

    def pop(self) -> Job:
        """Next job by round-robin fairness, blocking until one is
        queued.  Raises :class:`QueueClosed` once closed *and* drained."""
        with self._ready:
            while not self._depth:
                if self._closed:
                    raise QueueClosed("job queue is shut down")
                self._ready.wait()
            return self._pop_locked()

    def _pop_locked(self) -> Job:
        n = len(self._order)
        for step in range(n):
            idx = (self._cursor + step) % n
            lane = self._lanes[self._order[idx]]
            if lane:
                self._cursor = (idx + 1) % n
                self._depth -= 1
                return lane.popleft()
        raise AssertionError("depth counter out of sync with lanes")

    def close(self) -> None:
        with self._ready:
            self._closed = True
            self._ready.notify_all()

    def drain(self) -> list[Job]:
        """Remove and return every queued job (shutdown path: the daemon
        fails their futures so waiters unblock)."""
        with self._ready:
            out: list[Job] = []
            # lint: ignore[DET002] -- shutdown drain; order only affects
            # the order waiters observe the same CancelledError
            for lane in self._lanes.values():
                out.extend(lane)
                lane.clear()
            self._depth = 0
            return out

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth


class Coalescer:
    """In-flight job registry: one job per key, many waiters.

    :meth:`admit` either registers ``job`` as the in-flight owner of its
    key (returns ``(job, False)``) or attaches to the existing in-flight
    job (returns ``(existing, True)``).  :meth:`resolve` publishes the
    outcome on the job future and retires the key -- *after* which a new
    request for the same key admits a fresh job (normally it will hit the
    warm cache instead)."""

    def __init__(self) -> None:
        self._inflight: dict[str, Job] = {}   # guarded-by: _lock
        self._lock = threading.Lock()
        # Monotonic int bumped under _lock but read bare by the daemon's
        # /v1/stats snapshot; a torn read costs nothing.
        self.hits = 0  # guarded-by: none -- stats counter, racy read is fine

    def admit(self, job: Job) -> tuple[Job, bool]:
        with self._lock:
            existing = self._inflight.get(job.key)
            if existing is not None:
                existing.waiters += 1
                self.hits += 1
                return existing, True
            self._inflight[job.key] = job
            return job, False

    def resolve(self, job: Job, value=None, error: BaseException | None = None
                ) -> None:
        with self._lock:
            self._inflight.pop(job.key, None)
        if error is not None:
            job.future.set_exception(error)
        else:
            job.future.set_result(value)

    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)
