"""The ``repro serve`` daemon: simulation-as-a-service over HTTP.

One :class:`ServeDaemon` wires five pieces together (docs/serving.md has
the full tour):

* **admission** (HTTP threads): rate-limit check, payload validation,
  key derivation, warm-cache answers (hot set, then store) served
  synchronously without queueing;
* the :class:`~repro.serve.jobs.Coalescer`: identical keys attach to the
  in-flight job's future instead of re-queueing;
* the fair :class:`~repro.serve.jobs.JobQueue` and a dispatcher thread
  feeding the :class:`~repro.serve.pool.ShardPool`;
* an LRU **hot set** of recent run responses (``hot_set`` entries);
* ``serve.*`` metrics in a :class:`~repro.sim.metrics.MetricsRegistry`,
  exported as the standard JSONL stream on shutdown.

Endpoints (all JSON): ``POST /v1/{run,sweep,chaos,bench,explore}``,
``POST /v1/batch`` (many jobs per request, per-item statuses),
``POST /v1/shutdown``, ``GET /v1/{healthz,stats,metrics}``.  Errors are
structured: ``{"error": <type>, "detail": <message>}`` with 400 for
malformed requests, 429 (+``retry_after``) for rate-limited clients,
503 for queue-full/shutdown, 504 for jobs past the worker deadline.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serve.jobs import Coalescer, Job, JobQueue, QueueClosed, \
    job_fingerprint
from repro.serve.pool import JOB_KINDS, ShardPool, run_key

__all__ = ["ServeConfig", "ServeDaemon"]

#: Latency histogram bucket bounds, in milliseconds.
LATENCY_BOUNDS_MS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000,
                     5000, 10_000, 30_000, 60_000, 300_000)


@dataclass
class ServeConfig:
    """Every daemon knob, with service-grade defaults.  ``port=0`` binds
    an ephemeral port (read it back from :attr:`ServeDaemon.port`);
    ``rate=0`` disables per-client rate limiting; ``hot_set=0`` disables
    the in-memory LRU."""

    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 2
    job_timeout: float = 900.0
    request_timeout: float = 900.0
    queue_depth: int = 256
    rate: float = 0.0            # tokens/sec per client (0 = unlimited)
    burst: float = 16.0
    hot_set: int = 64            # LRU entries for recent run responses
    store: str | None = None
    use_store: bool = True
    metrics_out: str | None = None


class _HotSet:
    """Thread-safe LRU of recent run responses, keyed by store key."""

    def __init__(self, capacity: int) -> None:
        self.capacity = max(0, int(capacity))
        self._d: OrderedDict[str, dict] = OrderedDict()   # guarded-by: _lock
        self._lock = threading.Lock()

    def get(self, key: str) -> dict | None:
        with self._lock:
            value = self._d.get(key)
            if value is not None:
                self._d.move_to_end(key)
            return value

    def put(self, key: str, value: dict) -> None:
        if not self.capacity:
            return
        with self._lock:
            self._d[key] = value
            self._d.move_to_end(key)
            while len(self._d) > self.capacity:
                self._d.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._d)


class ServeDaemon:
    """The long-running service.  ``start()`` binds and spins up the
    server + dispatcher threads; ``stop()`` drains and shuts everything
    down (idempotent).  ``worker`` and ``executor_factory`` are test
    seams forwarded to the :class:`ShardPool` (defaults: the real
    :func:`~repro.serve.pool.execute_job` in worker processes)."""

    def __init__(self, config: ServeConfig | None = None,
                 worker=None, executor_factory=None) -> None:
        from repro.serve.limiter import TokenBucket
        from repro.sim.metrics import MetricsRegistry

        self.config = config or ServeConfig()
        self.registry = MetricsRegistry()
        self.limiter = TokenBucket(self.config.rate, self.config.burst)
        self.queue = JobQueue(max_depth=self.config.queue_depth)
        self.coalescer = Coalescer()
        self.hot = _HotSet(self.config.hot_set)
        self.pool = ShardPool(shards=self.config.shards,
                              job_timeout=self.config.job_timeout,
                              worker=worker,
                              on_counter=self._count,
                              executor_factory=executor_factory)
        self.store = None
        if self.config.use_store and self.config.store:
            from repro.sim.store import ResultStore
            self.store = ResultStore(self.config.store)
        self._server: _Server | None = None
        self._server_thread: threading.Thread | None = None
        self._dispatcher: threading.Thread | None = None
        # _stopping is an Event (not a lock-guarded bool) so healthz/stats
        # snapshots read it without taking _stop_lock; _stop_lock only
        # serializes the shutdown sequence itself.
        self._stopping = threading.Event()
        self._stop_lock = threading.Lock()
        self._stopped = threading.Event()

    # -- metrics helpers -----------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        self.registry.counter(name).add(n)

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        return self._server.server_address[1] if self._server else 0

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "ServeDaemon":
        self._server = _Server((self.config.host, self.config.port),
                               _Handler, self)
        self._server_thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.1},
            daemon=True, name="serve-http")
        self._server_thread.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch, daemon=True, name="serve-dispatch")
        self._dispatcher.start()
        return self

    def wait(self) -> None:
        """Block until :meth:`stop` runs (the CLI's foreground mode)."""
        try:
            while not self._stopped.wait(0.5):
                pass
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            self.stop()

    def stop(self) -> None:
        # ``_stopped`` is set only once shutdown has *finished* (metrics
        # flushed, workers retired) -- ``wait()`` returning early would
        # let the foreground process exit and kill the stop thread
        # mid-drain.  The test-and-set under ``_stop_lock`` elects one
        # shutdown owner; losers wait for it *outside* the lock (blocking
        # while holding it would stall every later caller behind a
        # 30 s wait -- the CONC002 shape).
        with self._stop_lock:
            first = not self._stopping.is_set()
            self._stopping.set()
        if not first:
            self._stopped.wait(timeout=30.0)
            return
        self.queue.close()
        for job in self.queue.drain():
            self.coalescer.resolve(
                job, error=QueueClosed("daemon shutting down"))
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
        self.pool.shutdown()
        from repro.lint import sanitize
        if sanitize.installed():
            for name, n in sorted(sanitize.counters().items()):
                if n:
                    self._count(name, n)
        if self.config.metrics_out:
            self.registry.meta = {"role": "serve",
                                  "address": self.address or ""}
            self.registry.export_jsonl(self.config.metrics_out)
        self._stopped.set()

    # -- dispatch + completion ----------------------------------------------

    def _dispatch(self) -> None:
        while True:
            try:
                job = self.queue.pop(timeout=0.5)
            except QueueClosed:
                return
            if job is None:
                continue
            self.pool.submit(job, self._job_done)

    def _job_done(self, job: Job, value, error) -> None:
        if error is None:
            self._count("serve.jobs.done")
            if (job.kind == "run" and isinstance(value, dict)
                    and value.get("ok")):
                self.hot.put(job.key, value)
        else:
            self._count("serve.jobs.failed")
        self.coalescer.resolve(job, value=value, error=error)

    # -- admission -----------------------------------------------------------

    def handle(self, kind: str, payload: dict, client: str
               ) -> tuple[int, dict]:
        """One POST request end-to-end; returns ``(status, body)``."""
        t0 = time.monotonic()
        self._count("serve.requests")
        status, body = self._admit(kind, payload, client)
        self.registry.observe("serve.latency.ms",
                              (time.monotonic() - t0) * 1000.0,
                              bounds=LATENCY_BOUNDS_MS)
        return status, body

    def _admit(self, kind: str, payload: dict, client: str
               ) -> tuple[int, dict]:
        answer, pending = self._enqueue(kind, payload, client)
        if answer is not None:
            return answer
        return self._await(pending)

    def _enqueue(self, kind: str, payload: dict, client: str):
        """The synchronous half of admission: rate limit, validation,
        warm-cache answers, coalescer + queue.  Returns either a final
        ``((status, body), None)`` or ``(None, (job, coalesced))`` for a
        queued/coalesced job to :meth:`_await` later.  Splitting here is
        what lets ``/v1/batch`` enqueue every item before waiting on any
        of them."""
        ok, retry_after = self.limiter.allow(client)
        if not ok:
            self._count("serve.rate_limited")
            return (429, {"error": "rate-limited",
                          "detail": f"client {client!r} is over the "
                                    f"{self.limiter.rate:g} req/s budget",
                          "retry_after": round(retry_after, 3)}), None
        payload = dict(payload)
        payload.pop("client", None)
        if self.config.store is not None:
            payload.setdefault("store", self.config.store)
        payload.setdefault("use_store", self.config.use_store)
        cacheable = False
        try:
            if kind == "run":
                key = run_key(payload)
                cacheable = (payload.get("faults") is None
                             and not payload.get("audit"))
            else:
                key = job_fingerprint(kind, payload)
        except (KeyError, ValueError, TypeError) as e:
            self._count("serve.errors")
            return (400, _error_body(e)), None

        if cacheable:
            hot = self.hot.get(key)
            if hot is not None:
                self._count("serve.hot.hits")
                return (200, {**hot, "source": "hot",
                              "coalesced": False}), None
            if self.store is not None and payload.get("use_store", True):
                cached = self.store.get(key)
                if cached is not None:
                    self._count("serve.warm.hits")
                    from repro.serve.pool import _stored_dict
                    body = _stored_dict(cached, key, str(self.store.root),
                                        "store")
                    self.hot.put(key, body)
                    return (200, {**body, "coalesced": False}), None

        job, coalesced = self.coalescer.admit(
            Job(kind=kind, key=key, payload=payload, client=client))
        if coalesced:
            self._count("serve.coalesce.hits")
        else:
            try:
                depth = self.queue.push(job)
            except (OverflowError, QueueClosed) as e:
                self.coalescer.resolve(job, error=e)
                self._count("serve.errors")
                return (503, _error_body(e)), None
            self._count("serve.jobs.queued")
            self.registry.observe("serve.queue.depth", depth)
        return None, (job, coalesced)

    def _await(self, pending) -> tuple[int, dict]:
        """The blocking half of admission: wait on a queued job's shared
        future and shape the response."""
        job, coalesced = pending
        try:
            value = job.future.result(timeout=self.config.request_timeout)
        except Exception as e:
            self._count("serve.errors")
            return _status_for(e), {**_error_body(e),
                                    "coalesced": coalesced}
        return 200, {**value, "coalesced": coalesced}

    def handle_batch(self, payload: dict, client: str) -> tuple[int, dict]:
        """``POST /v1/batch``: many jobs in one request, enqueued as a
        group so duplicate cells coalesce against each other and the
        shards work all items concurrently; the response carries one
        ``{"status", "body"}`` entry per item, in order.

        Each item is a job object ``{"kind": <run|sweep|...>, ...}`` and
        is admitted exactly like a standalone POST -- including the
        per-item rate-limit charge (batching is an HTTP amortization, not
        a quota bypass).  The request itself fails (400) only when the
        envelope is malformed; per-item failures ride the item's entry.
        """
        t0 = time.monotonic()
        jobs = payload.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            self._count("serve.errors")
            return 400, {"error": "bad-batch",
                         "detail": "expected {\"jobs\": [<job>, ...]} with "
                                   "at least one job object"}
        self._count("serve.requests")
        self._count("serve.batch.requests")
        self._count("serve.batch.jobs", len(jobs))
        # Phase 1: admit everything (warm answers resolve immediately,
        # the rest enqueue).  Phase 2: wait for the queued ones.
        slots: list = []
        for item in jobs:
            if not isinstance(item, dict) or "kind" not in item:
                self._count("serve.errors")
                slots.append(((400, {"error": "bad-batch",
                                     "detail": "each job needs a \"kind\""}),
                              None))
                continue
            item = dict(item)
            kind = item.pop("kind")
            if kind not in JOB_KINDS:
                self._count("serve.errors")
                slots.append(((404, {"error": "not-found",
                                     "detail": f"unknown job kind "
                                               f"{kind!r}"}), None))
                continue
            slots.append(self._enqueue(kind, item,
                                       str(item.pop("client", client))))
        results = [{"status": answer[0], "body": answer[1]}
                   if answer is not None
                   else dict(zip(("status", "body"), self._await(pending)))
                   for answer, pending in slots]
        self.registry.observe("serve.latency.ms",
                              (time.monotonic() - t0) * 1000.0,
                              bounds=LATENCY_BOUNDS_MS)
        ok = sum(1 for r in results if r["status"] == 200)
        return 200, {"count": len(results), "ok": ok, "results": results}

    # -- introspection -------------------------------------------------------

    def healthz(self) -> dict:
        return {"ok": not self._stopping.is_set(),
                "queue_depth": self.queue.depth,
                "inflight": self.coalescer.inflight(),
                "shards": self.pool.shards}

    def stats(self) -> dict:
        latency = self.registry.histograms.get("serve.latency.ms")
        return {
            "ok": not self._stopping.is_set(),
            "queue_depth": self.queue.depth,
            "inflight": self.coalescer.inflight(),
            "coalesce_hits": self.coalescer.hits,
            "rate_limited": self.limiter.rejections,
            "worker_restarts": self.pool.restarts,
            "shard_queue_depths": self.pool.queue_depths(),
            "hot_set": len(self.hot),
            "counters": {k: c.value for k, c in
                         sorted(self.registry.counters.items())},
            "latency_ms": ({"p50": latency.percentile(50),
                            "p90": latency.percentile(90),
                            "p99": latency.percentile(99),
                            "count": latency.count}
                           if latency is not None else None),
        }


def _error_body(exc: BaseException) -> dict:
    detail = str(exc.args[0]) if exc.args else str(exc)
    return {"error": type(exc).__name__, "detail": detail}


def _status_for(exc: BaseException) -> int:
    if isinstance(exc, (KeyError, ValueError, TypeError)):
        return 400
    if isinstance(exc, TimeoutError):
        return 504
    if isinstance(exc, (OverflowError, QueueClosed)):
        return 503
    return 500


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default listen backlog of 5 makes a burst of fresh
    # connections (every loadtest wave) eat 1 s TCP SYN retransmits.
    request_queue_size = 128

    def __init__(self, addr, handler, daemon: ServeDaemon) -> None:
        self.repro_daemon = daemon
        super().__init__(addr, handler)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:  # quiet by design
        pass

    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        try:
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass

    def do_GET(self) -> None:
        d: ServeDaemon = self.server.repro_daemon
        if self.path == "/v1/healthz":
            self._send(200, d.healthz())
        elif self.path == "/v1/stats":
            self._send(200, d.stats())
        elif self.path == "/v1/metrics":
            self._send(200, {"records": d.registry.to_records()})
        else:
            self._send(404, {"error": "not-found", "detail": self.path})

    def do_POST(self) -> None:
        d: ServeDaemon = self.server.repro_daemon
        kind = self.path.removeprefix("/v1/")
        if kind == "shutdown":
            self._send(200, {"ok": True, "detail": "shutting down"})
            threading.Thread(target=d.stop, daemon=True,
                             name="serve-stop").start()
            return
        if kind not in JOB_KINDS and kind != "batch":
            self._send(404, {"error": "not-found", "detail": self.path})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            payload = json.loads(self.rfile.read(length) or b"{}")
        except ValueError:
            self._send(400, {"error": "bad-json",
                             "detail": "request body is not valid JSON"})
            return
        if not isinstance(payload, dict):
            self._send(400, {"error": "bad-json",
                             "detail": "request body must be a JSON object"})
            return
        client = (self.headers.get("X-Repro-Client")
                  or payload.get("client") or self.client_address[0])
        if kind == "batch":
            status, body = d.handle_batch(payload, str(client))
        else:
            status, body = d.handle(kind, payload, str(client))
        self._send(status, body)


# Arm the runtime lock sanitizer when REPRO_SANITIZE=1 (a getenv
# otherwise).  At module bottom so every serve class above is patched
# before the first instance is built.
from repro.lint.sanitize import maybe_install as _maybe_sanitize  # noqa: E402

_maybe_sanitize()
