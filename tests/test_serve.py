"""The ``repro serve`` subsystem: token bucket, fair queue, coalescer,
shard pool, HTTP daemon admission/error mapping, and the loadtest
acceptance criteria (coalesced duplicates, exactly-once per unique cell,
bit-identical results, structured 429 rejections).

Daemon tests run thread workers (the ``executor_factory`` seam) on an
ephemeral port so they stay in-process and deterministic; the worker
seam (``ServeDaemon(..., worker=...)``) swaps in gated/flaky stubs where
wall-clock or failure injection matters.
"""

import concurrent.futures as cf
import contextlib
import http.client
import json
import queue
import sys
import threading
import time

import pytest

from repro import api
from repro.serve import (
    Coalescer,
    Job,
    JobQueue,
    QueueClosed,
    ServeClient,
    ServeConfig,
    ServeDaemon,
    ServeError,
    ShardPool,
    TokenBucket,
    execute_job,
    run_loadtest,
)
from repro.serve.daemon import _HotSet
from repro.serve.loadtest import build_schedule, latency_split
from repro.sim.serialize import result_to_dict

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def stub_worker(kind, payload):
    """Instant worker: echoes enough shape for the daemon/loadtest."""
    return {"kind": kind, "ok": True, "source": "stub",
            "store_key": f"stub-{payload.get('max_cycles')}", "result": None}


class GatedWorker:
    """Blocks every call on a gate; records call payloads."""

    def __init__(self):
        self.gate = threading.Event()
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, kind, payload):
        with self._lock:
            self.calls.append(payload.get("max_cycles"))
        assert self.gate.wait(30.0), "test gate never opened"
        return {"kind": kind, "ok": True, "source": "stub",
                "store_key": f"stub-{payload.get('max_cycles')}",
                "result": None}


class FlakyWorker:
    """First ``hang_calls`` calls hang past the job timeout, then OK."""

    def __init__(self, hang_calls=1, hang_seconds=5.0):
        self.hang_calls = hang_calls
        self.hang_seconds = hang_seconds
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, kind, payload):
        with self._lock:
            self.calls += 1
            attempt = self.calls
        if attempt <= self.hang_calls:
            time.sleep(self.hang_seconds)
        return {"ok": True, "attempt": attempt}


class CoalescingWorker:
    """Runs the real :func:`execute_job`, but holds each shared cell's
    job until the daemon's coalescer has admitted that cell's
    ``duplicates`` twin requests.  Without the hold, a client thread that
    lags behind a fast shared cell finds it finished and is served warm
    instead of coalesced.  The hold is bounded: if the duplicates never
    arrive the job fails, and so does the test."""

    def __init__(self, shared, duplicates, timeout=30.0):
        self.shared = set(shared)      # max_cycles of the shared cells
        self.duplicates = duplicates
        self.timeout = timeout
        self._admitted = {}            # guarded-by: _cond
        self._cond = threading.Condition()

    def watch(self, coalescer, monkeypatch):
        """Count, per cell, the duplicates ``coalescer`` admits."""
        admit = coalescer.admit

        def counting(job):
            owner, coalesced = admit(job)
            if coalesced:
                cell = job.payload.get("max_cycles")
                with self._cond:
                    self._admitted[cell] = self._admitted.get(cell, 0) + 1
                    self._cond.notify_all()
            return owner, coalesced

        monkeypatch.setattr(coalescer, "admit", counting)

    def __call__(self, kind, payload):
        cell = payload.get("max_cycles")
        if kind == "run" and cell in self.shared:
            with self._cond:
                arrived = self._cond.wait_for(
                    lambda: self._admitted.get(cell, 0) >= self.duplicates,
                    self.timeout)
            assert arrived, f"duplicates of cell {cell} never coalesced"
        return execute_job(kind, payload)


@contextlib.contextmanager
def serve_daemon(worker=None, **kw):
    kw.setdefault("port", 0)
    kw.setdefault("shards", 2)
    kw.setdefault("job_timeout", 60.0)
    kw.setdefault("request_timeout", 60.0)
    daemon = ServeDaemon(ServeConfig(**kw), worker=worker,
                         executor_factory=cf.ThreadPoolExecutor)
    daemon.start()
    try:
        yield daemon, ServeClient(daemon.address, client_id="test")
    finally:
        daemon.stop()


def run_payload(max_cycles=5_000_000, **overrides):
    payload = {"workload": "VADD", "config": "Baseline", "scale": "ci",
               "max_cycles": max_cycles}
    payload.update(overrides)
    return payload


def post_in_thread(client, payload):
    """POST ``payload`` to ``/v1/run`` from a fresh thread; returns a
    future of the response body (a non-2xx raises :class:`ServeError`
    from ``result()``)."""
    fut = cf.Future()

    def post():
        try:
            fut.set_result(client.run(**payload))
        except Exception as e:
            fut.set_exception(e)

    threading.Thread(target=post, daemon=True).start()
    return fut


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def make_job(client="c", key="00000000aa", kind="run", payload=None):
    return Job(kind=kind, key=key, payload=payload or {}, client=client)


# ---------------------------------------------------------------------------
# unit: token bucket
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_disabled_when_rate_nonpositive(self):
        tb = TokenBucket(0.0)
        assert not tb.enabled
        for _ in range(100):
            assert tb.allow("anyone") == (True, 0.0)
        assert tb.rejections == 0

    def test_burst_then_reject_with_retry_after(self):
        clock = FakeClock()
        tb = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert tb.allow("c") == (True, 0.0)
        assert tb.allow("c") == (True, 0.0)
        ok, retry = tb.allow("c")
        assert not ok
        assert retry == pytest.approx(1.0)
        assert tb.rejections == 1

    def test_refill_over_time(self):
        clock = FakeClock()
        tb = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        tb.allow("c"), tb.allow("c")
        clock.t = 0.5                       # half a token: still rejected
        ok, retry = tb.allow("c")
        assert not ok
        assert retry == pytest.approx(0.5)
        clock.t = 1.5                       # a full token accrued
        assert tb.allow("c") == (True, 0.0)

    def test_buckets_are_per_client(self):
        clock = FakeClock()
        tb = TokenBucket(rate=1.0, burst=1.0, clock=clock)
        assert tb.allow("a")[0]
        assert not tb.allow("a")[0]
        assert tb.allow("b")[0]             # fresh client, fresh burst


# ---------------------------------------------------------------------------
# unit: fair queue + coalescer
# ---------------------------------------------------------------------------


class TestJobQueue:
    def test_round_robin_fairness(self):
        q = JobQueue(max_depth=8)
        for key in ("k1", "k2", "k3"):
            q.push(make_job("a", key))
        q.push(make_job("b", "k4"))
        order = [q.pop() for _ in range(4)]
        assert [j.client for j in order] == ["a", "b", "a", "a"]
        # FIFO within a lane is preserved.
        assert [j.key for j in order if j.client == "a"] == ["k1", "k2", "k3"]

    def test_overflow_raises(self):
        q = JobQueue(max_depth=2)
        q.push(make_job("a", "k1"))
        q.push(make_job("b", "k2"))
        with pytest.raises(OverflowError, match="full"):
            q.push(make_job("c", "k3"))

    def test_close_rejects_push_and_unblocks_pop(self):
        q = JobQueue()
        q.push(make_job("a", "k1"))
        q.close()
        with pytest.raises(QueueClosed):
            q.push(make_job("a", "k2"))
        # Queued work is still served before the closed signal.
        assert q.pop().key == "k1"
        with pytest.raises(QueueClosed):
            q.pop()

    def test_drain_empties_every_lane(self):
        q = JobQueue()
        q.push(make_job("a", "k1"))
        q.push(make_job("b", "k2"))
        drained = q.drain()
        assert {j.key for j in drained} == {"k1", "k2"}
        assert q.depth == 0


class TestCoalescer:
    def test_duplicate_key_attaches_to_inflight_job(self):
        co = Coalescer()
        first, coalesced = co.admit(make_job("a", "k"))
        assert not coalesced
        second, coalesced = co.admit(make_job("b", "k"))
        assert coalesced
        assert second is first
        assert first.waiters == 2
        assert co.hits == 1
        assert co.inflight() == 1

    def test_resolve_retires_key_and_publishes_value(self):
        co = Coalescer()
        job, _ = co.admit(make_job("a", "k"))
        co.resolve(job, value={"ok": True})
        assert job.future.result(timeout=1) == {"ok": True}
        assert co.inflight() == 0
        # A fresh request for the same key is a new job, not a coalesce.
        _, coalesced = co.admit(make_job("a", "k"))
        assert not coalesced

    def test_resolve_error_raises_for_every_waiter(self):
        co = Coalescer()
        job, _ = co.admit(make_job("a", "k"))
        co.admit(make_job("b", "k"))
        co.resolve(job, error=TimeoutError("deadline"))
        with pytest.raises(TimeoutError):
            job.future.result(timeout=1)


# ---------------------------------------------------------------------------
# unit: shard pool
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def shard_pool(**kw):
    """A :class:`ShardPool` reading its own :class:`JobQueue`; yields
    ``(pool, jobs, done)``: push jobs into ``jobs``, and each callback
    lands in the ``done`` queue as ``(key, value, error)``.  The pool is
    stopped on exit."""
    jobs, done = JobQueue(), queue.Queue()
    pool = ShardPool(jobs, lambda job, value, error: done.put(
        (job.key, value, error)), executor_factory=cf.ThreadPoolExecutor,
        **kw)
    try:
        yield pool, jobs, done
    finally:
        pool.stop()


class TestShardPool:
    def test_timeout_replaces_worker_and_retries_once(self):
        counts = {}

        def on_counter(name, n=1):
            counts[name] = counts.get(name, 0) + n

        flaky = FlakyWorker(hang_calls=1, hang_seconds=3.0)
        with shard_pool(shards=1, job_timeout=0.2, worker=flaky,
                        on_counter=on_counter) as (pool, jobs, done):
            jobs.push(make_job())
            _, value, error = done.get(timeout=30.0)
            assert error is None
            assert value["attempt"] == 2
            assert pool.restarts == 1
            assert counts["serve.worker.restarts"] == 1
            assert counts["serve.worker.retries"] == 1

    def test_timeout_on_both_attempts_fails_the_job(self):
        flaky = FlakyWorker(hang_calls=2, hang_seconds=3.0)
        with shard_pool(shards=1, job_timeout=0.2,
                        worker=flaky) as (pool, jobs, done):
            jobs.push(make_job())
            _, value, error = done.get(timeout=30.0)
            assert value is None
            assert isinstance(error, TimeoutError)
            assert "worker deadline" in str(error)
            assert pool.restarts == 2

    def test_application_error_returned_without_worker_restart(self):
        calls = []

        def bad_request(kind, payload):
            calls.append(kind)
            raise KeyError("unknown workload 'NOPE'")

        with shard_pool(shards=1, worker=bad_request) as (pool, jobs, done):
            jobs.push(make_job())
            _, value, error = done.get(timeout=30.0)
            assert value is None
            assert isinstance(error, KeyError)
            assert len(calls) == 1              # no retry
            assert pool.restarts == 0           # worker kept

    def test_shards_share_the_queue_without_losing_jobs(self):
        # More shards than cores pop one queue while four producers push
        # into it under a short switch interval: every job must run
        # exactly once, and the depth counter must end at zero.
        keys = [f"{p}-{i}" for p in range(4) for i in range(50)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with shard_pool(shards=8,
                            worker=stub_worker) as (pool, jobs, done):
                def produce(p):
                    for i in range(50):
                        jobs.push(make_job(client=f"c{p}", key=f"{p}-{i}"))

                producers = [threading.Thread(target=produce, args=(p,),
                                              daemon=True) for p in range(4)]
                for t in producers:
                    t.start()
                for t in producers:
                    t.join(timeout=30.0)
                    assert not t.is_alive()
                got = [done.get(timeout=30.0) for _ in keys]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(k for k, _, _ in got) == sorted(keys)
        assert all(error is None for _, _, error in got)
        assert done.empty()                  # no job ran twice
        assert jobs.depth == 0

    @pytest.mark.parametrize("kind", ["frobnicate", "bench"])
    def test_execute_job_unknown_kind(self, kind):
        with pytest.raises(ValueError, match="unknown job kind"):
            execute_job(kind, {})


class TestHotSet:
    def test_lru_eviction(self):
        hot = _HotSet(2)
        hot.put("a", {"v": 1})
        hot.put("b", {"v": 2})
        assert hot.get("a") == {"v": 1}     # refresh 'a'
        hot.put("c", {"v": 3})              # evicts 'b', the LRU entry
        assert len(hot) == 2
        assert hot.get("b") is None
        assert hot.get("a") == {"v": 1}

    def test_zero_capacity_disables(self):
        hot = _HotSet(0)
        hot.put("a", {"v": 1})
        assert len(hot) == 0
        assert hot.get("a") is None


# ---------------------------------------------------------------------------
# unit: loadtest schedule
# ---------------------------------------------------------------------------


class TestBuildSchedule:
    KW = dict(clients=4, requests=4, duplicates=0.5, seed=7,
              workload="VADD", config="Baseline", scale="ci",
              max_cycles=2_000_000)

    def test_deterministic_per_seed(self):
        assert build_schedule(**self.KW) == build_schedule(**self.KW)
        other = build_schedule(**dict(self.KW, seed=8))
        assert other != build_schedule(**self.KW)

    def test_shared_prefix_is_identical_across_clients(self):
        schedules = build_schedule(**self.KW)
        assert len(schedules) == 4
        assert all(len(plan) == 4 for plan in schedules)
        shared = [plan[:2] for plan in schedules]
        assert all(s == shared[0] for s in shared)
        # Unique tails are disjoint across clients.
        tails = [frozenset(p["max_cycles"] for p in plan[2:])
                 for plan in schedules]
        for i, a in enumerate(tails):
            for b in tails[i + 1:]:
                assert not (a & b)

    def test_mix_substitutes_grid_kinds_round_robin(self):
        schedules = build_schedule(
            **dict(self.KW, mix="run,sweep,chaos,explore"))
        kinds = [p["kind"] for plan in schedules for p in plan]
        for kind in ("sweep", "chaos", "explore"):
            assert kinds.count(kind) == 1
        assert kinds.count("run") == 13

    def test_mix_with_more_kinds_than_clients_sends_every_kind(self):
        # Kind i takes client i % 2's slot i // 2 from the end, so
        # explore shares client 0 with sweep instead of replacing it.
        schedules = build_schedule(
            **dict(self.KW, clients=2, mix="run,sweep,chaos,explore"))
        kinds = [[p["kind"] for p in plan] for plan in schedules]
        assert sorted(kinds[0]) == ["explore", "run", "run", "sweep"]
        assert sorted(kinds[1]) == ["chaos", "run", "run", "run"]

    def test_mix_unknown_kind_names_the_valid_kinds(self):
        with pytest.raises(ValueError, match="choose from run, sweep, "
                                             "chaos, explore"):
            build_schedule(**dict(self.KW, mix="run,bench"))

    def test_mix_without_unique_slots_is_rejected(self):
        with pytest.raises(ValueError, match="unique slot"):
            build_schedule(**dict(self.KW, duplicates=1.0, mix="run,sweep"))


# ---------------------------------------------------------------------------
# daemon: admission, errors, coalescing (thread workers running stubs)
# ---------------------------------------------------------------------------


class TestDaemonErrors:
    def test_unknown_workload_is_structured_400(self):
        with serve_daemon() as (_, client):
            with pytest.raises(ServeError) as exc:
                client.run(**run_payload(workload="NOPE"))
            assert exc.value.status == 400
            assert exc.value.body["error"] == "KeyError"
            assert "NOPE" in exc.value.body["detail"]

    def test_unknown_config_is_structured_400(self):
        with serve_daemon() as (_, client):
            with pytest.raises(ServeError) as exc:
                client.run(**run_payload(config="NDP(Imaginary)"))
            assert exc.value.status == 400
            assert exc.value.body["error"] == "KeyError"

    def test_bad_sched_is_structured_400(self):
        # There is no scheduler choice: ``sched`` is an unknown field.
        with serve_daemon(worker=stub_worker) as (_, client):
            with pytest.raises(ServeError) as exc:
                client.run(**run_payload(sched="active"))
            assert exc.value.status == 400
            assert exc.value.body["error"] == "TypeError"
            assert "sched" in exc.value.body["detail"]

    def test_unknown_run_field_is_structured_400(self):
        with serve_daemon(worker=stub_worker) as (_, client):
            with pytest.raises(ServeError) as exc:
                client.run(**run_payload(frobnicate=1))
            assert exc.value.status == 400
            assert exc.value.body["error"] == "TypeError"
            assert "frobnicate" in exc.value.body["detail"]

    @pytest.mark.parametrize("kind", ["frobnicate", "bench"])
    def test_unknown_endpoint_is_404(self, kind):
        with serve_daemon(worker=stub_worker) as (_, client):
            with pytest.raises(ServeError) as exc:
                client.request("POST", f"/v1/{kind}", {})
            assert exc.value.status == 404

    def test_invalid_json_body_is_400(self):
        with serve_daemon(worker=stub_worker) as (daemon, _):
            conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                              timeout=10)
            try:
                conn.request("POST", "/v1/run", body=b"not json",
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                body = json.loads(resp.read())
            finally:
                conn.close()
            assert resp.status == 400
            assert body["error"] == "bad-json"

    def test_rate_limited_is_429_with_retry_after(self):
        with serve_daemon(worker=stub_worker, rate=0.001,
                          burst=1.0) as (daemon, client):
            assert client.run(**run_payload())["ok"]
            with pytest.raises(ServeError) as exc:
                client.run(**run_payload(max_cycles=5_000_001))
            assert exc.value.status == 429
            assert exc.value.body["error"] == "rate-limited"
            assert exc.value.retry_after > 0
            assert daemon.stats()["rate_limited"] == 1

    def test_queue_full_is_503(self):
        # One gated shard: request 1 runs, requests 2 and 3 fill the
        # queue, and request 4 finds it full.
        gated = GatedWorker()
        with serve_daemon(worker=gated, shards=1,
                          queue_depth=2) as (daemon, client):
            posts = [post_in_thread(client, run_payload(max_cycles=5_000_001))]
            assert wait_until(lambda: len(gated.calls) == 1)
            posts.append(post_in_thread(client,
                                        run_payload(max_cycles=5_000_002)))
            assert wait_until(lambda: daemon.queue.depth == 1)
            posts.append(post_in_thread(client,
                                        run_payload(max_cycles=5_000_003)))
            assert wait_until(lambda: daemon.queue.depth == 2)
            with pytest.raises(ServeError) as exc:
                client.run(**run_payload(max_cycles=5_000_004))
            assert exc.value.status == 503
            assert exc.value.body["error"] == "OverflowError"
            assert daemon.queue.depth == 2
            assert daemon.coalescer.inflight() == 3  # request 4 was retired
            gated.gate.set()
            assert [p.result(timeout=30)["ok"] for p in posts] == [True] * 3

    def test_requests_after_queue_close_are_503(self):
        with serve_daemon(worker=stub_worker) as (daemon, client):
            daemon.queue.close()
            with pytest.raises(ServeError) as exc:
                client.run(**run_payload())
            assert exc.value.status == 503
            assert exc.value.body["error"] == "QueueClosed"


class TestDaemonFairness:
    def test_queued_jobs_start_round_robin_by_client(self):
        # One gated shard runs A1 while A2-A4 and then B1 queue; B1 must
        # start before A's backlog, not after it.
        gated = GatedWorker()
        with serve_daemon(worker=gated, shards=1) as (daemon, _):
            a = ServeClient(daemon.address, client_id="A")
            b = ServeClient(daemon.address, client_id="B")
            posts = [post_in_thread(a, run_payload(max_cycles=5_000_001))]
            assert wait_until(lambda: len(gated.calls) == 1)
            for depth, cycles in enumerate((5_000_002, 5_000_003,
                                            5_000_004), start=1):
                posts.append(post_in_thread(a, run_payload(max_cycles=cycles)))
                assert wait_until(
                    lambda depth=depth: daemon.queue.depth == depth)
            posts.append(post_in_thread(b, run_payload(max_cycles=5_000_101)))
            assert wait_until(lambda: daemon.queue.depth == 4)
            gated.gate.set()
            assert all(p.result(timeout=30)["ok"] for p in posts)
            assert gated.calls == [5_000_001, 5_000_002, 5_000_101,
                                   5_000_003, 5_000_004]


class TestDaemonCoalescing:
    def test_identical_inflight_requests_simulate_once(self):
        gated = GatedWorker()
        with serve_daemon(worker=gated) as (daemon, client):
            responses = []
            lock = threading.Lock()

            def post():
                resp = client.run(**run_payload())
                with lock:
                    responses.append(resp)

            first = threading.Thread(target=post, daemon=True)
            first.start()
            assert wait_until(lambda: len(gated.calls) == 1)
            rest = [threading.Thread(target=post, daemon=True)
                    for _ in range(5)]
            for t in rest:
                t.start()
            assert wait_until(
                lambda: daemon.stats()["coalesce_hits"] == 5)
            gated.gate.set()
            for t in [first] + rest:
                t.join(timeout=30)
            assert len(responses) == 6
            assert len(gated.calls) == 1            # exactly one execution
            flags = sorted(r["coalesced"] for r in responses)
            assert flags == [False] + [True] * 5
            assert daemon.stats()["coalesce_hits"] == 5

    def test_distinct_cells_do_not_coalesce(self):
        with serve_daemon(worker=stub_worker) as (daemon, client):
            client.run(**run_payload(max_cycles=5_000_000))
            client.run(**run_payload(max_cycles=5_000_123))
            assert daemon.stats()["coalesce_hits"] == 0

    def test_shutdown_endpoint_stops_the_daemon(self):
        with serve_daemon(worker=stub_worker) as (daemon, client):
            assert client.healthz()["ok"]
            assert client.shutdown()["ok"]
            assert wait_until(lambda: daemon._stopped.is_set(), timeout=15)


class TestDaemonBatch:
    def test_batch_runs_all_jobs_and_preserves_order(self):
        with serve_daemon(worker=stub_worker) as (daemon, client):
            resp = client.batch([
                {"kind": "run", **run_payload(max_cycles=5_000_000)},
                {"kind": "run", **run_payload(max_cycles=5_000_111)},
                {"kind": "run", **run_payload(max_cycles=5_000_222)},
            ])
            assert resp["count"] == 3 and resp["ok"] == 3
            keys = [r["body"]["store_key"] for r in resp["results"]]
            assert keys == ["stub-5000000", "stub-5000111", "stub-5000222"]
            assert all(r["status"] == 200 for r in resp["results"])
            stats = daemon.stats()
            assert stats["counters"]["serve.batch.requests"] == 1
            assert stats["counters"]["serve.batch.jobs"] == 3

    def test_duplicate_jobs_inside_a_batch_coalesce(self):
        # Gated so item 1 is still in flight when item 2 is admitted (an
        # instant worker can finish it first and answer item 2 "hot").
        gated = GatedWorker()
        with serve_daemon(worker=gated) as (daemon, client):
            box = {}

            def post():
                box["resp"] = client.batch([
                    {"kind": "run", **run_payload()},
                    {"kind": "run", **run_payload()},
                ])

            t = threading.Thread(target=post, daemon=True)
            t.start()
            assert wait_until(lambda: daemon.stats()["coalesce_hits"] == 1)
            gated.gate.set()
            t.join(timeout=30)
            assert not t.is_alive()
            resp = box["resp"]
            assert resp["ok"] == 2
            flags = sorted(r["body"]["coalesced"] for r in resp["results"])
            assert flags == [False, True]
            assert daemon.stats()["coalesce_hits"] == 1

    def test_malformed_envelope_is_400(self):
        with serve_daemon(worker=stub_worker) as (_, client):
            with pytest.raises(ServeError) as e:
                client.request("POST", "/v1/batch", {"jobs": "nope"})
            assert e.value.status == 400
            with pytest.raises(ServeError) as e:
                client.request("POST", "/v1/batch", {"jobs": []})
            assert e.value.status == 400

    def test_per_item_failures_ride_their_slot(self):
        with serve_daemon(worker=stub_worker) as (_, client):
            resp = client.batch([
                {"kind": "run", **run_payload()},
                {"no_kind": True},
                {"kind": "teleport"},
            ])
            assert resp["count"] == 3 and resp["ok"] == 1
            statuses = [r["status"] for r in resp["results"]]
            assert statuses == [200, 400, 404]

    def test_batch_items_are_rate_limited_individually(self):
        with serve_daemon(worker=stub_worker, rate=0.001,
                          burst=2) as (_, client):
            resp = client.batch([
                {"kind": "run", **run_payload(max_cycles=5_000_000 + i)}
                for i in range(4)
            ])
            statuses = [r["status"] for r in resp["results"]]
            assert statuses.count(200) == 2      # burst allowance
            assert statuses.count(429) == 2      # charged per item
            assert resp["ok"] == 2


# ---------------------------------------------------------------------------
# daemon: real simulations (thread workers, default worker)
# ---------------------------------------------------------------------------


class TestDaemonSimulation:
    def test_run_bit_identical_to_direct_api_and_hot_on_repeat(self):
        direct = api.run(api.RunRequest(workload="VADD", config="Baseline",
                                        scale="ci", max_cycles=5_000_000,
                                        use_store=False))
        with serve_daemon() as (daemon, client):
            served = client.run(**run_payload())
            assert served["ok"] and served["outcome"] == "clean"
            assert served["source"] == "simulated"
            assert not served["coalesced"]
            assert (json.dumps(served["result"], sort_keys=True)
                    == json.dumps(result_to_dict(direct.result),
                                  sort_keys=True))
            again = client.run(**run_payload())
            assert again["source"] == "hot"
            assert not again["coalesced"]
            assert (json.dumps(again["result"], sort_keys=True)
                    == json.dumps(served["result"], sort_keys=True))
            assert daemon.stats()["counters"]["serve.hot.hits"] == 1

    def test_warm_store_survives_daemon_restart(self, tmp_path):
        store = str(tmp_path / "store")
        with serve_daemon(store=store) as (_, client):
            first = client.run(**run_payload())
            assert first["source"] == "simulated"
        with serve_daemon(store=store) as (daemon, client):
            warm = client.run(**run_payload())
            assert warm["source"] == "store"
            assert warm["store_key"] == first["store_key"]
            assert (json.dumps(warm["result"], sort_keys=True)
                    == json.dumps(first["result"], sort_keys=True))
            assert daemon.stats()["counters"]["serve.warm.hits"] == 1

    def test_metrics_endpoint_and_jsonl_export(self, tmp_path):
        out = str(tmp_path / "serve-metrics.jsonl")
        with serve_daemon(worker=stub_worker,
                          metrics_out=out) as (daemon, client):
            client.run(**run_payload())
            records = client.metrics()
            summary = next(r for r in records if r.get("kind") == "summary")
            assert summary["counters"]["serve.requests"] == 1
            assert "serve.latency.ms" in summary["histograms"]
        with open(out) as f:
            exported = [json.loads(line) for line in f if line.strip()]
        final = next(r for r in exported if r.get("kind") == "summary")
        assert final["counters"]["serve.jobs.done"] == 1
        meta = next(r for r in exported if r.get("kind") == "meta")
        assert meta["role"] == "serve"


class TestLatencySplit:
    def test_rejected_records_do_not_set_served_percentiles(self):
        # A run that sheds load: four slow served requests and twelve
        # fast 503s.  Over every record, p50 would read a 503's latency.
        served = [100.0, 150.0, 180.0, 222.0]
        shed = [20.0 + i for i in range(12)]
        records = ([{"ok": True, "status": 200, "latency_ms": v}
                    for v in served]
                   + [{"ok": False, "status": 503, "latency_ms": v}
                      for v in shed])
        split = latency_split(records)
        lat, rej = split["latency_ms"], split["rejected_latency_ms"]
        assert (lat["p50"], lat["p90"], lat["p99"]) == (150.0, 222.0, 222.0)
        assert lat["mean"] == pytest.approx(163.0)
        assert lat["max"] == 222.0
        assert (rej["p50"], rej["max"]) == (25.0, 31.0)
        assert rej["mean"] == pytest.approx(25.5)

    def test_empty_side_reads_zero(self):
        split = latency_split([{"ok": True, "latency_ms": 5.0}])
        assert split["latency_ms"]["p50"] == 5.0
        assert split["rejected_latency_ms"] == {
            "p50": 0.0, "p90": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}


# ---------------------------------------------------------------------------
# loadtest acceptance
# ---------------------------------------------------------------------------


class TestLoadtest:
    def test_acceptance_coalesced_duplicates_exactly_once(self, tmp_path,
                                                          monkeypatch):
        """The acceptance bar: >=8 concurrent clients, 50% duplicate
        cells, cold store -> every request completes, the coalesce-hit
        metric accounts for every duplicate, and each unique cell
        simulates exactly once.  The real executor runs every cell; the
        worker only holds a shared cell until its duplicates coalesced,
        so the count does not depend on thread timing."""
        clients, requests = 8, 4
        spec = dict(clients=clients, requests=requests, duplicates=0.5,
                    seed=3, scale="ci", max_cycles=2_000_000)
        schedule = build_schedule(workload="VADD", config="Baseline",
                                  **spec)
        worker = CoalescingWorker(
            {p["max_cycles"] for p in schedule[0]
             if p["cell"].startswith("shared")},
            duplicates=clients - 1)
        with serve_daemon(worker=worker,
                          store=str(tmp_path / "store")) as (daemon, _):
            worker.watch(daemon.coalescer, monkeypatch)
            report = run_loadtest(url=daemon.address,
                                  out=str(tmp_path / "loadtest.json"),
                                  **spec)
        assert report["total_requests"] == clients * requests
        assert report["completed"] == report["total_requests"]
        assert report["rejected"] == {}
        assert report["shared_cells"] == 2
        assert report["expected_duplicates"] == 2 * (clients - 1)
        assert report["coalesce_hits"] >= report["expected_duplicates"]
        # Exactly-once: one fresh simulation per distinct cell, no more.
        distinct = 2 + clients * (requests - 2)
        assert report["distinct_cells"] == distinct
        assert report["simulated_cells"] == distinct
        for pct in ("p50", "p90", "p99"):
            assert report["latency_ms"][pct] >= 0
        saved = json.loads((tmp_path / "loadtest.json").read_text())
        assert saved["coalesce_hits"] == report["coalesce_hits"]

    def test_mixed_kinds_reach_every_endpoint(self):
        with serve_daemon(worker=stub_worker) as (daemon, _):
            report = run_loadtest(url=daemon.address, clients=5,
                                  requests=2, duplicates=0.5, seed=0,
                                  scale="ci", max_cycles=2_000_000,
                                  mix="run,sweep,chaos,explore")
        assert report["completed"] == report["total_requests"]
        kinds = {r["kind"] for r in report["records"]}
        assert kinds == {"run", "sweep", "chaos", "explore"}

    def test_rate_limited_clients_get_structured_429s(self):
        with serve_daemon(worker=stub_worker, rate=0.001,
                          burst=1.0) as (daemon, _):
            report = run_loadtest(url=daemon.address, clients=4,
                                  requests=3, duplicates=0.0, seed=1,
                                  scale="ci", max_cycles=2_000_000)
        assert report["rejected"].get("429", 0) > 0
        assert report["rate_limited"] == report["rejected"]["429"]
        limited = [r for r in report["records"] if r.get("status") == 429]
        assert limited
        assert all(r["error"] == "rate-limited" for r in limited)
        assert all(r["retry_after"] > 0 for r in limited)
        assert report["rejected_latency_ms"]["max"] == max(
            r["latency_ms"] for r in report["records"] if not r["ok"])
        # Admitted + rejected must still account for every request.
        assert (report["completed"] + sum(report["rejected"].values())
                == report["total_requests"])
