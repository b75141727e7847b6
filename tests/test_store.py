"""Tests for the persistent result store and hardened parallel prefetch."""

import concurrent.futures as cf
import json
import os
import subprocess
import sys
import time
import warnings
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.analysis import figures
from repro.analysis.figures import ExperimentRunner
from repro.config import ci_config
from repro.executor import CellExecutor, WorkerLost
from repro.sim.runner import run_cell, run_workload
from repro.sim.store import (CODE_VERSION_SALT, STORE_FORMAT, ResultStore,
                             cell_key)
from repro.sim.system import SimulationTimeout

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def tiny_result():
    return run_workload("VADD", "Baseline", base=ci_config(), scale="ci")


class TestCellKey:
    def test_deterministic(self):
        a = cell_key("VADD", "Baseline", ci_config(), "ci", 1000)
        b = cell_key("VADD", "Baseline", ci_config(), "ci", 1000)
        assert a == b
        assert len(a) == 64

    def test_each_input_changes_key(self):
        base = ci_config()
        ref = cell_key("VADD", "Baseline", base, "ci", 1000)
        assert cell_key("KMN", "Baseline", base, "ci", 1000) != ref
        assert cell_key("VADD", "NDP(Dyn)", base, "ci", 1000) != ref
        assert cell_key("VADD", "Baseline", base, "bench", 1000) != ref
        assert cell_key("VADD", "Baseline", base, "ci", 2000) != ref
        assert cell_key("VADD", "Baseline", base, "ci", 1000,
                        salt="other") != ref

    def test_config_override_changes_key(self):
        base = ci_config()
        ref = cell_key("VADD", "Baseline", base, "ci", 1000)
        more_sms = base.scaled_gpu(num_sms=base.gpu.num_sms + 8)
        assert cell_key("VADD", "Baseline", more_sms, "ci", 1000) != ref

    def test_stable_across_processes(self):
        """The key must not depend on hash randomization or process state."""
        here = cell_key("VADD", "NDP(Dyn)", ci_config(), "ci", 1000)
        code = ("from repro.config import ci_config;"
                "from repro.sim.store import cell_key;"
                "print(cell_key('VADD', 'NDP(Dyn)', ci_config(), 'ci',"
                " 1000))")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        env["PYTHONHASHSEED"] = "12345"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == here


class TestResultStore:
    def test_round_trip(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        key = cell_key("VADD", "Baseline", ci_config(), "ci", 20_000_000)
        assert store.get(key) is None
        store.put(key, tiny_result, meta={"scale": "ci"})
        loaded = store.get(key)
        assert loaded is not None
        assert loaded.cycles == tiny_result.cycles
        assert loaded.stalls.as_dict() == tiny_result.stalls.as_dict()
        assert store.hits == 1 and store.misses == 1

    def test_corrupted_entry_is_miss_and_removed(self, tmp_path,
                                                 tiny_result):
        store = ResultStore(tmp_path)
        key = cell_key("VADD", "Baseline", ci_config(), "ci", 1)
        path = store.put(key, tiny_result)
        with open(path, "w") as f:
            f.write('{"format": 1, "key": "truncat')
        assert store.get(key) is None
        assert store.corrupt == 1
        assert not os.path.exists(path)

    def test_stale_format_is_miss(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        key = cell_key("VADD", "Baseline", ci_config(), "ci", 1)
        path = store.put(key, tiny_result)
        with open(path) as f:
            payload = json.load(f)
        payload["format"] = STORE_FORMAT + 1
        with open(path, "w") as f:
            json.dump(payload, f)
        assert store.get(key) is None
        assert store.corrupt == 1

    def test_ls_and_clear(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        k1 = cell_key("VADD", "Baseline", ci_config(), "ci", 1)
        k2 = cell_key("VADD", "NDP(Dyn)", ci_config(), "ci", 1)
        store.put(k1, tiny_result)
        store.put(k2, tiny_result)
        entries = store.ls()
        assert len(entries) == len(store) == 2
        assert {e["key"] for e in entries} == {k1, k2}
        assert all(e["workload"] == "VADD" for e in entries)
        assert all(e["salt"] == CODE_VERSION_SALT for e in entries)
        assert store.clear() == 2
        assert len(store) == 0


class TestRunnerStoreIntegration:
    def _runner(self, tmp_path, **kw):
        kw.setdefault("base", ci_config())
        kw.setdefault("scale", "ci")
        kw.setdefault("workloads", ["VADD"])
        return ExperimentRunner(store=str(tmp_path), **kw)

    def test_second_runner_hits_store(self, tmp_path):
        r1 = self._runner(tmp_path)
        a = r1.result("VADD", "Baseline")
        assert r1.stats.sim_runs == 1

        r2 = self._runner(tmp_path)
        b = r2.result("VADD", "Baseline")
        assert r2.stats.sim_runs == 0
        assert r2.stats.store_hits == 1
        assert b.cycles == a.cycles

    def test_memory_cache_preferred(self, tmp_path):
        r = self._runner(tmp_path)
        r.result("VADD", "Baseline")
        r.result("VADD", "Baseline")
        assert r.stats.sim_runs == 1
        assert r.stats.memory_hits == 1

    def test_config_change_invalidates(self, tmp_path):
        r1 = self._runner(tmp_path)
        r1.result("VADD", "Baseline")

        other = ci_config().scaled_gpu(num_sms=ci_config().gpu.num_sms + 4)
        r2 = self._runner(tmp_path, base=other)
        r2.result("VADD", "Baseline")
        assert r2.stats.store_hits == 0
        assert r2.stats.sim_runs == 1

    def test_prefetch_serves_from_store(self, tmp_path):
        r1 = self._runner(tmp_path)
        r1.prefetch(["Baseline", "NDP(Dyn)"], workloads=["VADD"])
        assert r1.stats.sim_runs == 2

        r2 = self._runner(tmp_path)
        r2.prefetch(["Baseline", "NDP(Dyn)"], workloads=["VADD"])
        assert r2.stats.sim_runs == 0
        assert r2.stats.store_hits == 2


class TestParallelPrefetchHardening:
    """The timeout/crash recovery paths, driven through the test seams
    (a thread-pool factory + a controllable worker function)."""

    def _runner(self, **kw):
        kw.setdefault("base", ci_config())
        kw.setdefault("scale", "ci")
        kw.setdefault("workloads", ["VADD"])
        kw.setdefault("parallel", 2)
        return ExperimentRunner(**kw)

    def test_crash_then_retry_succeeds(self, tiny_result):
        r = self._runner()
        calls = {}

        def worker(arg):
            w, c, *_ = arg
            calls[(w, c)] = calls.get((w, c), 0) + 1
            if calls[(w, c)] == 1:
                raise BrokenProcessPool("simulated worker crash")
            return tiny_result, []

        r._executor_factory = cf.ThreadPoolExecutor
        r._worker = worker
        with pytest.warns(RuntimeWarning, match="retrying"):
            r.prefetch(["Baseline", "NDP(Dyn)"], workloads=["VADD"])
        assert r.stats.worker_failures == 2
        assert r.stats.worker_retries == 2
        assert r.stats.serial_fallbacks == 0
        assert r.stats.sim_runs == 2   # worker simulations count too
        assert r.store_key("VADD", "Baseline") in r._cache
        assert r.store_key("VADD", "NDP(Dyn)") in r._cache

    def test_repeated_crash_falls_back_to_serial(self, monkeypatch,
                                                 tiny_result):
        r = self._runner()

        def always_crash(arg):
            raise BrokenProcessPool("boom")

        monkeypatch.setattr(figures, "run_cell",
                            lambda *a, **k: (None, tiny_result, []))
        r._executor_factory = cf.ThreadPoolExecutor
        r._worker = always_crash
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            r.prefetch(["Baseline"], workloads=["VADD"])
        assert r.stats.serial_fallbacks == 1
        assert r.stats.sim_runs == 1
        assert r.store_key("VADD", "Baseline") in r._cache

    def test_worker_timeout_is_a_failure(self, monkeypatch, tiny_result):
        r = self._runner(worker_timeout=0.05)

        def slow(arg):
            time.sleep(0.4)
            return tiny_result, []

        monkeypatch.setattr(figures, "run_cell",
                            lambda *a, **k: (None, tiny_result, []))
        r._executor_factory = cf.ThreadPoolExecutor
        r._worker = slow
        with pytest.warns(RuntimeWarning):
            r.prefetch(["Baseline"], workloads=["VADD"])
        assert r.stats.worker_failures >= 1
        assert r.store_key("VADD", "Baseline") in r._cache

    def test_serial_prefetch_unaffected(self):
        r = self._runner(parallel=1)
        r.prefetch(["Baseline"], workloads=["VADD"])
        assert r.stats.sim_runs == 1
        assert r.stats.worker_failures == 0

    def test_dead_worker_process_is_lost_not_a_job_error(self):
        """Real worker processes: one that dies mid-job is retried
        once in a fresh pool, then reported lost; an exception the job
        raises comes back as-is, unretried."""
        with CellExecutor(workers=2, timeout=60.0) as pool:
            out = pool.starmap(divmod, [(7, 2), (1, 0)])
            [(_, lost)] = pool.starmap(os._exit, [(3,)])
        assert out[0] == ((3, 1), None)
        assert isinstance(out[1][1], ZeroDivisionError)
        assert isinstance(lost, WorkerLost) and not lost.timed_out
        assert (pool.failures, pool.retries, pool.restarts,
                pool.gave_up) == (2, 1, 2, 1)

    def test_fatal_cell_simulated_once(self, monkeypatch):
        """A deadlocking cell is an outcome, not a worker failure: one
        simulation per cell, no retry or serial-fallback warning."""
        calls = []

        def counting(workload, config, **kw):
            calls.append((workload, config))
            return run_cell(workload, config, **kw)

        monkeypatch.setattr(figures, "run_cell", counting)
        r = self._runner(max_cycles=50)
        r._executor_factory = cf.ThreadPoolExecutor
        cells = [("VADD", "Baseline", ci_config()),
                 ("VADD", "NDP(Dyn)", ci_config())]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = r.eval_cells(cells)
            assert list(out.values()) == [None, None]
            with pytest.raises(SimulationTimeout):
                r.prefetch(["Baseline"], workloads=["VADD"])
        assert sorted(calls) == [("VADD", "Baseline"), ("VADD", "NDP(Dyn)")]
        assert r.stats.sim_runs == 2
        assert r.stats.worker_failures == 0
        assert r.stats.serial_fallbacks == 0

