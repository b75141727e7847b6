"""The ``repro.api`` facade: RunRequest/run, sweep, chaos, and the
shared resolution helpers that subsume the old private CLI plumbing."""

import dataclasses

import pytest

from repro import api
from repro.config import ci_config
from repro.faults import RecoveryPolicy, get_scenario
from repro.sim.store import ResultStore


def _request(tmp_path=None, **overrides):
    kw = dict(workload="VADD", config="Baseline", scale="ci",
              base=ci_config(), max_cycles=5_000_000)
    if tmp_path is not None:
        kw.update(store=str(tmp_path), use_store=True)
    else:
        kw.update(use_store=False)
    kw.update(overrides)
    return api.RunRequest(**kw)


class TestRunRequest:
    def test_keyword_only_and_frozen(self):
        with pytest.raises(TypeError):
            api.RunRequest("VADD")  # positional args rejected
        req = _request()
        with pytest.raises(dataclasses.FrozenInstanceError):
            req.workload = "KMN"

    def test_defaults(self):
        req = api.RunRequest(workload="VADD")
        assert req.config == "NDP(Dyn)"
        assert req.scale == "bench"
        assert req.faults is None
        assert req.use_store is True

    def test_resolved_plan_from_scenario_name(self):
        req = _request(faults="rdf-drop", fault_rate=0.2, fault_seed=7)
        plan = req.resolved_plan()
        assert plan.name == "rdf-drop@0.2"
        assert plan.seed == 7

    def test_unknown_scenario_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown fault scenario"):
            _request(faults="bogus-scenario").resolved_plan()

    def test_recovery_override_threads_through(self):
        policy = RecoveryPolicy(ack_timeout=1234)
        req = _request(faults="rdf-drop", recovery=policy)
        assert req.resolved_plan().recovery.ack_timeout == 1234


class TestRun:
    def test_clean_run(self):
        out = api.run(_request())
        assert out.outcome == "clean"
        assert out.ok
        assert not out.from_store
        assert out.result.cycles > 0
        assert out.system is not None

    def test_store_round_trip(self, tmp_path):
        first = api.run(_request(tmp_path))
        second = api.run(_request(tmp_path))
        assert not first.from_store
        assert second.from_store
        assert second.system is None
        assert second.result.cycles == first.result.cycles
        assert second.store_key == first.store_key

    def test_faulted_run_skips_store(self, tmp_path):
        req = _request(tmp_path, config="NDP(Dyn)", faults="rdf-drop",
                       fault_rate=0.05)
        out = api.run(req)
        assert out.outcome in ("clean", "recovered")
        # the plain store must not have been populated by the faulted run
        store = ResultStore(str(tmp_path))
        assert store.get(out.store_key) is None

    def test_fatal_outcome(self):
        policy = RecoveryPolicy(mshr_max_retries=0)
        plan = get_scenario("vault-read-loss", rate=0.05, seed=1,
                            recovery=policy)
        out = api.run(_request(faults=plan))
        assert out.outcome == "fatal"
        assert not out.ok
        assert out.result is None
        assert out.error
        assert out.system is not None  # post-mortem inspection

    def test_run_kwargs_shorthand(self):
        out = api.run(workload="VADD", config="Baseline", scale="ci",
                      base=ci_config(), use_store=False,
                      max_cycles=5_000_000)
        assert out.ok


class TestSweep:
    def test_sweep_speedups(self):
        out = api.sweep("VADD", configs=("Baseline", "NDP(Dyn)"),
                        base=ci_config(), scale="ci", use_store=False,
                        max_cycles=5_000_000)
        assert set(out.results) == {"Baseline", "NDP(Dyn)"}
        assert out.speedups["NDP(Dyn)"] > 0
        assert out.stats.sim_runs == 2

    def test_sweep_without_baseline_has_no_speedups(self):
        out = api.sweep("VADD", configs=("NDP(Dyn)",), base=ci_config(),
                        scale="ci", use_store=False, max_cycles=5_000_000)
        assert out.speedups == {}


class TestChaos:
    def test_default_grid_zero_fatal(self, tmp_path):
        report = api.chaos(scenario="rdf-drop", rates=(0.0, 0.05),
                           configs=("NDP(Dyn)",), workloads=("VADD",),
                           base=ci_config(), scale="ci",
                           store=str(tmp_path), max_cycles=5_000_000)
        assert report.fatal_cells == []
        assert report.cells[("VADD", "NDP(Dyn)", 0.0)].outcome == "clean"
        fired = report.cells[("VADD", "NDP(Dyn)", 0.05)]
        assert fired.outcome == "recovered"
        assert fired.slowdown > 1.0
        counts = report.outcome_counts()
        assert counts.get("fatal", 0) == 0

    def test_salted_cache_reuse(self, tmp_path):
        kw = dict(scenario="rdf-drop", rates=(0.05,), configs=("NDP(Dyn)",),
                  workloads=("VADD",), base=ci_config(), scale="ci",
                  store=str(tmp_path), max_cycles=5_000_000)
        first = api.chaos(**kw)
        second = api.chaos(**kw)
        assert second.stats.sim_runs == 0  # both cells served from store
        assert (second.cells[("VADD", "NDP(Dyn)", 0.05)].cycles
                == first.cells[("VADD", "NDP(Dyn)", 0.05)].cycles)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown fault scenario"):
            api.chaos(scenario="nope", base=ci_config(), scale="ci",
                      use_store=False)

    def test_baseline_config_recovers(self):
        report = api.chaos(scenario="vault-read-loss", rates=(0.05,),
                           configs=("Baseline",), workloads=("VADD",),
                           base=ci_config(), scale="ci", use_store=False,
                           max_cycles=5_000_000)
        assert report.cells[("VADD", "Baseline", 0.05)].outcome == "recovered"


class TestHelpers:
    def test_base_config_overrides(self):
        cfg = api.base_config(base=ci_config(), sms=4)
        assert cfg.gpu.num_sms == 4

    def test_resolve_store(self, tmp_path):
        assert api.resolve_store(use_store=False) is None
        store = api.resolve_store(str(tmp_path))
        assert isinstance(store, ResultStore)
        assert api.resolve_store(store) is store

    def test_package_level_reexports(self):
        import repro
        assert repro.api is api
        assert repro.RunRequest is api.RunRequest
        assert repro.run is api.run
        assert repro.sweep is api.sweep
        assert repro.chaos is api.chaos
        assert repro.make_runner is api.make_runner


class TestAuditFacade:
    """``audit=True`` on sweep/chaos gives grid cells the same post-run
    audit that ``api.run`` performs (ROADMAP open item)."""

    def test_sweep_audit_clean(self):
        out = api.sweep("VADD", configs=("NDP(Dyn)",), base=ci_config(),
                        scale="ci", use_store=False, audit=True)
        assert out.audit_failures == {}

    def test_sweep_audit_failures_surface(self, monkeypatch):
        import repro.sim.validate as validate
        monkeypatch.setattr(validate, "audit_system",
                            lambda system, result: ["synthetic violation"])
        out = api.sweep("VADD", configs=("NDP(Dyn)",), base=ci_config(),
                        scale="ci", use_store=False, audit=True)
        assert out.audit_failures == {"NDP(Dyn)": ["synthetic violation"]}

    def test_sweep_audit_failures_never_persisted(self, tmp_path,
                                                  monkeypatch):
        import repro.sim.validate as validate
        monkeypatch.setattr(validate, "audit_system",
                            lambda system, result: ["synthetic violation"])
        out = api.sweep("VADD", configs=("NDP(Dyn)",), base=ci_config(),
                        scale="ci", store=str(tmp_path), use_store=True,
                        audit=True)
        assert out.audit_failures
        assert len(ResultStore(str(tmp_path))) == 0

    def test_sweep_audit_off_by_default(self):
        out = api.sweep("VADD", configs=("NDP(Dyn)",), base=ci_config(),
                        scale="ci", use_store=False)
        assert out.audit_failures == {}

    def test_chaos_reference_audit(self):
        report = api.chaos(scenario="rdf-drop", rates=(0.0,),
                           configs=("NDP(Dyn)",), base=ci_config(),
                           scale="ci", use_store=False, audit=True,
                           max_cycles=5_000_000)
        assert report.ref_audit_failures == {}

    def test_chaos_reference_audit_failures_surface(self, monkeypatch):
        import repro.sim.validate as validate
        monkeypatch.setattr(validate, "audit_system",
                            lambda system, result: ["synthetic violation"])
        report = api.chaos(scenario="rdf-drop", rates=(0.0,),
                           configs=("NDP(Dyn)",), base=ci_config(),
                           scale="ci", use_store=False, audit=True,
                           max_cycles=5_000_000)
        assert report.ref_audit_failures == {
            "VADD/NDP(Dyn)": ["synthetic violation"]}


class TestValidation:
    """``run()`` fails fast with *typed* errors before building any
    simulation state, so the CLI can map them to exit codes and the
    serve daemon to 4xx/5xx statuses."""

    def test_unknown_workload_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown workload 'NOPE'"):
            api.run(_request(workload="NOPE"))

    def test_unknown_config_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown config"):
            api.run(_request(config="NDP(Imaginary)"))

    def test_sched_keyword_rejected(self):
        # There is one main loop; no surface takes a scheduler choice.
        from repro.sim.runner import build_system
        for call in (lambda: _request(sched="active"),
                     lambda: build_system("VADD", "Baseline", sched="active"),
                     lambda: api.make_runner(sched="active"),
                     lambda: api.bench(sched="active"),
                     lambda: api.explore(sched="active")):
            with pytest.raises(TypeError, match="sched"):
                call()

    def test_unknown_scale_raises_valueerror(self):
        with pytest.raises(ValueError, match="unknown scale 'huge'"):
            api.run(_request(scale="huge"))

    def test_nonpositive_max_cycles_raises_valueerror(self):
        with pytest.raises(ValueError, match="max_cycles must be positive"):
            api.run(_request(max_cycles=0))

    def test_error_message_lists_choices(self):
        with pytest.raises(KeyError) as exc:
            api.run(_request(workload="NOPE"))
        assert "VADD" in str(exc.value)

    def test_unusable_store_dir_raises_structured_oserror(self, tmp_path):
        # A path nested *under a regular file* cannot be a directory on
        # any platform (tests run as root, so permission bits are moot).
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        bad = str(blocker / "store")
        with pytest.raises(OSError, match="cannot use result store at"):
            api.resolve_store(bad)
        with pytest.raises(OSError, match=r"cannot use result store at"):
            api.run(_request(store=bad, use_store=True))

    def test_validation_runs_before_store_side_effects(self, tmp_path):
        with pytest.raises(KeyError):
            api.run(_request(tmp_path, workload="NOPE"))
        assert len(ResultStore(str(tmp_path))) == 0
