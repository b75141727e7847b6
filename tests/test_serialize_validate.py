"""Tests for result serialization and the post-run invariant auditor."""

import pytest

from repro.config import ci_config
from repro.sim.runner import make_config, run_workload
from repro.sim.serialize import (
    dump_results,
    load_results,
    result_from_dict,
    result_to_dict,
)
from repro.sim.system import System
from repro.sim.validate import AuditError, assert_clean, audit_system
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def sample_result():
    return run_workload("VADD", "NDP(0.4)", base=ci_config(), scale="ci")


class TestSerialization:
    def test_round_trip_preserves_fields(self, sample_result):
        d = result_to_dict(sample_result)
        back = result_from_dict(d)
        assert back.cycles == sample_result.cycles
        assert back.traffic == sample_result.traffic
        assert back.stalls == sample_result.stalls
        assert back.ipc == pytest.approx(sample_result.ipc)

    def test_dump_load_dict(self, sample_result, tmp_path):
        path = tmp_path / "res.json"
        dump_results({"a": sample_result}, str(path))
        loaded = load_results(str(path))
        assert loaded["a"].cycles == sample_result.cycles

    def test_dump_load_list(self, sample_result, tmp_path):
        path = tmp_path / "res.json"
        dump_results([sample_result, sample_result], str(path))
        loaded = load_results(str(path))
        assert len(loaded) == 2
        assert loaded[1].workload == "VADD"

    def test_json_is_plain_types(self, sample_result):
        import json

        text = json.dumps(result_to_dict(sample_result))
        assert "VADD" in text


def run_system(workload="VADD", config="NaiveNDP"):
    cfg = make_config(config, ci_config())
    system = System(cfg, config_name=config)
    inst = get_workload(workload).build(cfg, "ci")
    system.set_code_layout(inst.blocks)
    system.load_workload(inst.name, inst.traces)
    result = system.run()
    return system, result


class TestAudit:
    @pytest.mark.parametrize("config", ["Baseline", "NaiveNDP", "NDP(0.4)",
                                        "NDP(Dyn)_Cache"])
    def test_clean_after_normal_runs(self, config):
        system, result = run_system("VADD", config)
        assert audit_system(system, result) == []

    @pytest.mark.parametrize("workload", ["BFS", "BPROP", "STCL"])
    def test_clean_for_complex_workloads(self, workload):
        system, result = run_system(workload, "NaiveNDP")
        assert_clean(system, result)

    def test_detects_credit_leak(self):
        system, result = run_system()
        system.ndp.credits.release(0, cmd=1)   # spurious credit
        system.engine.drain()
        failures = audit_system(system, result)
        assert any("credit" in f.lower() for f in failures)

    def test_detects_counter_mismatch(self):
        system, result = run_system()
        system.ndp.stats.acks -= 1
        with pytest.raises(AuditError):
            assert_clean(system, result)
