"""Memory-backend contract tests (PR 8 tentpole).

A memory substrate is one record of device facts
(``repro.memory.backend.backend_of``); these tests pin the guarantees
it makes:

* the default ``hmc`` backend is **bit-identical** to the pre-backend
  simulator (same digests as ``test_baseline_recovery.EXPECTED``, same
  store keys as fingerprints minted before the field existed);
* the ``cxl`` backend is a genuinely different machine (its own pinned
  digests, zero intra-stack NoC traffic, separated store keys);
* both backends keep their bench-scale pins on the full paper
  configuration (:class:`TestDensePins`);
* both records hold their substrate's wiring, and the shared protocol
  runs clean on both (unarmed-chaos identity, CODA placement
  determinism, a narrow NSU).
"""

import dataclasses
import hashlib
import json

import pytest

from repro.config import BACKEND_NAMES, ci_config, paper_config
from repro.faults import get_scenario
from repro.memory.backend import backend_of
from repro.sim.runner import build_system
from repro.sim.serialize import result_to_dict
from repro.sim.store import cell_key, config_fingerprint
from repro.sim.validate import audit_system
from tests import reference_stepper, test_baseline_recovery

#: The seed's hmc digest pins.  Imported through the module, not by class
#: name, so pytest does not collect the pinning class a second time here.
HMC_PINS = test_baseline_recovery.TestUnarmedDigests.EXPECTED


def _digest(result) -> str:
    blob = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _run(workload, config, base, **kw):
    system = build_system(workload, config, base=base, scale="ci", **kw)
    return system, system.run(max_cycles=20_000_000)


class TestRegistry:
    """The backend names (``config.BACKEND_NAMES``) and the record of
    device facts each one builds."""

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            dataclasses.replace(ci_config(), backend="ddr5")

    def test_hmc_record_holds_legacy_wiring(self):
        # The exact values the pre-backend simulator hard-coded; any
        # drift here breaks the bit-identity pins below.
        cfg = ci_config()
        be = backend_of(cfg)
        assert be.name == "hmc"
        assert be.noc is True
        assert be.hop_latency == 4
        assert be.cmd_entries == cfg.nsu.cmd_buffer_entries
        link = cfg.gpu.link_bytes_per_sm_cycle
        assert (be.link_down_bpc, be.link_up_bpc) == (link, link)
        assert (be.link_down_latency, be.link_up_latency) == (10, 10)
        assert be.net_bpc == cfg.hmc.link_bytes_per_sm_cycle(
            cfg.gpu.sm_clock_mhz)
        h = cfg.hmc
        assert (be.timing, be.bus_bytes, be.vaults, be.banks,
                be.queue_size, be.row_bytes) == (
            h.timing, h.vault_bus_bytes_per_dram_cycle, h.num_vaults,
            h.banks_per_vault, h.vault_queue_size, h.row_bytes)

    def test_cxl_record_reads_cxl_config(self):
        cfg = ci_config().with_backend("cxl")
        be = backend_of(cfg)
        x = cfg.cxl
        clock = cfg.gpu.sm_clock_mhz
        assert be.name == "cxl"
        assert be.noc is False
        assert be.hop_latency == x.port_latency
        assert be.cmd_entries == x.ndp_cmd_queue
        assert (be.link_down_bpc, be.link_up_bpc) == \
            x.host_link_bytes_per_sm_cycle(clock)
        assert (be.link_down_latency, be.link_up_latency) == (
            x.link_latency_down, x.link_latency_up)
        assert be.net_bpc == x.fabric_bytes_per_sm_cycle(clock)
        assert (be.timing, be.bus_bytes, be.vaults, be.banks,
                be.queue_size, be.row_bytes) == (
            x.timing, x.channel_bus_bytes_per_dram_cycle, x.num_channels,
            x.banks_per_channel, x.channel_queue_size, x.row_bytes)


class TestHMCIdentity:
    """backend="hmc" (the default) replays the pre-backend simulator."""

    @pytest.mark.parametrize("workload,config",
                             sorted(HMC_PINS))
    def test_explicit_hmc_matches_seed_digests(self, workload, config):
        base = ci_config().with_backend("hmc")
        _, result = _run(workload, config, base)
        assert _digest(result) == HMC_PINS[(workload, config)]

    def test_default_backend_is_hmc(self):
        assert ci_config().backend == "hmc"


class TestCXLDigests:
    """The cxl expander is a different, deterministic machine."""

    EXPECTED = {
        ("VADD", "Baseline"):
            "79f4b0c46520b0ce8ce3f50ccebb58e9f0cb62575816ab5c9a308ca030132257",
        ("VADD", "NDP(Dyn)"):
            "2001e4f9abf87efc64e4bbb7f0ef17b4e8ba95ea6c130432c819d024942d73f3",
        ("KMN", "NDP(Dyn)_Cache"):
            "e5a69c901d8d2354758886b415cfcb0f7deb524ccfd657802a0d91a7d48b412e",
    }

    @pytest.mark.parametrize("workload,config", sorted(EXPECTED))
    def test_cxl_digest_pinned(self, workload, config):
        base = ci_config().with_backend("cxl")
        _, result = _run(workload, config, base)
        assert _digest(result) == self.EXPECTED[(workload, config)]

    @pytest.mark.parametrize("workload,config", sorted(EXPECTED))
    def test_cxl_differs_from_hmc(self, workload, config):
        if (workload, config) in HMC_PINS:
            assert self.EXPECTED[(workload, config)] != \
                HMC_PINS[(workload, config)]

    def test_cxl_has_no_intra_stack_traffic(self):
        # The expander has no vault NoC: every access rides the host
        # link or the fabric, and the intra_hmc counter must stay 0.
        base = ci_config().with_backend("cxl")
        _, result = _run("VADD", "NDP(Dyn)", base)
        assert result.traffic.intra_hmc == 0
        # ...whereas the hmc substrate does charge the internal NoC.
        _, hmc_result = _run("VADD", "NDP(Dyn)", ci_config())
        assert hmc_result.traffic.intra_hmc > 0

    def test_legacy_scheduler_agrees_on_cxl(self):
        # The tick-everything reference stepper replays the cxl pin too.
        system = build_system("VADD", "NDP(Dyn)",
                              base=ci_config().with_backend("cxl"),
                              scale="ci")
        result = reference_stepper.step(system, max_cycles=20_000_000)
        assert _digest(result) == self.EXPECTED[("VADD", "NDP(Dyn)")]

    def test_coda_policy_changes_placement_deterministically(self):
        base = ci_config().with_backend("cxl").with_target_policy("coda")
        digests = set()
        for _ in range(2):
            _, result = _run("VADD", "NDP(Dyn)", base)
            digests.add(_digest(result))
        assert digests == {
            "f5a3e31876cd409ffdcd1bcdf98f052b386d6e99dc1db516b4bbaea4198ca544"
        }
        assert digests != {self.EXPECTED[("VADD", "NDP(Dyn)")]}


class TestOptimalPolicyPin:
    """A whole run under the traffic-optimal target policy, on hmc."""

    def test_optimal_policy_digest_pinned(self):
        base = ci_config().with_target_policy("optimal")
        _, result = _run("VADD", "NDP(Dyn)", base)
        assert _digest(result) == (
            "10df14204d219515ae094188373ffa645bacd5b6cd80824b16727724d71b0eae")
        assert _digest(result) != HMC_PINS[("VADD", "NDP(Dyn)")]


class TestDensePins:
    """Bench-scale digests of the paper configuration (64 SMs, seed 1).
    With the hmc STCL and MiniFE Baseline pins, which the repository
    benchmark checks (``bench/test_bench.py``), these are the six dense
    cells whose digests every push must reproduce."""

    EXPECTED = {
        ("hmc", "BFS", "NDP(Dyn)"):
            "07ffd34980a711e7ce2b49ee5c85b8f684b1cfb6d08f8cb3d533af6742dea60f",
        ("cxl", "BFS", "NDP(Dyn)"):
            "b5d034da80ad7c57fb5998c52a94c19c0292bc0e19ee74725c7e4d770a34534b",
        ("cxl", "STCL", "Baseline"):
            "4488efe5b407d7cbe59e69318107b672f0bd8c44c9a27c8ca0f273dd8fff7ce4",
        ("cxl", "MiniFE", "Baseline"):
            "2e670a70c195e99dd3b0da92e74d38fac6ac08fe6b1d8daf11617703a681fdd5",
    }

    @pytest.mark.parametrize("backend,workload,config", sorted(EXPECTED))
    def test_dense_digest_pinned(self, backend, workload, config):
        base = paper_config().with_backend(backend)
        system = build_system(workload, config, base=base, scale="bench")
        result = system.run(max_cycles=20_000_000)
        assert _digest(result) == self.EXPECTED[(backend, workload, config)]


class TestStoreKeySeparation:
    """hmc keeps pre-backend store keys; cxl gets its own key space."""

    def test_hmc_fingerprint_strips_backend_fields(self):
        fp = json.loads(config_fingerprint(ci_config()))
        assert "backend" not in fp
        assert "cxl" not in fp

    def test_cxl_fingerprint_keeps_backend_fields(self):
        fp = json.loads(config_fingerprint(ci_config().with_backend("cxl")))
        assert fp["backend"] == "cxl"
        assert "cxl" in fp

    def test_cell_keys_separate_per_backend(self):
        hmc_key = cell_key("VADD", "NDP(Dyn)", ci_config(), "ci",
                           20_000_000)
        cxl_key = cell_key("VADD", "NDP(Dyn)",
                           ci_config().with_backend("cxl"), "ci",
                           20_000_000)
        assert hmc_key != cxl_key

    def test_explicit_hmc_key_matches_default(self):
        # with_backend("hmc") must not fork the key space: it is the
        # same machine as the default, so it must hit the same cells.
        assert cell_key("VADD", "NDP(Dyn)", ci_config(), "ci",
                        20_000_000) == \
            cell_key("VADD", "NDP(Dyn)", ci_config().with_backend("hmc"),
                     "ci", 20_000_000)


class TestUnarmedChaosIdentity:
    """Arming a zero-rate fault plan must not perturb either backend."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_zero_rate_plan_is_identity(self, backend):
        # Arming adds recovery bookkeeping to result.extra, so compare
        # the simulation itself (timing, traffic, stalls), not the full
        # serialized digest -- same contract as the seed's
        # test_armed_zero_rate_matches_unarmed_cycles.
        base = ci_config().with_backend(backend)
        plan = get_scenario("vault-read-loss", rate=0.0, seed=0)
        armed_sys, armed = _run("VADD", "NDP(Dyn)", base, faults=plan)
        _, plain = _run("VADD", "NDP(Dyn)", base)
        assert armed.cycles == plain.cycles
        assert armed.traffic == plain.traffic
        assert armed.stalls.as_dict() == plain.stalls.as_dict()
        assert armed_sys.fault_injector.total_fired == 0

    def test_cxl_faults_actually_fire(self):
        # The system arms the expander's channels too, so a real plan
        # still lands somewhere.
        base = ci_config().with_backend("cxl")
        plan = get_scenario("vault-read-loss", rate=0.05, seed=1)
        system, _ = _run("VADD", "Baseline", base, faults=plan)
        assert system.fault_injector.total_fired > 0


class TestNarrowNSU:
    """With fewer NSU warp slots than command credits, commands queue at
    the NSU up to the depth the credit manager grants: the record's
    command-queue depth, on either substrate."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_queued_commands_audit_clean(self, backend):
        cfg = ci_config().with_backend(backend)
        base = dataclasses.replace(
            cfg, nsu=dataclasses.replace(cfg.nsu, num_warp_slots=8))
        system, result = _run("BFS", "NaiveNDP", base)
        assert audit_system(system, result) == []
