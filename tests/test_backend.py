"""Memory-backend contract tests (PR 8 tentpole).

The ``repro.memory.backend`` registry hides the substrate behind a
small hook set; these tests pin the three guarantees the refactor
makes:

* the default ``hmc`` backend is **bit-identical** to the pre-backend
  simulator (same digests as ``test_baseline_recovery.EXPECTED``, same
  store keys as fingerprints minted before the field existed);
* the ``cxl`` backend is a genuinely different machine (its own pinned
  digests, zero intra-stack NoC traffic, separated store keys);
* every backend honours the shared protocol contract (registry
  completeness, resolve semantics, unarmed-chaos identity, CODA
  placement determinism).
"""

import dataclasses
import hashlib
import json

import pytest

from repro.config import BACKEND_NAMES, ci_config
from repro.faults import get_scenario
from repro.memory.backend import (
    BACKENDS,
    CXLBackend,
    HMCBackend,
    MemoryBackend,
    backend_names,
    resolve_backend,
)
from repro.sim.runner import build_system
from repro.sim.serialize import result_to_dict
from repro.sim.store import cell_key, config_fingerprint
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
    def test_registry_matches_config_names(self):
        assert tuple(BACKENDS) == BACKEND_NAMES
        assert backend_names() == BACKEND_NAMES

    def test_entries_are_protocol_instances(self):
        for name, backend in BACKENDS.items():
            assert isinstance(backend, MemoryBackend)
            assert backend.name == name

    def test_resolve_by_name_and_instance(self):
        hmc = resolve_backend("hmc")
        assert isinstance(hmc, HMCBackend)
        assert resolve_backend(None) is hmc          # default
        assert resolve_backend(hmc) is hmc           # pass-through
        assert isinstance(resolve_backend("cxl"), CXLBackend)

    def test_resolve_unknown_lists_choices(self):
        with pytest.raises(KeyError, match="hmc"):
            resolve_backend("ddr5")

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            dataclasses.replace(ci_config(), backend="ddr5")

    def test_hmc_hook_defaults_preserve_legacy_wiring(self):
        # The exact values the pre-backend simulator hard-coded; any
        # drift here breaks the bit-identity pins below.
        cfg = ci_config()
        hmc = resolve_backend("hmc")
        assert hmc.internal_noc is True
        assert hmc.local_response_latency(cfg) == 4
        assert hmc.ndp_cmd_entries(cfg) == cfg.nsu.cmd_buffer_entries
        assert hmc.gpu_link_kwargs(cfg) == {}
        assert hmc.mem_link_bpc(cfg) is None


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
        # fault_controllers must expose the expander's channels so a
        # real plan still lands somewhere.
        base = ci_config().with_backend("cxl")
        plan = get_scenario("vault-read-loss", rate=0.05, seed=1)
        system, _ = _run("VADD", "Baseline", base, faults=plan)
        assert system.fault_injector.total_fired > 0
