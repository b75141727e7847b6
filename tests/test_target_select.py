"""Unit tests for target-NSU selection and the Figure 5 study."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import LINE_SIZE, SystemConfig
from repro.core.target_select import (
    block_traffic,
    first_instr_target,
    optimal_target,
    select_target,
    target_policy_traffic_study,
)
from repro.gpu.coalescer import MemAccess
from repro.isa.codegen import GPUInstr
from repro.memory.address import AddressMap


@pytest.fixture(scope="module")
def amap():
    return AddressMap(SystemConfig(num_hmcs=8))


def lines_on(amap, hmc, n, start=0):
    """Find n line addresses owned by a given HMC."""
    out = []
    line = start
    while len(out) < n:
        if amap.hmc_of(line * LINE_SIZE) == hmc:
            out.append(line)
        line += 1
    return out


class TestPolicies:
    def test_first_policy_majority(self, amap):
        a_lines = lines_on(amap, 2, 3)
        b_lines = lines_on(amap, 5, 1)
        accs = tuple(MemAccess(l, 32, False) for l in a_lines + b_lines)
        assert first_instr_target(accs, amap) == 2

    def test_first_policy_empty_raises(self, amap):
        with pytest.raises(ValueError):
            first_instr_target((), amap)

    def test_optimal_counts_all_instructions(self, amap):
        # First instruction favours HMC 1, but the block overall touches
        # HMC 3 far more.
        first = tuple(MemAccess(l, 32, False) for l in lines_on(amap, 1, 2))
        second = tuple(MemAccess(l, 32, False) for l in lines_on(amap, 3, 6))
        assert first_instr_target(first, amap) == 1
        assert optimal_target((first, second), amap) == 3

    def test_block_traffic_counts_remote_lines(self, amap):
        local = tuple(MemAccess(l, 32, False) for l in lines_on(amap, 4, 3))
        remote = tuple(MemAccess(l, 32, False) for l in lines_on(amap, 6, 2))
        assert block_traffic((local, remote), 4, amap) == 2
        assert block_traffic((local,), 4, amap) == 0

    def test_even_split_targets_lower_id(self, amap):
        # A load and a store, each touching one line on HMC 6 and then
        # one on HMC 3: every policy counts a tie (CODA weights both
        # devices' store equally), and a tie goes to the lower id.
        hi, lo = lines_on(amap, 6, 2), lines_on(amap, 3, 2)
        load = (MemAccess(hi[0], 32, False), MemAccess(lo[0], 32, False))
        store = (MemAccess(hi[1], 32, False), MemAccess(lo[1], 32, False))
        block = SimpleNamespace(gpu_code=(
            GPUInstr("beg", -1), GPUInstr("rdf", 0), GPUInstr("wta", 1),
            GPUInstr("end", -1)))
        item = SimpleNamespace(mem_accesses=(load, store), block=block)
        for policy in ("first", "optimal", "coda"):
            assert select_target(policy, item, amap) == 3, policy

    def test_optimal_never_worse(self, amap):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lines = rng.integers(0, 1 << 18, size=12).tolist()
            groups = (tuple(MemAccess(l, 4, True) for l in lines[:4]),
                      tuple(MemAccess(l, 4, True) for l in lines[4:]))
            t_first = first_instr_target(groups[0], amap)
            t_opt = optimal_target(groups, amap)
            assert (block_traffic(groups, t_opt, amap)
                    <= block_traffic(groups, t_first, amap))


class TestFigure5Study:
    @pytest.fixture(scope="class")
    def study(self):
        return target_policy_traffic_study(
            num_hmcs=8, access_counts=(1, 2, 4, 8, 16, 32, 64),
            trials=4000, seed=1)

    def test_first_policy_analytic_expectation(self, study):
        # The first access is always local, the other n-1 are remote with
        # probability 7/8: E[remote fraction] = (n-1)/n * 7/8.
        n = study["n_accesses"].astype(float)
        assert np.allclose(study["first_policy"], (n - 1) / n * 7 / 8,
                           atol=0.02)

    def test_ratio_at_most_fifteen_percent(self, study):
        # Paper: "our policy ... increases the traffic by at most 15% only".
        assert study["ratio"].max() <= 1.16

    def test_gap_diminishes_with_more_accesses(self, study):
        # "the difference diminishes as the number of memory access
        # increases"
        peak = study["ratio"].max()
        assert study["ratio"][-1] < peak
        assert study["ratio"][-1] <= 1.08

    def test_single_access_identical(self, study):
        assert study["ratio"][0] == pytest.approx(1.0)

    def test_optimal_below_first(self, study):
        assert np.all(study["optimal"] <= study["first_policy"] + 1e-9)
