"""Unit tests for the workload models: Table 1 counts and the address
properties that drive each workload's paper behaviour."""

import hashlib

import numpy as np
import pytest

from repro.config import LINE_SIZE, ci_config
from repro.gpu.trace import DynBlock, DynInstr
from repro.workloads import SCALES, Scale, base, get_workload, workload_names
from repro.workloads.bprop import BPROP
from repro.workloads.patterns import indirect_divergent
from repro.workloads.vadd import VADD
from tests import reference_builder

CFG = ci_config()

TABLE1 = {
    "BPROP": (29, 23),
    "BFS": (1, 1, 16),
    "BICG": (4, 4),
    "FWT": (16, 4),
    "KMN": (3,),
    "MiniFE": (3,),
    "SP": (3,),
    "STN": (15,),
    "STCL": (3, 9, 1, 1),
    "VADD": (4,),
}


@pytest.fixture(scope="module")
def built():
    return {n: get_workload(n).build(CFG, "ci") for n in workload_names()}


class TestTable1Counts:
    @pytest.mark.parametrize("name", list(TABLE1))
    def test_nsu_body_lengths(self, built, name):
        assert tuple(built[name].analyzed.nsu_body_lengths) == TABLE1[name]


class TestTraceStructure:
    @pytest.mark.parametrize("name", list(TABLE1))
    def test_every_warp_has_blocks(self, built, name):
        for trace in built[name].traces:
            assert any(isinstance(i, DynBlock) for i in trace)

    @pytest.mark.parametrize("name", list(TABLE1))
    def test_block_access_groups_match_mem_count(self, built, name):
        for trace in built[name].traces[:8]:
            for item in trace:
                if isinstance(item, DynBlock):
                    n_mem = item.block.num_loads + item.block.num_stores
                    assert len(item.mem_accesses) == n_mem
                    assert all(len(g) >= 1 for g in item.mem_accesses)

    def test_traces_deterministic(self):
        a = get_workload("BFS").build(CFG, "ci")
        b = get_workload("BFS").build(CFG, "ci")
        for ta, tb in zip(a.traces[:4], b.traces[:4]):
            for ia, ib in zip(ta, tb):
                if isinstance(ia, DynBlock):
                    assert ia.mem_accesses == ib.mem_accesses

    def test_warps_have_distinct_streams(self, built):
        inst = built["VADD"]
        first = [i for i in inst.traces[0] if isinstance(i, DynBlock)][0]
        second = [i for i in inst.traces[1] if isinstance(i, DynBlock)][0]
        assert first.mem_accesses != second.mem_accesses


class TestAddressCharacter:
    def _block_accesses(self, inst, block_id):
        out = []
        for trace in inst.traces:
            for item in trace:
                if isinstance(item, DynBlock) and \
                        item.block.block_id == block_id:
                    out.append(item.mem_accesses)
        return out

    def test_vadd_fully_coalesced(self, built):
        for groups in self._block_accesses(built["VADD"], 0)[:16]:
            for g in groups:
                assert len(g) == 1
                assert g[0].words == 32

    def test_bfs_gathers_divergent(self, built):
        # The single-indirect-load blocks touch many lines with few
        # useful words each.
        for groups in self._block_accesses(built["BFS"], 0)[:16]:
            (g,) = groups
            assert len(g) > 4
            avg_words = sum(a.words for a in g) / len(g)
            assert avg_words < 4

    def test_kmn_streams_read_and_write(self, built):
        # Rodinia kmeans uses a transposed feature layout for coalescing;
        # both the feature read and the partial-sum write stream fresh
        # lines with no reuse (the source of its bandwidth dominance).
        lines = []
        for groups in self._block_accesses(built["KMN"], 0)[:32]:
            for g in groups:
                assert len(g) == 1
                assert g[0].words == 32
                lines.append(g[0].line_addr)
        assert len(set(lines)) == len(lines)   # never re-touched

    def test_bprop_const_is_single_hot_line(self, built):
        lines = set()
        for groups in self._block_accesses(built["BPROP"], 0)[:16]:
            for g in groups[3:12]:      # the 9 const-struct loads
                for a in g:
                    lines.add(a.line_addr)
        assert len(lines) <= 2          # 68 bytes -> at most 2 lines

    def test_bprop_first_load_streams(self, built):
        # The first memory instruction must be the streaming weight load,
        # so the first-access target policy spreads blocks over stacks.
        targets = set()
        from repro.core.target_select import first_instr_target
        from repro.memory.address import AddressMap

        amap = AddressMap(CFG)
        for groups in self._block_accesses(built["BPROP"], 0):
            targets.add(first_instr_target(groups[0], amap))
        assert len(targets) == CFG.num_hmcs

    def test_stn_neighbors_overlap_across_warps(self, built):
        # Adjacent warps must share neighbour lines (the L2-reuse source).
        inst = built["STN"]
        per_warp_lines = []
        for trace in inst.traces[:6]:
            lines = set()
            for item in trace:
                if isinstance(item, DynBlock):
                    for g in item.mem_accesses[:7]:
                        lines.update(a.line_addr for a in g)
            per_warp_lines.append(lines)
        overlaps = sum(bool(per_warp_lines[i] & per_warp_lines[i + 1])
                       for i in range(len(per_warp_lines) - 1))
        assert overlaps >= 1

    def test_stcl_points_working_set_bounded(self, built):
        inst = built["STCL"]
        lines = set()
        for trace in inst.traces:
            for item in trace:
                if isinstance(item, DynBlock) and item.block.block_id == 0:
                    for g in item.mem_accesses:
                        lines.update(a.line_addr for a in g)
        # The resident point block fits in the caches by construction.
        assert len(lines) * LINE_SIZE < 2 * 1024 * 1024

    def test_bprop_prologue_warms_cache(self, built):
        trace = built["BPROP"].traces[0]
        head = trace[0]
        assert isinstance(head, DynInstr)
        assert head.instr.array == "net_unit"


class TestDivergenceMasks:
    def test_bfs_frontier_thins_over_iterations(self):
        inst = get_workload("BFS").build(CFG, Scale("t", 16, 12))
        actives = sorted({i.active_threads for t in inst.traces
                          for i in t if isinstance(i, DynBlock)})
        assert actives[0] >= 8          # never empty
        assert actives[0] < 32          # real divergence appears
        assert actives[-1] == 32        # first levels run full warps

    def test_masked_blocks_move_fewer_words(self):
        inst = get_workload("BFS").build(CFG, Scale("t", 8, 12))
        full = partial = None
        for t in inst.traces:
            for item in t:
                if not isinstance(item, DynBlock):
                    continue
                if item.block.block_id == 2:   # the 16-instr update block
                    words = sum(a.words for g in item.mem_accesses
                                for a in g)
                    if item.active_threads == 32:
                        full = words
                    elif item.active_threads <= 16:
                        partial = words
        assert full is not None and partial is not None
        assert partial < full

    def test_default_workloads_run_full_warps(self):
        inst = get_workload("VADD").build(CFG, "ci")
        for t in inst.traces[:4]:
            for item in t:
                if isinstance(item, DynBlock):
                    assert item.active_threads == 32


class ShortAddrs(VADD):
    """VADD whose address rows are half a warp wide."""

    name = "SHORT"

    def mem_addrs(self, instr, arrays, ctx):
        return super().mem_addrs(instr, arrays, ctx)[..., :16]


class ShortMask(VADD):
    """VADD whose active masks are half a warp wide."""

    name = "SHORTMASK"

    def warp_active_mask(self, ctx):
        return np.ones(16, dtype=bool)


class TestWarpWidthRows:
    @pytest.mark.parametrize("model, source",
                             [(ShortAddrs, "mem_addrs"),
                              (ShortMask, "warp_active_mask")])
    def test_wrong_width_row_is_rejected(self, model, source):
        with pytest.raises(ValueError) as err:
            model().build(CFG, Scale("t", 2, 1))
        msg = str(err.value)
        assert msg.startswith(f"{model.name}: {source} returned 16 lanes")
        assert "'ld R4 <- [A@R0]'" in msg
        assert "warp width is 32" in msg


class DarkWarp(VADD):
    """VADD whose warp 1 has no active lane in iteration 1."""

    name = "DARK"

    def warp_active_mask(self, ctx):
        if ctx.warp == 1 and ctx.it == 1:
            return np.zeros(ctx.lanes.size, dtype=bool)
        return None


class DrawingVADD(VADD):
    """VADD that draws random addresses for its regular B load."""

    name = "DRAW"

    def mem_addrs(self, instr, arrays, ctx):
        if instr.array == "B":
            return indirect_divergent(arrays, "B", ctx)
        return super().mem_addrs(instr, arrays, ctx)


class TestWarpGroups:
    """``build`` coalesces the rows of ``base.WARP_GROUP`` warps in one
    call and slices the result back per warp."""

    G = base.WARP_GROUP

    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_partial_last_group_matches_one_warp_groups(self, name,
                                                        monkeypatch):
        scale = Scale("t", 2 * self.G + 3, 2)
        grouped = get_workload(name).build(CFG, scale)
        assert grouped.num_warps % self.G != 0
        monkeypatch.setattr(base, "WARP_GROUP", 1)
        single = get_workload(name).build(CFG, scale)
        assert trace_digest(grouped) == trace_digest(single)

    def test_empty_row_names_model_instruction_and_warp(self):
        with pytest.raises(AssertionError) as err:
            DarkWarp().build(CFG, Scale("t", 4, 2))
        msg = str(err.value)
        assert msg.startswith("DARK: memory instruction 'ld R4 <- [A@R0]")
        assert "of warp 1 produced no accesses" in msg

    def test_regular_instruction_may_not_draw(self):
        with pytest.raises(ValueError) as err:
            DrawingVADD().build(CFG, Scale("t", 4, 2))
        msg = str(err.value)
        assert msg.startswith("DRAW: mem_addrs drew from ctx.rng")
        assert "'ld R5 <- [B@R1]'" in msg
        assert "only indirect loads may draw" in msg

    @pytest.mark.parametrize("name, per_warp", [("VADD", 0), ("BFS", 1)])
    def test_generator_built_at_first_draw(self, name, per_warp,
                                           monkeypatch):
        seeds = []
        real = np.random.default_rng

        def counting(seed=None):
            seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        inst = get_workload(name).build(CFG, Scale("t", 2 * self.G + 3, 2))
        assert len(seeds) == per_warp * inst.num_warps
        assert len(set(seeds)) == len(seeds)


class Ragged(BPROP):
    """BPROP with a different active mask per (warp, iteration), so its
    prologue rows take iteration 0's mask."""

    name = "RAGGED"

    def warp_active_mask(self, ctx):
        return ctx.lanes < 8 + (3 * ctx.warp + 5 * ctx.it) % 24


class TestReferenceBuilder:
    """``build`` gives item-by-item the traces of the per-row builder in
    ``tests/reference_builder.py``: one scalar context per warp, one
    ``mem_addrs`` call and one mask per row, in program order."""

    # "partial" ends in a partial group.  At its 3 iterations BFS and
    # BPROP (iter_factor 0.5) run one, so "deep" gives them three, and
    # BFS's frontier masks thin.
    SCALES = {"ci": "ci", "partial": Scale("t", 2 * base.WARP_GROUP + 3, 3),
              "deep": Scale("t", 2 * base.WARP_GROUP + 3, 6)}

    @pytest.mark.parametrize("scale", sorted(SCALES))
    @pytest.mark.parametrize("name", sorted(TABLE1) + [Ragged.name])
    def test_traces_equal_the_per_row_builder(self, name, scale):
        model = Ragged() if name == Ragged.name else get_workload(name)
        inst = model.build(CFG, self.SCALES[scale])
        oracle = reference_builder.build(model, CFG, self.SCALES[scale])
        assert len(inst.traces) == len(oracle)
        for trace, expected in zip(inst.traces, oracle):
            assert len(trace) == len(expected)
            for item, want in zip(trace, expected):
                assert type(item) is type(want)
                if isinstance(item, DynBlock):
                    assert item.block.block_id == want.block.block_id
                    assert item.active_threads == want.active_threads
                    groups, want_groups = (item.mem_accesses,
                                           want.mem_accesses)
                else:
                    assert item.instr == want.instr
                    groups, want_groups = (item.accesses,), (want.accesses,)
                assert groups == want_groups


class TestScaling:
    def test_scale_presets_exist(self):
        assert set(SCALES) == {"ci", "bench", "paper"}

    def test_custom_scale(self):
        inst = get_workload("VADD").build(CFG, Scale("custom", 8, 2))
        assert inst.num_warps == 8

    def test_iter_factor_respected(self):
        bprop = get_workload("BPROP").build(CFG, Scale("s", 8, 8))
        assert bprop.scale.iters == 4   # iter_factor = 0.5


def trace_digest(inst) -> str:
    """sha256 over every warp's trace items: kind, block id (or position
    in the warp's trace), active threads, and each coalesced access's
    ``(line_addr, words, irregular)``."""
    h = hashlib.sha256()
    for w, trace in enumerate(inst.traces):
        h.update(f"warp {w}\n".encode())
        for pos, item in enumerate(trace):
            if isinstance(item, DynBlock):
                head = f"block {item.block.block_id} {item.active_threads}"
                groups = item.mem_accesses
            else:
                head = f"instr {pos}"
                groups = (item.accesses,)
            body = " | ".join(
                " ".join(f"{a.line_addr},{a.words},{int(a.irregular)}"
                         for a in g)
                for g in groups)
            h.update(f"{head}: {body}\n".encode())
    return h.hexdigest()


#: ci-scale trace digests under ``ci_config()``.  Any change to address
#: generation, active masks or coalescing moves one of these.
TRACE_PINS = {
    "BFS": "c9baabe0e9748f5504bda3dd7efb9b793e49564fc9352a3c072dbb8849939228",
    "BICG": "7837b854c1f1f24800957818ada996d292288dfa933302987ef746104dfcafc5",
    "BPROP": "c68b19c43359887bcfe483ea6f967c45dcb82c2f210397ccf261b06fb42016e2",
    "FWT": "36ce0475c451d38678b558421f0b57e5b7e77ed0193acf168c8f5dfae325d75f",
    "KMN": "3758bba9c983a5157202f37ed1030f3b4b33bab3ba123ba3c2f57f9f04440970",
    "MiniFE": "7b68d93ae4ae002902ad9279dc38633892bccde0b215bec11dc6c8701fe65f27",
    "SP": "ced847b53694a909d0a230171c59e13e399085b6eaf75ff57f875992791a2bc6",
    "STCL": "8ed376e611ab47a42cd11c4d27d7f9990bb1a9b64a40ba1066098197fddddefc",
    "STN": "ea87ea14c75dd4565d9bd5e46279f5b55280bd0c62fd9f3f70d3656b3801ef75",
    "VADD": "bae1d097c4310784b57b5cba54a50cd4f5a4a00c4ee4f752993e911a7b3c4b17",
}


class TestTracePins:
    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_trace_digest_pinned(self, built, name):
        assert trace_digest(built[name]) == TRACE_PINS[name]
