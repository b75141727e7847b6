"""Unit tests for the shared address-pattern helpers
(repro.workloads.patterns)."""

import numpy as np
import pytest

from repro.config import WORD_SIZE
from repro.gpu.coalescer import coalesce
from repro.workloads.base import ArrayLayout, MemCtx, NoStreamError, Scale
from repro.workloads.patterns import (
    blocked_reuse,
    broadcast,
    hot_struct,
    indirect_divergent,
    stencil_3x3,
    streaming,
)


def mk_ctx(warp=0, it=0, seed=0):
    return MemCtx(warp=warp, it=it, lanes=np.arange(32, dtype=np.int64),
                  scale=Scale("t", 8, 4), seed=seed)


def mk_block(warps, its):
    """A block context over the (warp, it) pairs ``zip(warps, its)``."""
    return MemCtx(warp=np.array(warps, dtype=np.int64)[:, None],
                  it=np.array(its, dtype=np.int64)[:, None],
                  lanes=np.arange(32, dtype=np.int64),
                  scale=Scale("t", 8, 4), seed=None)


@pytest.fixture
def arrays():
    a = ArrayLayout()
    a.add("A", 1 << 20)
    a.add("B", 68)          # BPROP-style constant struct
    a.add("C", 512 * WORD_SIZE)
    return a


class TestStreaming:
    def test_consecutive_and_coalesced(self, arrays):
        addrs = streaming(arrays, "A", mk_ctx())
        assert np.array_equal(np.diff(addrs),
                              np.full(31, WORD_SIZE))
        (acc,) = coalesce(addrs)
        assert acc.words == 32 and not acc.irregular

    def test_iterations_advance(self, arrays):
        a0 = streaming(arrays, "A", mk_ctx(it=0))
        a1 = streaming(arrays, "A", mk_ctx(it=1))
        assert a1[0] == a0[0] + 32 * WORD_SIZE

    def test_warps_disjoint(self, arrays):
        w0 = set(streaming(arrays, "A", mk_ctx(warp=0)).tolist())
        w1 = set(streaming(arrays, "A", mk_ctx(warp=1)).tolist())
        assert not w0 & w1


class TestHotStruct:
    def test_same_every_iteration(self, arrays):
        a0 = hot_struct(arrays, "B", mk_ctx(it=0), 17)
        a1 = hot_struct(arrays, "B", mk_ctx(warp=3, it=2), 17)
        assert np.array_equal(a0, a1)

    def test_fits_in_struct(self, arrays):
        addrs = hot_struct(arrays, "B", mk_ctx(), 17)
        assert addrs.max() < arrays.base("B") + 68


class TestBroadcast:
    def test_single_word(self, arrays):
        addrs = broadcast(arrays, "C", mk_ctx(), 512)
        assert np.unique(addrs).size == 1
        (acc,) = coalesce(addrs)
        assert acc.words == 1


class TestIndirect:
    def test_divergent_many_lines(self, arrays):
        addrs = indirect_divergent(arrays, "A", mk_ctx())
        accs = coalesce(addrs)
        assert len(accs) > 8
        assert all(a.words <= 4 for a in accs)

    def test_rng_driven(self, arrays):
        a = indirect_divergent(arrays, "A", mk_ctx(seed=1))
        b = indirect_divergent(arrays, "A", mk_ctx(seed=2))
        assert not np.array_equal(a, b)


class TestStencil:
    def test_neighbor_offset_applied(self, arrays):
        # warp 1 so the -1 neighbour doesn't wrap at the array start.
        center = stencil_3x3(arrays, "A", mk_ctx(warp=1), 0, 64)
        left = stencil_3x3(arrays, "A", mk_ctx(warp=1), -1, 64)
        assert np.array_equal(center - left, np.full(32, WORD_SIZE))

    def test_wraps_at_array_end(self, arrays):
        ctx = mk_ctx(warp=7, it=3)
        addrs = stencil_3x3(arrays, "A", ctx, 64 + 1, 64)
        assert addrs.max() < arrays.base("A") + arrays.size("A")


class TestBlockedReuse:
    def test_stays_in_block(self, arrays):
        for warp in range(6):
            addrs = blocked_reuse(arrays, "C", mk_ctx(warp=warp), 512)
            assert addrs.max() < arrays.base("C") + 512 * WORD_SIZE


#: Every broadcasting helper, as ``f(arrays, ctx)``.
BLOCK_HELPERS = {
    "streaming": lambda a, ctx: streaming(a, "A", ctx, offset=5),
    "hot_struct": lambda a, ctx: hot_struct(a, "B", ctx, 17),
    "broadcast": lambda a, ctx: broadcast(a, "C", ctx, 5),
    "stencil_3x3": lambda a, ctx: stencil_3x3(a, "A", ctx, -65, 64),
    "blocked_reuse": lambda a, ctx: blocked_reuse(a, "C", ctx, 100),
}


class TestBlockContext:
    """A helper on a block context gives the rows of its scalar
    evaluations, stacked (a shared ``(width,)`` row stands for all)."""

    WARPS = [w for w in range(8) for _ in range(4)]
    ITS = [it for _ in range(8) for it in range(4)]

    @pytest.mark.parametrize("helper", sorted(BLOCK_HELPERS))
    def test_block_equals_stacked_scalars(self, arrays, helper):
        f = BLOCK_HELPERS[helper]
        block = f(arrays, mk_block(self.WARPS, self.ITS))
        stacked = np.stack([f(arrays, mk_ctx(w, it))
                            for w, it in zip(self.WARPS, self.ITS)])
        assert block.dtype == stacked.dtype == np.int64
        assert np.array_equal(np.broadcast_to(block, stacked.shape), stacked)

    def test_block_has_no_stream(self, arrays):
        ctx = mk_block([0, 1], [0, 0])
        with pytest.raises(NoStreamError, match="no random stream"):
            ctx.rng
        with pytest.raises(NoStreamError):
            indirect_divergent(arrays, "A", ctx)


class TestArrayLayout:
    def test_disjoint_regions(self):
        a = ArrayLayout()
        a.add("x", 100)
        a.add("y", 100)
        assert abs(a.base("x") - a.base("y")) >= ArrayLayout.REGION

    def test_duplicate_rejected(self):
        a = ArrayLayout()
        a.add("x", 8)
        with pytest.raises(ValueError):
            a.add("x", 8)
