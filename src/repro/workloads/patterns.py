"""Shared address-pattern helpers for the workload models.

Every helper but :func:`indirect_divergent` broadcasts: given a block
context, whose ``warp`` and ``it`` are ``(R, 1)`` columns, it returns the
rows of all ``R`` (warp, iteration) pairs at once, or one row they all
share.  :func:`indirect_divergent` draws from ``ctx.rng``, so it takes
scalar contexts only."""

from __future__ import annotations

import numpy as np

from repro.config import WORD_SIZE
from repro.workloads.base import ArrayLayout, MemCtx


def streaming(arrays: ArrayLayout, name: str, ctx: MemCtx,
              offset: int = 0) -> np.ndarray:
    """Perfectly coalesced streaming: each warp instruction touches a fresh
    consecutive 128-byte line; no reuse.  Lane ``i`` reads element
    ``(warp * iters + it) * 32 + i + offset``."""
    first = ((ctx.warp * ctx.scale.iters + ctx.it) * ctx.lanes.size
             + offset) * WORD_SIZE + arrays.base(name)
    return ctx.lanes * WORD_SIZE + first


def hot_struct(arrays: ArrayLayout, name: str, ctx: MemCtx,
               words: int) -> np.ndarray:
    """A small constant structure read by every block instance (BPROP's
    68-byte structure): lane i reads word i % words -- the same lines every
    time, so the GPU caches always hit after the first touch."""
    idx = ctx.lanes % words
    return arrays.base(name) + idx * WORD_SIZE


def broadcast(arrays: ArrayLayout, name: str, ctx: MemCtx,
              n_elems: int) -> np.ndarray:
    """All lanes read the same (iteration-dependent) element -- e.g. one
    k-means centroid coordinate.  Coalesces to a single word."""
    e = (ctx.warp + ctx.it) % max(1, n_elems)
    return np.zeros_like(ctx.lanes) + (arrays.base(name) + e * WORD_SIZE)


def indirect_divergent(arrays: ArrayLayout, name: str,
                       ctx: MemCtx) -> np.ndarray:
    """Data-dependent gather (BFS neighbours, MiniFE x[col], STCL medians):
    every lane reads a random element, so a warp touches up to 32 distinct
    lines with one or two useful words each."""
    n = max(32, arrays.size(name) // WORD_SIZE)
    idx = ctx.rng.integers(0, n, size=ctx.lanes.size)
    return arrays.base(name) + idx.astype(np.int64) * WORD_SIZE


def stencil_3x3(arrays: ArrayLayout, name: str, ctx: MemCtx,
                neighbor: int, row_words: int) -> np.ndarray:
    """2D stencil neighbours: warp ``w`` iteration ``i`` owns a row chunk
    and reads its 3x3 neighbourhood.  Adjacent warps and iterations share
    neighbour lines, giving the L2 reuse the paper measures for STN (45%
    read hit rate)."""
    # neighbor in {-row_words-1 .. +row_words+1}: the 9-point offsets.
    chunk = (ctx.warp * ctx.scale.iters + ctx.it) * ctx.lanes.size
    idx = chunk + ctx.lanes + neighbor
    n_total = max(1, arrays.size(name) // WORD_SIZE)
    return arrays.base(name) + (idx % n_total) * WORD_SIZE


def blocked_reuse(arrays: ArrayLayout, name: str, ctx: MemCtx,
                  block_elems: int) -> np.ndarray:
    """Reads that cycle within a small working set shared by all warps
    (STCL's per-block points): hits after the set is warmed up."""
    base_elem = ((ctx.warp * 7 + ctx.it * 13) * ctx.lanes.size) % max(
        1, block_elems)
    idx = (base_elem + ctx.lanes) % max(32, block_elems)
    return arrays.base(name) + idx * WORD_SIZE
