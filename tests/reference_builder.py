"""The reference trace builder: one warp, one row at a time.

:func:`build` makes a workload's warp traces the slow, obvious way.
Each warp gets one scalar :class:`~repro.workloads.base.MemCtx` for its
prologue and every iteration.  Every memory instruction of every warp
and iteration is its own ``mem_addrs`` call, masked by its own
``warp_active_mask`` call and coalesced on its own, in program order.
``WorkloadModel.build`` instead asks for a regular instruction's rows of
a whole warp group at once, writes one mask per (warp, iteration) and
coalesces a group in one call.  The differential test in
``tests/test_workloads.py`` requires the two to give item-by-item equal
traces.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.gpu.coalescer import coalesce
from repro.gpu.trace import DynBlock, DynInstr
from repro.isa.analyzer import analyze_kernel
from repro.workloads.base import SCALES, MemCtx, Scale


def build(model, cfg, scale):
    """``model``'s warp traces under ``cfg`` at ``scale``."""
    if isinstance(scale, str):
        scale = SCALES[scale]
    scale = Scale(scale.name, max(1, scale.num_warps),
                  max(1, int(scale.iters * model.iter_factor)))
    analyzed = analyze_kernel(model.kernel(),
                              cfg.ndp.max_mem_instrs_per_block)
    arrays = model.layout(scale)
    prologue = [("instr", instr, (instr,) if instr.is_mem else ())
                for instr in model.prologue()]
    body = model._segments(analyzed)
    width = cfg.gpu.warp_width
    lanes = np.arange(width, dtype=np.int64)
    name_key = zlib.crc32(model.name.encode()) & 0xFFFF
    traces = []
    for w in range(scale.num_warps):
        ctx = MemCtx(warp=w, it=0, lanes=lanes, scale=scale,
                     seed=(cfg.seed, name_key, w))
        trace = _unroll(model, prologue, arrays, ctx, width)
        for it in range(scale.iters):
            ctx.it = it
            mask = model.warp_active_mask(ctx)
            active = width if mask is None else int(mask.sum())
            trace += _unroll(model, body, arrays, ctx, active)
        traces.append(trace)
    return traces


def _unroll(model, segments, arrays, ctx, active):
    """The trace items of ``segments`` for the warp and iteration of
    ``ctx``, one ``mem_addrs`` call and one mask per memory row."""
    items = []
    for kind, payload, instrs in segments:
        groups = tuple(coalesce(model.mem_addrs(instr, arrays, ctx),
                                model.warp_active_mask(ctx))
                       for instr in instrs)
        if kind == "instr":
            items.append(DynInstr(payload, groups[0] if groups else ()))
        else:
            items.append(DynBlock(payload, groups, active))
    return items
