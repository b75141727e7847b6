"""Workload-model machinery: kernels -> analyzed blocks -> warp traces.

A :class:`WorkloadModel` authors one kernel in the IR and implements
:meth:`WorkloadModel.mem_addrs`, which supplies the per-thread byte
addresses of every dynamic memory instruction.  The base class runs the
static analyzer once, lays the kernel out into *segments* (plain
instructions vs. offload blocks), and unrolls ``iters`` loop iterations per
warp into a :class:`~repro.gpu.trace.WarpTrace`, coalescing the memory
instructions of :data:`WARP_GROUP` warps in one pass (addresses are
generated and coalesced on the GPU in both execution modes, Section 4.1).
A regular memory instruction gets its rows for a whole warp group from one
``mem_addrs`` call; only ``indirect`` loads, the ones that draw random
numbers, are asked one row at a time.

Input problems are scaled down from Table 1 (the simulator is cycle-level
Python, not a farm of GPGPU-sim machines); every workload keeps the *shape*
that drives its paper behaviour -- bytes per block instance, divergence,
reuse distance -- while the ``Scale`` presets set the total footprint.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.config import SystemConfig
from repro.gpu.coalescer import coalesce
from repro.gpu.trace import DynBlock, DynInstr, WarpTrace
from repro.isa.analyzer import AnalyzedKernel, analyze_kernel
from repro.isa.instructions import Instr
from repro.isa.kernel import Kernel


@dataclass(frozen=True)
class Scale:
    """Problem-size preset."""

    name: str
    num_warps: int
    iters: int


#: Named presets.  "ci" keeps the whole test suite fast; "bench" is the
#: default for figure regeneration; "paper" doubles the work for final runs.
SCALES = {
    "ci": Scale("ci", num_warps=48, iters=3),
    "bench": Scale("bench", num_warps=512, iters=6),
    "paper": Scale("paper", num_warps=1024, iters=8),
}

#: Warps whose address rows share one ``coalesce`` call.  Larger groups
#: make fewer calls but keep more rows and sort intermediates alive at
#: once; docs/performance.md ("Why 16 warps") has the measured trade-off.
WARP_GROUP = 16


class ArrayLayout:
    """Assigns each named array a disjoint base address and extent."""

    REGION = 1 << 34   # 16 GiB spacing: arrays never collide

    def __init__(self) -> None:
        self._bases: dict[str, int] = {}
        self._sizes: dict[str, int] = {}

    def add(self, name: str, size_bytes: int) -> None:
        if name in self._bases:
            raise ValueError(f"duplicate array {name!r}")
        self._bases[name] = len(self._bases) * self.REGION
        self._sizes[name] = size_bytes

    def base(self, name: str) -> int:
        return self._bases[name]

    def size(self, name: str) -> int:
        return self._sizes[name]


class NoStreamError(RuntimeError):
    """A model read ``rng`` from a block context, which has no stream."""


@dataclass
class MemCtx:
    """Context handed to :meth:`WorkloadModel.mem_addrs`.

    A *scalar* context stands for one warp: ``warp`` and ``it`` are ints.
    One serves a warp's prologue and every iteration (``it`` advances in
    place), so its random stream runs on across them.  The stream is
    built from ``seed`` at its first draw: seven of the ten models never
    draw, and a generator takes tens of microseconds to build.

    A *block* context stands for many rows of one regular instruction:
    ``warp`` and ``it`` are ``(R, 1)`` int64 columns, so arithmetic on
    them and on ``lanes`` gives ``(R, width)`` rows.  Its ``seed`` is
    ``None``, and reading its ``rng`` raises :class:`NoStreamError`:
    only ``indirect`` loads may draw, and they get scalar contexts."""

    warp: int | np.ndarray
    it: int | np.ndarray
    lanes: np.ndarray          # 0..31
    scale: Scale
    seed: int | tuple[int, ...] | None
    _rng: np.random.Generator | None = field(default=None, init=False,
                                             repr=False)

    @property
    def rng(self) -> np.random.Generator:
        """The warp's random stream, ``np.random.default_rng(seed)``."""
        if self._rng is None:
            if self.seed is None:
                raise NoStreamError(
                    "a block context has no random stream; only indirect "
                    "loads may draw from ctx.rng")
            self._rng = np.random.default_rng(self.seed)
        return self._rng


@dataclass
class WorkloadInstance:
    """A built workload: analyzed kernel + all warp traces."""

    name: str
    analyzed: AnalyzedKernel
    traces: list[WarpTrace]
    scale: Scale

    @property
    def blocks(self):
        return self.analyzed.blocks

    @property
    def num_warps(self) -> int:
        return len(self.traces)


class WorkloadModel:
    """Base class for the ten Table 1 workload models."""

    #: Table 1 abbreviation, e.g. "VADD".
    name: str = ""
    #: Table 1 expected per-block NSU instruction counts, for verification.
    table1_nsu_counts: tuple[int, ...] = ()
    #: Scale multiplier: workloads with big blocks need fewer iterations.
    iter_factor: float = 1.0

    def kernel(self) -> Kernel:
        raise NotImplementedError

    def layout(self, scale: Scale) -> ArrayLayout:
        raise NotImplementedError

    def mem_addrs(self, instr: Instr, arrays: ArrayLayout,
                  ctx: MemCtx) -> np.ndarray:
        """Per-thread byte addresses of ``instr``.

        For an ``indirect`` load ``ctx`` is a scalar context and the
        result is one ``(width,)`` row.  For any other instruction it is
        a block context of ``R`` rows, and the result is ``(R, width)``,
        or one ``(width,)`` row that every row shares."""
        raise NotImplementedError

    def warp_active_mask(self, ctx: MemCtx) -> np.ndarray | None:
        """Optional per-(warp, iteration) active-thread mask.

        Divergent control flow (a shrinking BFS frontier, boundary
        threads in a stencil) leaves some lanes inactive: fewer coalesced
        words move, and the offload command/ACK register payloads scale
        with the active count (Figure 4).  ``None`` means all lanes.
        ``ctx`` is a scalar context; the iteration's mask covers each of
        its memory instructions, and iteration 0's the prologue's."""
        return None

    def prologue(self) -> list[Instr]:
        """Instructions executed once per warp before the loop body --
        kernel setup code outside any offload block (e.g. BPROP's read of
        its constant structure, which is what puts it in the GPU caches
        so later RDF probes hit)."""
        return []

    # -- construction -------------------------------------------------------------

    def build(self, cfg: SystemConfig, scale: Scale | str) -> WorkloadInstance:
        if isinstance(scale, str):
            scale = SCALES[scale]
        scale = Scale(scale.name, max(1, scale.num_warps),
                      max(1, int(scale.iters * self.iter_factor)))
        analyzed = analyze_kernel(self.kernel(),
                                  cfg.ndp.max_mem_instrs_per_block)
        if (self.table1_nsu_counts
                and tuple(analyzed.nsu_body_lengths) != self.table1_nsu_counts):
            raise AssertionError(
                f"{self.name}: NSU block sizes {analyzed.nsu_body_lengths} "
                f"do not match Table 1 {self.table1_nsu_counts}")
        arrays = self.layout(scale)
        prologue = [_instr_segment(instr) for instr in self.prologue()]
        body = self._segments(analyzed)
        prologue_mem, body_mem = _mem_instrs(prologue), _mem_instrs(body)
        iters = scale.iters
        width = cfg.gpu.warp_width
        lanes = np.arange(width, dtype=np.int64)
        # crc32, not hash(): hash() of a str varies with PYTHONHASHSEED,
        # which made trace digests differ across processes (DET004).
        name_key = zlib.crc32(self.name.encode()) & 0xFFFF
        # Each warp owns one row per memory instruction, in program order,
        # in a group's shared buffers: its prologue rows, then one run of
        # body rows per iteration.  One coalesce call serves the group.
        n_pro, n_body = len(prologue_mem), len(body_mem)
        row_instrs = prologue_mem + body_mem * iters
        n_rows = len(row_instrs)
        group = min(WARP_GROUP, scale.num_warps)
        addr_rows = np.empty((group * n_rows, width), dtype=np.int64)
        mask_rows = np.empty((group * n_rows, width), dtype=bool)
        # A regular instruction fills its rows of the whole group from one
        # block call.  An indirect load draws, so it is asked row by row,
        # in each warp's program order: the order its draws must keep.
        phases = [(1, _block_columns(group, 1, n_rows, 0, 0), prologue_mem),
                  (iters, _block_columns(group, iters, n_rows, n_pro, n_body),
                   body_mem)]
        pro_indirect = _indirect_rows(prologue_mem)
        body_indirect = _indirect_rows(body_mem)
        traces = []
        for first in range(0, scale.num_warps, group):
            n_warps = min(group, scale.num_warps - first)
            for per_warp, (warp, it, rows), instrs in phases:
                n = n_warps * per_warp
                ctx = MemCtx(first + warp[:n], it[:n], lanes, scale, None)
                for k, instr in enumerate(instrs):
                    if not instr.indirect:
                        addr_rows[rows[:n] + k] = self._addrs(
                            instr, arrays, ctx, n, width)
            actives = []
            for j in range(n_warps):
                w = first + j
                start = j * n_rows
                ctx = MemCtx(w, 0, lanes, scale, (cfg.seed, name_key, w))
                for k, instr in pro_indirect:
                    addr_rows[start + k] = self._addrs(
                        instr, arrays, ctx, 1, width)
                warp_actives = []
                row = start     # first row the next mask covers
                for i in range(iters):
                    ctx.it = i
                    mask = self.warp_active_mask(ctx)
                    body_row = start + n_pro + i * n_body
                    stop = body_row + n_body
                    if mask is None:
                        mask_rows[row:stop] = True
                        warp_actives.append(width)
                    else:
                        if np.shape(mask) != (width,):
                            self._wrong_width(row_instrs[row - start],
                                              "warp_active_mask", mask,
                                              width)
                        mask_rows[row:stop] = mask
                        warp_actives.append(int(mask.sum()))
                    for k, instr in body_indirect:
                        addr_rows[body_row + k] = self._addrs(
                            instr, arrays, ctx, 1, width)
                    row = stop
                actives.append(warp_actives)
            groups = coalesce(addr_rows[:n_warps * n_rows],
                              mask_rows[:n_warps * n_rows])
            if not all(groups):
                empty = groups.index(())
                w, r = first + empty // n_rows, empty % n_rows
                raise AssertionError(
                    f"{self.name}: memory instruction '{_text(row_instrs[r])}' "
                    f"of warp {w} produced no accesses (empty active mask?)")
            for j, warp_actives in enumerate(actives):
                traces.append(_assemble_trace(
                    prologue, body, groups, j * n_rows, warp_actives, width))
        return WorkloadInstance(self.name, analyzed, traces, scale)

    def _segments(self, analyzed: AnalyzedKernel):
        """Split the kernel into segments in program order:
        ("instr", Instr, mem) or ("block", OffloadBlock, mem), where
        ``mem`` holds the segment's memory instructions."""
        kernel = analyzed.kernel
        covered: dict[tuple[int, int], object] = {}
        for blk in analyzed.blocks:
            c = blk.candidate
            covered[(c.block_index, c.start)] = blk
        segs = []
        for b_idx, bb in enumerate(kernel.blocks):
            i = 0
            while i < len(bb.instrs):
                blk = covered.get((b_idx, i))
                if blk is not None:
                    segs.append(("block", blk, tuple(
                        ins for ins in blk.instrs if ins.is_mem)))
                    i = blk.candidate.stop
                else:
                    segs.append(_instr_segment(bb.instrs[i]))
                    i += 1
        return segs

    def _addrs(self, instr, arrays, ctx: MemCtx, n: int, width: int):
        """``mem_addrs`` of ``instr`` for the ``n`` rows ``ctx`` stands
        for: ``(n, width)``, or one ``(width,)`` row they share."""
        try:
            addrs = self.mem_addrs(instr, arrays, ctx)
        except NoStreamError:
            raise ValueError(
                f"{self.name}: mem_addrs drew from ctx.rng for "
                f"'{_text(instr)}', but only indirect loads may draw") from None
        shape = np.shape(addrs)
        if shape != (n, width) and shape != (width,):
            self._wrong_width(instr, "mem_addrs", addrs, width)
        return addrs

    def _wrong_width(self, instr, source, value, width):
        shape = np.shape(value)
        got = (f"{shape[-1]} lanes" if shape and shape[-1] != width
               else f"shape {shape}")
        raise ValueError(
            f"{self.name}: {source} returned {got} for "
            f"'{_text(instr)}', but the warp width is {width}")


def _instr_segment(instr: Instr):
    """The segment of one instruction outside any offload block."""
    return ("instr", instr, (instr,) if instr.is_mem else ())


def _mem_instrs(segments) -> tuple[Instr, ...]:
    """The segments' memory instructions, one per coalesced row."""
    return tuple(instr for _, _, mem in segments for instr in mem)


def _block_columns(group: int, iters: int, n_rows: int, first_row: int,
                   stride: int):
    """Block-context columns for a full group: ``(warp, it, rows)``,
    warp-major over ``iters`` iterations.  ``warp`` counts from the
    group's first warp, and ``rows[r] + k`` is the row of the ``k``-th
    instruction of a phase whose rows for warp ``j``, iteration ``i``
    start at ``j * n_rows + first_row + i * stride``."""
    warp = np.repeat(np.arange(group, dtype=np.int64), iters)
    it = np.tile(np.arange(iters, dtype=np.int64), group)
    return (warp[:, None], it[:, None],
            warp * n_rows + first_row + it * stride)


def _indirect_rows(instrs) -> list[tuple[int, Instr]]:
    """``(position, instr)`` of the indirect loads among ``instrs``."""
    return [(k, instr) for k, instr in enumerate(instrs) if instr.indirect]


def _text(instr: Instr) -> str:
    """An instruction as one line with single spaces, for messages."""
    return " ".join(str(instr).split())


def _assemble_trace(prologue, body, groups, k: int, actives: list[int],
                    width: int) -> WarpTrace:
    """One warp's trace: the prologue segments once, then the body
    segments once per iteration, taking the coalesced rows ``groups[k:]``
    in program order."""
    trace: WarpTrace = []
    for segments, active in [(prologue, width)] + [
            (body, a) for a in actives]:
        for kind, payload, instrs in segments:
            n = len(instrs)
            if kind == "instr":
                trace.append(DynInstr(payload, groups[k] if n else ()))
            else:
                trace.append(DynBlock(payload, groups[k:k + n], active))
            k += n
    return trace
