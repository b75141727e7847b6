"""Workload-model machinery: kernels -> analyzed blocks -> warp traces.

A :class:`WorkloadModel` authors one kernel in the IR and implements
:meth:`WorkloadModel.mem_addrs`, which supplies the per-thread byte
addresses of every dynamic memory instruction.  The base class runs the
static analyzer once, lays the kernel out into *segments* (plain
instructions vs. offload blocks), and unrolls ``iters`` loop iterations per
warp into a :class:`~repro.gpu.trace.WarpTrace`, coalescing the memory
instructions of :data:`WARP_GROUP` warps in one pass (addresses are
generated and coalesced on the GPU in both execution modes, Section 4.1).

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

    def element(self, name: str, index) -> np.ndarray:
        """Byte addresses of 4-byte elements ``index`` (array or scalar)."""
        idx = np.asarray(index, dtype=np.int64)
        size = self._sizes[name]
        return self._bases[name] + (idx * 4) % max(4, size)


@dataclass
class MemCtx:
    """Context handed to :meth:`WorkloadModel.mem_addrs`.

    One context serves a warp's prologue and every iteration (``it``
    advances in place), so its random stream runs on across them.  The
    stream is built from ``seed`` at its first draw: seven of the ten
    models never draw, and a generator takes tens of microseconds to
    build."""

    warp: int
    it: int
    lanes: np.ndarray          # 0..31
    scale: Scale
    seed: int | tuple[int, ...]
    _rng: np.random.Generator | None = field(default=None, init=False,
                                             repr=False)

    @property
    def rng(self) -> np.random.Generator:
        """The warp's random stream, ``np.random.default_rng(seed)``."""
        if self._rng is None:
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
    #: Scale multipliers: workloads with big blocks need fewer iterations.
    warp_factor: float = 1.0
    iter_factor: float = 1.0

    def kernel(self) -> Kernel:
        raise NotImplementedError

    def layout(self, scale: Scale) -> ArrayLayout:
        raise NotImplementedError

    def mem_addrs(self, instr: Instr, arrays: ArrayLayout,
                  ctx: MemCtx) -> np.ndarray:
        """Per-thread byte addresses for one dynamic memory instruction."""
        raise NotImplementedError

    def active_lanes(self, instr: Instr, ctx: MemCtx) -> np.ndarray | None:
        """Optional per-instruction active mask (default: the warp mask)."""
        return self.warp_active_mask(ctx)

    def warp_active_mask(self, ctx: MemCtx) -> np.ndarray | None:
        """Optional per-(warp, iteration) active-thread mask.

        Divergent control flow (a shrinking BFS frontier, boundary
        threads in a stencil) leaves some lanes inactive: fewer coalesced
        words move, and the offload command/ACK register payloads scale
        with the active count (Figure 4).  ``None`` means all lanes."""
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
        scale = Scale(scale.name,
                      max(1, int(scale.num_warps * self.warp_factor)),
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
        width = cfg.gpu.warp_width
        lanes = np.arange(width, dtype=np.int64)
        # crc32, not hash(): hash() of a str varies with PYTHONHASHSEED,
        # which made trace digests differ across processes (DET004).
        name_key = zlib.crc32(self.name.encode()) & 0xFFFF
        # Each warp writes one row per memory instruction, in program
        # order (the RNG draws follow it), into a group's shared buffers;
        # one coalesce call then serves the whole group.
        n_rows = len(prologue_mem) + scale.iters * len(body_mem)
        group = min(WARP_GROUP, scale.num_warps)
        addr_rows = np.empty((group * n_rows, width), dtype=np.int64)
        mask_rows = np.empty((group * n_rows, width), dtype=bool)
        traces = []
        for first in range(0, scale.num_warps, group):
            warps = range(first, min(first + group, scale.num_warps))
            actives = []
            row = 0
            for w in warps:
                mask_rows[row:row + n_rows] = True
                ctx = MemCtx(warp=w, it=0, lanes=lanes, scale=scale,
                             seed=(cfg.seed, name_key, w))
                row = self._fill_rows(prologue_mem, ctx, arrays,
                                      addr_rows, mask_rows, row)
                warp_actives = []
                for it in range(scale.iters):
                    ctx.it = it
                    mask = self.warp_active_mask(ctx)
                    warp_actives.append(
                        int(mask.sum()) if mask is not None else width)
                    row = self._fill_rows(body_mem, ctx, arrays,
                                          addr_rows, mask_rows, row)
                actives.append(warp_actives)
            groups = coalesce(addr_rows[:row], mask_rows[:row])
            if not all(groups):
                empty = groups.index(())
                w, r = first + empty // n_rows, empty % n_rows
                instr = (prologue_mem + body_mem * scale.iters)[r]
                raise AssertionError(
                    f"{self.name}: memory instruction '{_text(instr)}' of "
                    f"warp {w} produced no accesses (empty active mask?)")
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

    def _fill_rows(self, instrs, ctx: MemCtx, arrays, addr_rows,
                   mask_rows, row: int) -> int:
        """Write the addresses and mask of each of ``instrs`` into the
        rows from ``row`` on; return the next free row."""
        width = ctx.lanes.size
        for instr in instrs:
            addrs = self.mem_addrs(instr, arrays, ctx)
            mask = self.active_lanes(instr, ctx)
            if np.shape(addrs) != (width,):
                self._wrong_width(instr, "mem_addrs", addrs, width)
            addr_rows[row] = addrs
            if mask is not None:
                if np.shape(mask) != (width,):
                    self._wrong_width(instr, "active_lanes", mask, width)
                mask_rows[row] = mask
            row += 1
        return row

    def _wrong_width(self, instr, source, row, width):
        shape = np.shape(row)
        got = f"{shape[0]} lanes" if len(shape) == 1 else f"shape {shape}"
        raise ValueError(
            f"{self.name}: {source} returned {got} for "
            f"'{_text(instr)}', but the warp width is {width}")


def _instr_segment(instr: Instr):
    """The segment of one instruction outside any offload block."""
    return ("instr", instr, (instr,) if instr.is_mem else ())


def _mem_instrs(segments) -> tuple[Instr, ...]:
    """The segments' memory instructions, one per coalesced row."""
    return tuple(instr for _, _, mem in segments for instr in mem)


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
