"""Workload-model machinery: kernels -> analyzed blocks -> warp traces.

A :class:`WorkloadModel` authors one kernel in the IR and implements
:meth:`WorkloadModel.mem_addrs`, which supplies the per-thread byte
addresses of every dynamic memory instruction.  The base class runs the
static analyzer once, lays the kernel out into *segments* (plain
instructions vs. offload blocks), and unrolls ``iters`` loop iterations per
warp into a :class:`~repro.gpu.trace.WarpTrace`, coalescing all of the
warp's memory instructions in one pass (addresses are generated and
coalesced on the GPU in both execution modes, Section 4.1).

Input problems are scaled down from Table 1 (the simulator is cycle-level
Python, not a farm of GPGPU-sim machines); every workload keeps the *shape*
that drives its paper behaviour -- bytes per block instance, divergence,
reuse distance -- while the ``Scale`` presets set the total footprint.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

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
    """Context handed to :meth:`WorkloadModel.mem_addrs`."""

    warp: int
    it: int
    lanes: np.ndarray          # 0..31
    rng: np.random.Generator
    scale: Scale

    @property
    def flat(self) -> np.ndarray:
        """Global element indices for streaming patterns:
        (warp * iters + it) * 32 + lane."""
        base = (self.warp * self.scale.iters + self.it) * self.lanes.size
        return base + self.lanes


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
        mem = (_mem_instrs(prologue), _mem_instrs(body))
        lanes = np.arange(cfg.gpu.warp_width, dtype=np.int64)
        # crc32, not hash(): hash() of a str varies with PYTHONHASHSEED,
        # which made trace digests differ across processes (DET004).
        name_key = zlib.crc32(self.name.encode()) & 0xFFFF
        traces = []
        for w in range(scale.num_warps):
            rng = np.random.default_rng((cfg.seed, name_key, w))
            traces.append(self._warp_trace(w, scale, prologue, body, mem,
                                           arrays, lanes, rng))
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

    def _warp_trace(self, warp: int, scale: Scale, prologue, body, mem,
                    arrays, lanes, rng) -> WarpTrace:
        """One warp's trace: the prologue segments once, then the body
        segments ``scale.iters`` times.  Addresses and masks are generated
        in program order (the RNG draws follow it) into one row per
        memory instruction; the rows are then coalesced in one call."""
        width = lanes.size
        prologue_mem, body_mem = mem
        n_rows = len(prologue_mem) + scale.iters * len(body_mem)
        addr_rows = np.empty((n_rows, width), dtype=np.int64)
        mask_rows = np.ones((n_rows, width), dtype=bool)
        row = 0

        def add_rows(instrs, ctx):
            nonlocal row
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

        add_rows(prologue_mem,
                 MemCtx(warp=warp, it=0, lanes=lanes, rng=rng, scale=scale))
        actives = []
        for it in range(scale.iters):
            ctx = MemCtx(warp=warp, it=it, lanes=lanes, rng=rng, scale=scale)
            mask = self.warp_active_mask(ctx)
            actives.append(int(mask.sum()) if mask is not None else width)
            add_rows(body_mem, ctx)
        groups = coalesce(addr_rows, mask_rows)
        if not all(groups):
            instr = (prologue_mem + body_mem * scale.iters)[groups.index(())]
            raise AssertionError(
                f"{self.name}: memory instruction {instr} produced no "
                "accesses (empty active mask?)")

        trace: WarpTrace = []
        k = 0
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

    def _wrong_width(self, instr, source, row, width):
        shape = np.shape(row)
        got = f"{shape[0]} lanes" if len(shape) == 1 else f"shape {shape}"
        raise ValueError(
            f"{self.name}: {source} returned {got} for "
            f"'{' '.join(str(instr).split())}', but the warp width is {width}")


def _instr_segment(instr: Instr):
    """The segment of one instruction outside any offload block."""
    return ("instr", instr, (instr,) if instr.is_mem else ())


def _mem_instrs(segments) -> tuple[Instr, ...]:
    """The segments' memory instructions, one per coalesced row."""
    return tuple(instr for _, _, mem in segments for instr in mem)
