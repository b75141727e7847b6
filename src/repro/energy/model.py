"""Event-count energy accounting producing the Figure 10 breakdown.

The five components match the figure's stack: GPU (core static + dynamic +
caches), NSU, intra-HMC NoC, off-chip interconnect (GPU links *and* the
inter-HMC memory network, including the extra links NDP adds), and DRAM
(activation + row-buffer movement + background).  Energies are computed
from the simulator's event counts with the constants of
:mod:`repro.energy.params`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.energy.params import EnergyParams
from repro.sim.results import RunResult


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-component energy in nanojoules."""

    gpu: float
    nsu: float
    intra_hmc_noc: float
    offchip_icnt: float
    dram: float

    @property
    def total(self) -> float:
        return (self.gpu + self.nsu + self.intra_hmc_noc
                + self.offchip_icnt + self.dram)

    def normalized_to(self, baseline: "EnergyBreakdown") -> dict[str, float]:
        """Figure 10 view: every component normalized to the baseline's
        *total* energy so the stacked bars compare directly."""
        t = baseline.total
        return {
            "GPU": self.gpu / t,
            "NSU": self.nsu / t,
            "Intra-HMC NoC": self.intra_hmc_noc / t,
            "Off-chip ICNT": self.offchip_icnt / t,
            "DRAM": self.dram / t,
            "Total": self.total / t,
        }

    def as_dict(self) -> dict[str, float]:
        return {
            "GPU": self.gpu,
            "NSU": self.nsu,
            "Intra-HMC NoC": self.intra_hmc_noc,
            "Off-chip ICNT": self.offchip_icnt,
            "DRAM": self.dram,
            "Total": self.total,
        }


def compute_energy(result: RunResult, cfg: SystemConfig,
                   params: EnergyParams | None = None) -> EnergyBreakdown:
    """Energy of one run from its event counts."""
    p = params or EnergyParams()
    t = result.cycles

    gpu = (cfg.gpu.num_sms * p.sm_static_nj_per_cycle * t
           + p.gpu_uncore_static_nj_per_cycle * t
           + p.gpu_instr_nj * result.instructions
           + p.l1_access_nj * result.l1_accesses
           + p.l2_access_nj * result.l2_accesses)

    # NSUs exist (and burn static power) only in NDP configurations; the
    # paper power-gates them otherwise.
    has_nsu = result.nsu_cycles > 0 or result.offloads_issued > 0
    nsu = 0.0
    if has_nsu:
        nsu = (cfg.num_hmcs * p.nsu_static_nj_per_cycle * t
               + p.nsu_instr_nj * result.nsu_instructions)

    # The off-chip link constant is substrate-specific (HMC serdes vs
    # CXL serdes+protocol); the intra-device term is naturally zero on
    # a substrate without an internal NoC (it never counts intra_hmc
    # bytes).  getattr keeps pre-backend SystemConfig pickles working.
    link_nj = (p.cxl_link_nj_per_byte
               if getattr(cfg, "backend", "hmc") == "cxl"
               else p.offchip_link_nj_per_byte)
    intra = p.intra_hmc_nj_per_byte * result.traffic.intra_hmc
    offchip = link_nj * (result.traffic.gpu_link + result.traffic.mem_net)

    dram = (p.dram_activate_nj * result.dram_activations
            + p.dram_rw_nj_per_byte * (result.dram_reads + result.dram_writes)
            + cfg.num_hmcs * p.dram_static_nj_per_cycle_per_stack * t)

    return EnergyBreakdown(gpu=gpu, nsu=nsu, intra_hmc_noc=intra,
                           offchip_icnt=offchip, dram=dram)
