"""The memory substrate as one record of device facts.

The paper's partitioned execution is substrate-agnostic: nothing in the
NDP protocol depends on the memory device.  So a substrate here is not
an interface but a handful of numbers -- DRAM timing and geometry, one
front-end hop, whether an internal NoC is charged, the link rates and
the NDP command-queue depth -- that the device, the address map, the
links, the offload controller, the NSU and the audit read when they are
built.

:func:`backend_of` derives the record from a
:class:`~repro.config.SystemConfig`: the ``hmc`` branch is the paper's
stack (Table 2) and the ``cxl`` branch a CXL memory expander
(:class:`~repro.config.CXLConfig`).  docs/backends.md has the field
table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DRAMTiming, SystemConfig

__all__ = ["Backend", "GPU_LINK_LATENCY", "NOC_LATENCY", "backend_of"]

#: GPU off-chip link propagation latency of the HMC substrate (SM cycles).
GPU_LINK_LATENCY = 10
#: Logic-layer NoC traversal latency of an HMC stack (SM cycles).
NOC_LATENCY = 4


@dataclass(frozen=True)
class Backend:
    """The device facts of one memory substrate.

    Link rates are bytes per SM cycle per direction; latencies are SM
    cycles.
    """

    #: Device-name prefix: device 0 is ``<name>0``, its vaults
    #: ``<name>0.v<i>``.
    name: str
    timing: DRAMTiming
    #: Vault (or DDR channel) data bus, bytes per DRAM cycle.
    bus_bytes: int
    #: Vaults (hmc) or DDR channels (cxl) per device.
    vaults: int
    #: Banks per vault or channel.
    banks: int
    #: Request-queue depth per vault or channel.
    queue_size: int
    row_bytes: int
    #: The device front end: added after each DRAM access, and the
    #: return hop of an RDF response whose owner is the target.
    hop_latency: int
    #: True when device-local traffic crosses a NoC whose bytes are
    #: charged to the ``intra_hmc`` traffic class.
    noc: bool
    #: GPU -> device and device -> GPU link, one per device.
    link_down_bpc: float
    link_up_bpc: float
    link_down_latency: int
    link_up_latency: int
    #: Device-to-device memory network, per link direction.
    net_bpc: float
    #: NDP command-queue depth per device: the command credits the
    #: offload controller grants and the NSU queue holds.
    cmd_entries: int


def backend_of(cfg: SystemConfig) -> Backend:
    """The device facts of ``cfg``'s memory substrate."""
    clock = cfg.gpu.sm_clock_mhz
    if cfg.backend == "cxl":
        x = cfg.cxl
        down, up = x.host_link_bytes_per_sm_cycle(clock)
        return Backend(
            name="cxl", timing=x.timing,
            bus_bytes=x.channel_bus_bytes_per_dram_cycle,
            vaults=x.num_channels, banks=x.banks_per_channel,
            queue_size=x.channel_queue_size, row_bytes=x.row_bytes,
            # No NoC: the expander controller hop only.
            hop_latency=x.port_latency, noc=False,
            link_down_bpc=down, link_up_bpc=up,
            link_down_latency=x.link_latency_down,
            link_up_latency=x.link_latency_up,
            net_bpc=x.fabric_bytes_per_sm_cycle(clock),
            cmd_entries=x.ndp_cmd_queue)
    h = cfg.hmc
    link = cfg.gpu.link_bytes_per_sm_cycle
    return Backend(
        name="hmc", timing=h.timing,
        bus_bytes=h.vault_bus_bytes_per_dram_cycle,
        vaults=h.num_vaults, banks=h.banks_per_vault,
        queue_size=h.vault_queue_size, row_bytes=h.row_bytes,
        hop_latency=NOC_LATENCY, noc=True,
        link_down_bpc=link, link_up_bpc=link,
        link_down_latency=GPU_LINK_LATENCY,
        link_up_latency=GPU_LINK_LATENCY,
        net_bpc=h.link_bytes_per_sm_cycle(clock),
        cmd_entries=cfg.nsu.cmd_buffer_entries)
