"""One memory device: DRAM vaults behind a front end.

On the paper's substrate the device is an HMC stack: 16 vault controllers
behind a logic-layer NoC that receives packets from the stack's off-chip
links (from the GPU or from peer stacks over the memory network), routes
memory requests to the owning vault, and forwards responses.  The NoC hop
is modelled as a small fixed latency plus byte accounting (it is
generously provisioned in the HMC and never the bottleneck, but its
traffic costs energy -- Figure 10 has an "Intra-HMC NoC" component).

:class:`HMCStack` is the simulator's one memory-device class.  It reads
its geometry, timing and front-end hop from the substrate record
(:func:`repro.memory.backend.backend_of`), so on the ``cxl`` substrate
the same class models an expander's DDR channels behind its controller
port, with no NoC charged.  Every DRAM line access -- GPU L2 fills, RDF
reads, NSU writes -- takes :meth:`HMCStack.access_line` on both.
"""

from __future__ import annotations

from typing import Callable

from repro.config import LINE_SIZE, SystemConfig
from repro.memory.address import AddressMap
from repro.memory.backend import backend_of
from repro.memory.dram import DRAMTimingSM
from repro.memory.vault import DRAMRequest, DRAMStats, VaultController
from repro.sim.engine import Engine


class HMCStack:
    """Vaults + front-end routing for one device."""

    def __init__(self, engine: Engine, cfg: SystemConfig, hmc_id: int,
                 amap: AddressMap) -> None:
        be = backend_of(cfg)
        self.engine = engine
        self.cfg = cfg
        self.hmc_id = hmc_id
        self.amap = amap
        self.name = f"{be.name}{hmc_id}"
        self.noc = be.noc
        self.hop_latency = be.hop_latency
        # Bytes charged to this device's NoC (its "intra_hmc" traffic);
        # stays 0 on a device without one.
        self.noc_bytes = 0
        self.stats = DRAMStats()
        self.timing = DRAMTimingSM.from_config(
            be.timing, cfg.gpu.sm_clock_mhz, be.bus_bytes)
        self.vaults: list[VaultController] = [
            VaultController(engine, self.timing, be.banks, self.stats,
                            be.queue_size, name=f"{self.name}.v{v}")
            for v in range(be.vaults)]
        # Attached by the system after construction:
        self.nsu = None

    # -- DRAM access --------------------------------------------------------

    def access_line(self, line_addr: int, is_write: bool,
                    on_done: Callable[[DRAMRequest], None],
                    noc_bytes: int = LINE_SIZE,
                    on_lost: Callable[[DRAMRequest], None] | None = None,
                    ) -> None:
        """Access one cache line in this device's DRAM.

        ``on_done`` fires when the data is available at the logic layer
        (read) or written (write).  ``noc_bytes`` is charged to the
        intra-HMC NoC for the request+response traversal (never on a
        device without one).  ``on_lost`` fires instead when an armed
        ``vault_read`` fault swallows the read response (see
        :class:`~repro.memory.vault.DRAMRequest`).
        """
        if self.amap.hmc_of(line_addr * LINE_SIZE) != self.hmc_id:
            raise ValueError(
                f"line {line_addr:#x} does not belong to {self.name}")
        vault, bank, row = self.amap.locate(line_addr)
        if self.noc:
            self.noc_bytes += noc_bytes
        self.vaults[vault].submit(
            DRAMRequest(line_addr, is_write, on_done, bank, row,
                        self.hop_latency, on_lost))

    # -- convenience --------------------------------------------------------

    @property
    def queue_occupancy(self) -> int:
        return sum(len(v.queue) for v in self.vaults)

    def metrics_snapshot(self) -> dict:
        """Counters/gauges published into the metrics registry."""
        snap = self.stats.metrics_snapshot()
        snap["queue_occupancy"] = self.queue_occupancy
        snap["max_vault_queue"] = max(
            (len(v.queue) for v in self.vaults), default=0)
        return snap

    def peak_bandwidth_bytes_per_cycle(self) -> float:
        """Aggregate vault-bus bandwidth (the device's peak DRAM bandwidth)."""
        per_vault = LINE_SIZE / max(self.timing.tCCD, self.timing.burst)
        return per_vault * len(self.vaults)
