"""One CXL memory expander: DDR channel controllers behind a CXL port.

The expander models the CXL-NDP design point (see PAPERS.md): a type-3
memory device whose controller fronts a handful of DDR channels and
hosts the NDP unit next to them.  Three structural departures from the
HMC stack (docs/backends.md has the full table):

* **no internal NoC** -- requests go port -> channel controller
  directly, so nothing is charged to the ``intra_hmc`` counter and the
  traversal cost is the flat :attr:`~repro.config.CXLConfig.port_latency`
  instead of the HMC's logic-layer hop;
* **asymmetric host link** -- the CXL.mem link the backend installs via
  ``gpu_link_kwargs`` (handled in :mod:`repro.network.fabric`, not
  here);
* **expander-side NDP queue** -- a shallower device command queue
  (``cfg.cxl.ndp_cmd_queue``) surfaced through the backend's
  ``ndp_cmd_entries`` hook.

Only the first is the device's own business, so the class is an
:class:`~repro.memory.hmc.HMCStack` that states its geometry: the
``vaults`` attribute holds the DDR *channel* controllers (same
:class:`~repro.memory.vault.VaultController` machinery, DDR5-class
timing), which keeps the ``vault_read`` fault site armable on this
substrate too.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.memory.hmc import HMCStack


class CXLExpander(HMCStack):
    """DDR channels + CXL front-end controller for one expander."""

    kind = "cxl"
    internal_noc = False

    @staticmethod
    def geometry(cfg: SystemConfig) -> tuple:
        """DDR channel timing, channel count, banks, queue depth and the
        flat port latency (no NoC hop)."""
        x = cfg.cxl
        return (x.timing, x.channel_bus_bytes_per_dram_cycle,
                x.num_channels, x.banks_per_channel, x.channel_queue_size,
                x.port_latency)
