"""Memory substrate: the ``hmc``/``cxl`` device-fact record
(:mod:`repro.memory.backend`), address mapping, DRAM timing, FR-FCFS
vault controllers, and the device container."""

from repro.memory.address import AddressMap
from repro.memory.dram import BankState, DRAMTimingSM
from repro.memory.vault import DRAMRequest, VaultController, DRAMStats
from repro.memory.hmc import HMCStack

__all__ = [
    "AddressMap",
    "BankState",
    "DRAMTimingSM",
    "DRAMRequest",
    "VaultController",
    "DRAMStats",
    "HMCStack",
]
