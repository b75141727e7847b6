"""Physical address mapping: random 4 KB page -> HMC, vault/bank/row decode.

The paper evaluates "unrestricted data placement" by mapping pages to HMCs at
random in 4 KB granularity (Section 5).  We implement that with a stateless
mixing hash (splitmix64) over the page number, so the mapping is reproducible
from the seed, needs no table, and is vectorizable with numpy for the trace
generators.

Within a stack, cache lines interleave across the 16 vaults (low line bits),
then across the 16 banks per vault, with a 4 KB row holding 32 consecutive
lines of the same (vault, bank):

    addr bits:  [0:7) line offset | [7:11) vault | [11:15) bank
                | [15:20) column (line-in-row) | [20:) row
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import LINE_SIZE, PAGE_SIZE, SystemConfig
from repro.memory.backend import backend_of

_U64 = np.uint64


def _splitmix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 arrays."""
    z = x.astype(_U64, copy=True)
    with np.errstate(over="ignore"):
        z = (z + _U64(0x9E3779B97F4A7C15))
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        z = z ^ (z >> _U64(31))
    return z


def _splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


@dataclass(frozen=True)
class Location:
    """Decoded physical location of a cache line."""

    hmc: int
    vault: int
    bank: int
    row: int


class AddressMap:
    """Address decoding for a multi-device system.

    The within-device geometry (vaults or DDR channels, banks, row size)
    comes from the substrate record
    (:func:`repro.memory.backend.backend_of`).  The page->device
    interleaving is geometry-independent so placement studies compare
    like-for-like across substrates.
    """

    def __init__(self, cfg: SystemConfig) -> None:
        be = backend_of(cfg)
        self.cfg = cfg
        self.num_hmcs = cfg.num_hmcs
        self.num_vaults = be.vaults
        self.banks_per_vault = be.banks
        self.lines_per_row = be.row_bytes // LINE_SIZE
        self.seed = cfg.seed
        # The working sets span a few thousand pages; memoizing the hash
        # turns the per-access page lookup into a dict hit.
        self._page_cache: dict[int, int] = {}
        # Bit widths (vault/bank counts are powers of two in the HMC spec).
        self._vault_bits = self.num_vaults.bit_length() - 1
        self._bank_bits = self.banks_per_vault.bit_length() - 1
        self._col_bits = self.lines_per_row.bit_length() - 1
        if 2 ** self._vault_bits != self.num_vaults:
            raise ValueError(
                f"{be.name}: vaults per device must be a power of two")
        if 2 ** self._bank_bits != self.banks_per_vault:
            raise ValueError(
                f"{be.name}: banks per vault must be a power of two")

    # -- page -> HMC --------------------------------------------------------

    def hmc_of(self, addr: int) -> int:
        """HMC holding ``addr`` (random 4 KB page interleaving)."""
        page = addr // PAGE_SIZE
        cached = self._page_cache.get(page)
        if cached is not None:
            return cached
        hmc = _splitmix64(page ^ (self.seed << 32)) % self.num_hmcs
        self._page_cache[page] = hmc
        return hmc

    def hmc_of_lines(self, line_addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`hmc_of` over an array of line addresses."""
        pages = (line_addrs.astype(_U64) * _U64(LINE_SIZE)) // _U64(PAGE_SIZE)
        mixed = _splitmix64_np(pages ^ (_U64(self.seed) << _U64(32)))
        return (mixed % _U64(self.num_hmcs)).astype(np.int64)

    # -- within-stack decode ------------------------------------------------

    def decode_line(self, line_addr: int) -> Location:
        """Decode a line address (``addr // LINE_SIZE``) to its location."""
        vault = line_addr & (self.num_vaults - 1)
        rest = line_addr >> self._vault_bits
        bank = rest & (self.banks_per_vault - 1)
        rest >>= self._bank_bits
        row = rest >> self._col_bits
        hmc = self.hmc_of(line_addr * LINE_SIZE)
        return Location(hmc=hmc, vault=vault, bank=bank, row=row)

    def decode(self, addr: int) -> Location:
        return self.decode_line(addr // LINE_SIZE)

    def vault_of_line(self, line_addr: int) -> int:
        return line_addr & (self.num_vaults - 1)

    def bank_row_of_line(self, line_addr: int) -> tuple[int, int]:
        rest = line_addr >> self._vault_bits
        bank = rest & (self.banks_per_vault - 1)
        row = (rest >> self._bank_bits) >> self._col_bits
        return bank, row
