"""Physical address mapping: random 4 KB page -> HMC, vault/bank/row decode.

The paper evaluates "unrestricted data placement" by mapping pages to HMCs at
random in 4 KB granularity (Section 5).  We implement that with a stateless
mixing hash (splitmix64) over the page number, so the mapping is reproducible
from the seed and needs no table.

Within a stack, cache lines interleave across the 16 vaults (low line bits),
then across the 16 banks per vault, with a 4 KB row holding 32 consecutive
lines of the same (vault, bank):

    addr bits:  [0:7) line offset | [7:11) vault | [11:15) bank
                | [15:20) column (line-in-row) | [20:) row
"""

from __future__ import annotations

from repro.config import LINE_SIZE, PAGE_SIZE, SystemConfig
from repro.memory.backend import backend_of


def _splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


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
        self.num_hmcs = cfg.num_hmcs
        self.seed = cfg.seed
        # The working sets span a few thousand pages; memoizing the hash
        # turns the per-access page lookup into a dict hit.
        self._page_cache: dict[int, int] = {}
        # Field masks and shifts of a line address (vault/bank counts are
        # powers of two in the HMC spec).
        self._vault_mask = be.vaults - 1
        self._bank_mask = be.banks - 1
        self._vault_bits = self._vault_mask.bit_length()
        self._row_shift = (self._bank_mask.bit_length()
                           + (be.row_bytes // LINE_SIZE).bit_length() - 1)
        if be.vaults < 1 or be.vaults & self._vault_mask:
            raise ValueError(
                f"{be.name}: vaults per device must be a power of two")
        if be.banks < 1 or be.banks & self._bank_mask:
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

    # -- within-stack decode ------------------------------------------------

    def locate(self, line_addr: int) -> tuple[int, int, int]:
        """``(vault, bank, row)`` of a line address (``addr // LINE_SIZE``)
        within its device."""
        rest = line_addr >> self._vault_bits
        return (line_addr & self._vault_mask, rest & self._bank_mask,
                rest >> self._row_shift)
