"""Memory-access coalescing (Section 4.1.1: addresses are "generated and
coalesced" on the GPU in both execution modes).

The coalescer turns the 32 per-thread addresses of a warp memory instruction
into unique cache-line accesses, remembering how many distinct words each
line actually provides.  The word count is what lets the NDP path send only
touched data in RDF response packets (Section 4.4) while the baseline always
moves whole 128 B lines.  Trace generation hands it a whole warp at once:
one row per memory instruction, coalesced in a single array pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import LINE_SIZE, WORD_SIZE


@dataclass(frozen=True, slots=True)
class MemAccess:
    """One coalesced line access of a warp memory instruction."""

    line_addr: int      # address // LINE_SIZE
    words: int          # distinct words touched by active threads
    irregular: bool     # True when per-thread offsets must ride the packet

    @property
    def bytes_touched(self) -> int:
        return self.words * WORD_SIZE


#: Sort key of an inactive lane: sorts after every active address.
_INACTIVE = np.iinfo(np.int64).max


def coalesce(addrs: np.ndarray, active: np.ndarray | None = None,
             word_size: int = WORD_SIZE
             ) -> tuple[MemAccess, ...] | tuple[tuple[MemAccess, ...], ...]:
    """Coalesce per-thread byte addresses into line accesses.

    Parameters
    ----------
    addrs:
        int64 per-thread byte addresses: one row of lanes (1-D), or a
        warp's memory instructions as an ``(N, width)`` array, one row
        per instruction.
    active:
        optional boolean mask of active lanes, shaped like ``addrs``.
    word_size:
        per-thread access size in bytes.

    Returns one tuple of :class:`MemAccess`, in ascending line order, for
    a 1-D ``addrs``, and one such tuple per row for a 2-D ``addrs``; a
    row with no active lane gives ``()``.

    An access is *aligned* (regular) when the active lanes touch a single
    line with ``offset(i) = i * word_size`` (the Section 4.1.1 aligned
    test); anything else carries per-thread offsets in its packet.
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    if addrs.ndim not in (1, 2):
        raise ValueError(f"addresses must be 1-D or 2-D, not {addrs.ndim}-D")
    rows = np.atleast_2d(addrs)
    if active is None:
        mask = np.ones(rows.shape, dtype=bool)
    else:
        mask = np.asarray(active, dtype=bool)
        if mask.shape != addrs.shape:
            raise ValueError(f"active mask shape {mask.shape} does not "
                             f"match address shape {addrs.shape}")
        mask = mask.reshape(rows.shape)
    n_rows, width = rows.shape
    counts = mask.sum(axis=1)
    # One sort per row: active addresses ascending (so by line, then by
    # word), inactive lanes pushed to the end; keep the active prefix.
    keys = np.where(mask, rows, _INACTIVE)
    keys.sort(axis=1)
    addr = keys[np.arange(width) < counts[:, None]]
    line = addr // LINE_SIZE
    word = (addr % LINE_SIZE) // word_size
    row_of = np.repeat(np.arange(n_rows), counts)
    new_line = np.ones(addr.size, dtype=bool)
    new_line[1:] = (line[1:] != line[:-1]) | (row_of[1:] != row_of[:-1])
    new_word = new_line.copy()
    new_word[1:] |= word[1:] != word[:-1]
    starts = np.flatnonzero(new_line)
    words = np.add.reduceat(new_word, starts)
    lines_per_row = np.bincount(row_of[starts], minlength=n_rows)
    # Aligned: one line, and the k-th active lane (in lane order) sits at
    # offset k * word_size.
    lane_k = np.cumsum(mask, axis=1) - 1
    in_place = ~mask | (rows % LINE_SIZE == lane_k * word_size)
    aligned = (lines_per_row == 1) & in_place.all(axis=1)
    accesses = list(map(MemAccess, line[starts].tolist(), words.tolist(),
                        (~aligned[row_of[starts]]).tolist()))
    per_row = []
    stop = 0
    for n in lines_per_row.tolist():
        per_row.append(tuple(accesses[stop:stop + n]))
        stop += n
    return per_row[0] if addrs.ndim == 1 else tuple(per_row)


def access_stats(accesses: tuple[MemAccess, ...]) -> tuple[int, int]:
    """(number of lines, total words touched) for a coalesced instruction."""
    return len(accesses), sum(a.words for a in accesses)
