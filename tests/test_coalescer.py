"""Unit tests for the memory coalescer."""

import numpy as np

from repro.config import LINE_SIZE, WORD_SIZE
from repro.gpu.coalescer import MemAccess, coalesce


class TestCoalesce:
    def test_fully_coalesced_single_line(self):
        addrs = np.arange(32) * WORD_SIZE + 5 * LINE_SIZE
        (acc,) = coalesce(addrs)
        assert acc.line_addr == 5
        assert acc.words == 32
        assert not acc.irregular

    def test_strided_access_spans_lines(self):
        addrs = np.arange(32) * LINE_SIZE  # one line per thread
        accs = coalesce(addrs)
        assert len(accs) == 32
        assert all(a.words == 1 for a in accs)
        assert all(a.irregular for a in accs)

    def test_divergent_random_lines(self):
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 20, 32) * WORD_SIZE
        accs = coalesce(addrs)
        assert 1 <= len(accs) <= 32
        total_words = sum(a.words for a in accs)
        assert total_words <= 32

    def test_duplicate_addresses_merge(self):
        addrs = np.zeros(32, dtype=np.int64)
        (acc,) = coalesce(addrs)
        assert acc.words == 1

    def test_active_mask_filters(self):
        addrs = np.arange(32) * WORD_SIZE
        active = np.zeros(32, dtype=bool)
        active[:4] = True
        (acc,) = coalesce(addrs, active)
        assert acc.words == 4

    def test_all_inactive_returns_empty(self):
        assert coalesce(np.arange(4), np.zeros(4, dtype=bool)) == ()

    def test_partial_lane_ordered_warp_is_aligned(self):
        # Lanes 0..3 at offsets i * word: aligned by the Section 4.1.1 test.
        addrs = np.arange(4) * WORD_SIZE
        (acc,) = coalesce(addrs)
        assert not acc.irregular

    def test_misaligned_offsets_are_irregular(self):
        addrs = np.array([8, 4, 0, 12], dtype=np.int64)  # shuffled lanes
        (acc,) = coalesce(addrs)
        assert acc.irregular

    def test_records_are_mem_access_named_tuples(self):
        rows = np.stack([np.arange(32) * WORD_SIZE + 5 * LINE_SIZE,
                         np.arange(32) * LINE_SIZE])
        first, second = coalesce(rows)
        assert first == (MemAccess(5, 32, False),)
        assert all(type(a) is MemAccess for a in first + second)
        assert first[0].line_addr == 5 and first[0].words == 32
        assert second[31] == MemAccess(line_addr=31, words=1, irregular=True)

    def test_line_boundary_split(self):
        # 32 words starting mid-line straddle two lines.
        addrs = (np.arange(32) * WORD_SIZE) + LINE_SIZE // 2
        accs = coalesce(addrs)
        assert len(accs) == 2
        assert sum(a.words for a in accs) == 32
