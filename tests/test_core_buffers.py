"""Unit tests for the NSU's NDP buffers: one model, used as the
read-data buffer (counting words) and as the write-address buffer
(counting WTA packets and keeping their accesses)."""

import pytest

from repro.core.buffers import NDPBuffer
from repro.gpu.coalescer import MemAccess


KEY = (("uid",), 0)


class TestReadDataBuffer:
    def test_complete_after_all_words(self):
        b = NDPBuffer("read-data", 4)
        b.expect(KEY, 64)
        assert not b.complete(KEY)
        assert not b.deliver(KEY, 32)
        assert b.deliver(KEY, 32)
        assert b.complete(KEY)

    def test_delivery_before_expectation(self):
        # The GPU announces every entry before its first packet leaves,
        # so a delivery to an unannounced key is a protocol bug.
        b = NDPBuffer("read-data", 4)
        with pytest.raises(AssertionError, match=r"read-data .*\('uid',\)"):
            b.deliver(KEY, 8)
        assert len(b) == 0

    def test_consume_frees_entry(self):
        b = NDPBuffer("read-data", 1)
        b.expect(KEY, 4)
        b.deliver(KEY, 4)
        assert b.consume(KEY) == []
        assert len(b) == 0
        # capacity is available again
        b.expect((("uid",), 1), 4)

    def test_consume_incomplete_raises(self):
        b = NDPBuffer("read-data", 4)
        b.expect(KEY, 4)
        with pytest.raises(AssertionError):
            b.consume(KEY)

    def test_overflow_raises(self):
        b = NDPBuffer("read-data", 1)
        b.expect(KEY, 4)
        with pytest.raises(AssertionError, match="read-data buffer overflow"):
            b.expect((("uid",), 1), 4)

    def test_duplicate_expectation_raises(self):
        b = NDPBuffer("read-data", 2)
        b.expect(KEY, 4)
        with pytest.raises(AssertionError):
            b.expect(KEY, 8)

    def test_multiple_packets_merge(self):
        # Divergent load: 4 RDF responses with a few words each merge into
        # one read-data entry (Section 4.1.2).
        b = NDPBuffer("read-data", 4)
        b.expect(KEY, 10)
        done = [b.deliver(KEY, words) for words in (3, 3, 3, 1)]
        assert done == [False, False, False, True]
        b.consume(KEY)
        assert len(b) == 0


def acc(line):
    return MemAccess(line, 4, False)


class TestWriteAddressBuffer:
    def test_deliver_and_consume(self):
        # Entries occupy the buffer from the announcement and keep their
        # accesses in arrival order.
        b = NDPBuffer("write-address", 2)
        b.expect(KEY, 2)
        assert len(b) == 1 and not b.complete(KEY)
        assert not b.deliver(KEY, 1, acc(2))
        assert b.deliver(KEY, 1, acc(1))
        assert b.complete(KEY)
        got = b.consume(KEY)
        assert [a.line_addr for a in got] == [2, 1]
        assert not b.complete(KEY)

    def test_overflow_raises(self):
        b = NDPBuffer("write-address", 1)
        b.expect(KEY, 1)
        with pytest.raises(AssertionError,
                           match="write-address buffer overflow"):
            b.expect((KEY[0], 1), 1)

    def test_duplicate_raises(self):
        b = NDPBuffer("write-address", 2)
        b.expect(KEY, 1)
        with pytest.raises(AssertionError):
            b.expect(KEY, 1)

    def test_consume_missing_raises(self):
        b = NDPBuffer("write-address", 2)
        with pytest.raises(AssertionError):
            b.consume(KEY)

    def test_peak_tracking(self):
        b = NDPBuffer("write-address", 4)
        for i in range(3):
            b.expect((KEY[0], i), 1)
        b.deliver((KEY[0], 0), 1, acc(0))
        b.consume((KEY[0], 0))
        assert len(b) == 2
        assert b.peak == 3


class TestPurge:
    def test_purge_uid_returns_only_that_instances_items(self):
        b = NDPBuffer("write-address", 4)
        b.expect((("a",), 0), 2)
        b.expect((("b",), 0), 1)
        b.expect((("a",), 1), 1)
        b.deliver((("a",), 0), 1, acc(1))
        b.deliver((("b",), 0), 1, acc(9))
        b.deliver((("a",), 1), 1, acc(2))
        assert [a.line_addr for a in b.purge_uid(("a",))] == [1, 2]
        assert len(b) == 1 and b.complete((("b",), 0))
