"""Unit tests for packet sizes (Figure 4) and credit-based buffer
management (Section 4.3)."""

import pytest

from repro.config import ADDR_SIZE, LINE_SIZE, PKT_HEADER, REG_SIZE, WORD_SIZE
from repro.core.credit import CREDIT_RETURN_DELAY, BufferCreditManager
from repro.core.packets import PacketSizes
from repro.sim.engine import Engine


class TestPacketSizes:
    def test_cmd_without_registers(self):
        assert PacketSizes.offload_cmd(0, 32) == PKT_HEADER + 8 + 4

    def test_cmd_register_payload_scales_with_threads(self):
        base = PacketSizes.offload_cmd(0, 32)
        assert PacketSizes.offload_cmd(2, 32) == base + 2 * REG_SIZE * 32
        assert PacketSizes.offload_cmd(2, 8) == base + 2 * REG_SIZE * 8

    def test_rdf_request_aligned_vs_misaligned(self):
        aligned = PacketSizes.rdf_request(False, 32)
        misaligned = PacketSizes.rdf_request(True, 32)
        assert misaligned == aligned + 32  # per-thread offsets appended

    def test_rdf_response_only_touched_words(self):
        # Section 4.4: a divergent access touching 2 words ships 8 bytes,
        # not a 128B line.
        small = PacketSizes.rdf_response(2)
        assert small < PacketSizes.mem_read_response()
        assert small == PKT_HEADER + 4 + 2 * WORD_SIZE

    def test_baseline_response_full_line(self):
        assert PacketSizes.mem_read_response() == PKT_HEADER + LINE_SIZE

    def test_ack_sizes(self):
        assert PacketSizes.offload_ack(0, 32) == PKT_HEADER
        assert (PacketSizes.offload_ack(1, 32)
                == PKT_HEADER + REG_SIZE * 32)

    def test_wta_equals_rdf_request(self):
        assert PacketSizes.wta(False, 4) == PacketSizes.rdf_request(False, 4)

    def test_ndp_write(self):
        assert PacketSizes.ndp_write(3) == PKT_HEADER + ADDR_SIZE + 12

    def test_invalidation_small(self):
        assert PacketSizes.invalidation() == PKT_HEADER


def mk_mgr(engine=None, cmd=2, rd=8, wa=8, hmcs=2):
    e = engine or Engine()
    return e, BufferCreditManager(e, hmcs, cmd_entries=cmd,
                                  read_data_entries=rd, write_addr_entries=wa)


class TestCreditManager:
    def test_immediate_grant(self):
        e, m = mk_mgr()
        granted = []
        m.reserve(0, num_loads=2, num_stores=1,
                  on_grant=lambda: granted.append(1))
        assert granted == [1]
        assert m.available(0) == (1, 6, 7)

    def test_insufficient_credits_queue(self):
        e, m = mk_mgr(rd=3)
        order = []
        m.reserve(0, num_loads=3, num_stores=0, on_grant=lambda: order.append("a"))
        m.reserve(0, num_loads=1, num_stores=0, on_grant=lambda: order.append("b"))
        assert order == ["a"]
        assert m.queue_depth(0) == 1
        m.release(0, read_data=3)
        e.drain()
        assert order == ["a", "b"]

    def test_fifo_no_bypass(self):
        # A small reservation must NOT bypass a queued larger one
        # (bypass could starve the large block forever).
        e, m = mk_mgr(rd=4)
        order = []
        m.reserve(0, num_loads=4, num_stores=0, on_grant=lambda: order.append("big1"))
        m.reserve(0, num_loads=4, num_stores=0, on_grant=lambda: order.append("big2"))
        m.reserve(0, num_loads=1, num_stores=0, on_grant=lambda: order.append("small"))
        m.release(0, read_data=4, cmd=1)
        e.drain()
        assert order == ["big1", "big2"]
        m.release(0, read_data=4, cmd=1)
        e.drain()
        assert order == ["big1", "big2", "small"]

    def test_per_hmc_independence(self):
        e, m = mk_mgr(rd=1)
        got = []
        m.reserve(0, num_loads=1, num_stores=0, on_grant=lambda: got.append(0))
        m.reserve(1, num_loads=1, num_stores=0, on_grant=lambda: got.append(1))
        assert got == [0, 1]

    def test_oversized_block_rejected(self):
        e, m = mk_mgr(rd=4)
        with pytest.raises(ValueError):
            m.reserve(0, num_loads=5, num_stores=0, on_grant=lambda: None)

    def test_release_delay_models_credit_latency(self):
        e, m = mk_mgr(rd=1)
        got = []
        m.reserve(0, num_loads=1, num_stores=0, on_grant=lambda: got.append("a"))
        m.reserve(0, num_loads=1, num_stores=0, on_grant=lambda: got.append("b"))
        m.release(0, read_data=1)
        assert got == ["a"]
        e.drain()
        assert got == ["a", "b"]
        assert e.now == CREDIT_RETURN_DELAY

    def test_conservation_check(self):
        e, m = mk_mgr()
        m.release(0, cmd=1)   # spurious credit
        e.drain()
        with pytest.raises(AssertionError):
            m.assert_conserved()

    def test_granted_reservation_drops_its_callback(self):
        # The callback holds the offload instance, which holds the
        # reservation: keeping it after the grant would form a cycle.
        e, m = mk_mgr(rd=1)
        now = m.reserve(0, num_loads=1, num_stores=0, on_grant=lambda: None)
        later = m.reserve(0, num_loads=1, num_stores=0,
                          on_grant=lambda: None)
        assert now.granted and now.on_grant is None
        assert not later.granted and later.on_grant is not None
        m.release(0, read_data=1)
        e.drain()
        assert later.granted and later.on_grant is None

    def test_cancel_removes_the_given_reservation(self):
        # Two queued reservations with equal fields: cancel must remove
        # the one it is given, not the first equal one.
        e, m = mk_mgr(rd=1)
        order = []
        m.reserve(0, num_loads=1, num_stores=0, on_grant=lambda: None)

        def grant():
            order.append("granted")

        first = m.reserve(0, num_loads=1, num_stores=0, on_grant=grant)
        second = m.reserve(0, num_loads=1, num_stores=0, on_grant=grant)
        assert m.cancel(second)
        assert m.queue_depth(0) == 1
        m.release(0, read_data=1)
        e.drain()
        assert first.granted and not second.granted
        assert order == ["granted"]
        assert second.on_grant is None
        assert not m.cancel(second)

    def test_grant_consumes_cmd_credit(self):
        e, m = mk_mgr(cmd=1)
        got = []
        m.reserve(0, num_loads=0, num_stores=1, on_grant=lambda: got.append("a"))
        m.reserve(0, num_loads=0, num_stores=1, on_grant=lambda: got.append("b"))
        assert got == ["a"]   # cmd credit exhausted
        m.release(0, cmd=1)
        e.drain()
        assert got == ["a", "b"]
