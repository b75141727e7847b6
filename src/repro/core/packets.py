"""Offload packet formats and byte-size accounting (paper Figure 4).

Every NDP packet starts with the *offload packet ID* -- (SM id, warp id,
sequence number) -- plus routing/type fields, which we lump into the fixed
``PKT_HEADER``.  The helpers below compute wire sizes for each packet type;
the simulator charges these bytes to the links a packet traverses.

The command/ACK packets carry register context only when the offload block
has live-ins/live-outs (the shaded fields of Figure 4(a)); RDF/WTA packets
carry per-thread offsets only for misaligned accesses (Figure 4(b)); RDF
response packets carry only the words actually touched by active threads
(Figure 4(c)) -- the source of the divergence bandwidth saving of
Section 4.4.
"""

from __future__ import annotations

from repro.config import ADDR_SIZE, LINE_SIZE, PKT_HEADER, REG_SIZE, WORD_SIZE


class PacketSizes:
    """Wire-size computation for every message class in the system."""

    #: Active-thread-mask field (32 threads -> 4 bytes).
    MASK = 4
    #: Start-PC field of the offload command packet.
    PC = 8

    # -- NDP packets (Figure 4) ------------------------------------------------

    @staticmethod
    def offload_cmd(num_send_regs: int, active_threads: int) -> int:
        """Offload command packet: header + PC + mask [+ register data]."""
        return (PKT_HEADER + PacketSizes.PC + PacketSizes.MASK
                + num_send_regs * REG_SIZE * active_threads)

    @staticmethod
    def rdf_request(irregular: bool, words: int) -> int:
        """Read-and-forward request: header + base address [+ offsets]."""
        return PKT_HEADER + ADDR_SIZE + PacketSizes.MASK + (
            words if irregular else 0)

    @staticmethod
    def wta(irregular: bool, words: int) -> int:
        """Write-address packet: same layout as an RDF request."""
        return PacketSizes.rdf_request(irregular, words)

    @staticmethod
    def rdf_response(words: int) -> int:
        """RDF response: header + only the touched words (Section 4.4)."""
        return PKT_HEADER + PacketSizes.MASK + words * WORD_SIZE

    @staticmethod
    def offload_ack(num_ret_regs: int, active_threads: int) -> int:
        """Offload acknowledgment: header [+ returned register data]."""
        return PKT_HEADER + num_ret_regs * REG_SIZE * active_threads

    @staticmethod
    def ndp_write(words: int) -> int:
        """NSU -> vault write: header + address + data words."""
        return PKT_HEADER + ADDR_SIZE + words * WORD_SIZE

    @staticmethod
    def write_ack() -> int:
        """Vault -> NSU write acknowledgment."""
        return PKT_HEADER

    @staticmethod
    def invalidation() -> int:
        """Vault -> GPU cache invalidation message (Section 4.2)."""
        return PKT_HEADER

    # -- baseline memory messages (Figure 2(a)) ---------------------------------

    @staticmethod
    def mem_read_request() -> int:
        return PKT_HEADER + ADDR_SIZE

    @staticmethod
    def mem_read_response() -> int:
        """Baseline read responses always carry the full cache line."""
        return PKT_HEADER + LINE_SIZE

    @staticmethod
    def mem_write(words: int) -> int:
        """Write-through store: header + address + written words."""
        return PKT_HEADER + ADDR_SIZE + words * WORD_SIZE


#: Which fault-injection site each packet kind traverses (the
#: ``repro.faults.plan.PACKET_SITES`` vocabulary).  GPU-sourced packets
#: ride the downstream GPU links, HMC-sourced replies ride upstream, and
#: inter-HMC forwarding rides the memory network.  ``repro lint``
#: (PROTO001) checks that every :class:`PacketSizes` method has an entry
#: here, that every entry names a real method, and that every site is a
#: declared packet site -- so a new packet kind cannot ship without
#: deciding where faults can kill it.
PACKET_FAULT_SITES = {
    "offload_cmd": "gpu_link_down",
    "rdf_request": "gpu_link_down",
    "wta": "gpu_link_down",
    "mem_read_request": "gpu_link_down",
    "mem_write": "gpu_link_down",
    "rdf_response": "mem_net",
    "ndp_write": "mem_net",
    "write_ack": "mem_net",
    "offload_ack": "gpu_link_up",
    "invalidation": "gpu_link_up",
    "mem_read_response": "gpu_link_up",
}
