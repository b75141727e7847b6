"""Hypercube topology over the HMC stacks (Section 5: "3D hypercube topology
to interconnect 8 HMCs, using 3 links per HMC").

Node IDs are stack indices; two stacks are connected iff their IDs differ in
exactly one bit.  Routing is deterministic dimension-order (fix bit 0 first),
which is minimal and deadlock-free on a hypercube.
"""

from __future__ import annotations


def hypercube_topology(num_nodes: int) -> list[tuple[int, int]]:
    """The hypercube's links for ``num_nodes`` stacks: the sorted pairs
    ``(u, u ^ 1 << d)`` with ``u`` below its peer."""
    if num_nodes < 1 or num_nodes & (num_nodes - 1):
        raise ValueError("hypercube needs a power-of-two node count")
    links = []
    for u in range(num_nodes):
        for d in range(num_nodes.bit_length() - 1):
            peer = u ^ 1 << d
            if peer > u:
                links.append((u, peer))
    return sorted(links)


def dimension_order_path(src: int, dst: int) -> list[int]:
    """Minimal dimension-order route from ``src`` to ``dst`` (inclusive)."""
    if src < 0 or dst < 0:
        raise ValueError("node ids must be non-negative")
    path = [src]
    cur = src
    diff = src ^ dst
    d = 0
    while diff:
        if diff & 1:
            cur ^= 1 << d
            path.append(cur)
        diff >>= 1
        d += 1
    return path
