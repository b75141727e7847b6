"""Target-NSU selection policies and the Figure 5 policy study.

The target NSU is chosen by the *first* memory instruction of the block:
the HMC receiving the most accesses from that instruction (Section 4.1.1).
The alternative -- picking the HMC with the most accesses over the *whole*
block -- is traffic-optimal but needs a buffer for every generated address,
so the paper rejects it after showing (Figure 5) the first-instruction
policy costs at most ~15% extra inter-stack traffic under random placement,
with the gap vanishing as blocks touch more memory.

A third policy, :func:`coda_target`, implements CODA-style compute/data
co-location (weight the write set).  :func:`select_target` dispatches
``cfg.ndp.target_policy`` to the three; none depends on the memory
substrate.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.config import LINE_SIZE
from repro.gpu.coalescer import MemAccess
from repro.memory.address import AddressMap


def _majority_hmc(counts: Counter) -> int:
    # Ties break toward the lower HMC id (deterministic hardware).
    best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
    return best[0]


def first_instr_target(first_accesses: tuple[MemAccess, ...],
                       amap: AddressMap) -> int:
    """Paper policy: HMC with the most accesses from the first LD/ST."""
    if not first_accesses:
        raise ValueError("first memory instruction has no accesses")
    hmc_of = amap.hmc_of
    return _majority_hmc(Counter(
        [hmc_of(a.line_addr * LINE_SIZE) for a in first_accesses]))


def optimal_target(all_accesses: tuple[tuple[MemAccess, ...], ...],
                   amap: AddressMap) -> int:
    """Oracle policy: HMC with the most accesses over the whole block."""
    hmc_of = amap.hmc_of
    counts = Counter([hmc_of(a.line_addr * LINE_SIZE)
                      for group in all_accesses for a in group])
    if not counts:
        raise ValueError("offload block has no memory accesses")
    return _majority_hmc(counts)


def coda_target(all_accesses: tuple[tuple[MemAccess, ...], ...],
                block, amap: AddressMap, write_weight: int = 2) -> int:
    """CODA-style co-location policy: weight the block's *write set*.

    CODA places compute next to the data it mutates: a store crosses the
    network twice on a miss (write-allocate fetch + writeback) and its
    line is the block's output, so co-locating with the majority of the
    write set keeps producer->consumer chains device-local.  We walk the
    block's GPU code to classify each memory instruction ("rdf" = load,
    "wta" = store -- :mod:`repro.isa.codegen`) and count every store
    access ``write_weight`` times in the majority vote.  Same
    deterministic low-id tie-break as the other policies.

    Falls back to plain majority (== ``optimal_target``) for read-only
    blocks, where co-location has nothing extra to say.
    """
    hmc_of = amap.hmc_of
    weighted: Counter = Counter()
    mem_seq = 0
    for inst in block.gpu_code:
        if inst.kind not in ("rdf", "wta"):
            continue
        group = all_accesses[mem_seq]
        mem_seq += 1
        weight = write_weight if inst.kind == "wta" else 1
        for a in group:
            weighted[hmc_of(a.line_addr * LINE_SIZE)] += weight
    if not weighted:
        raise ValueError("offload block has no memory accesses")
    return _majority_hmc(weighted)


def select_target(policy: str, item, amap: AddressMap) -> int:
    """The target device for one offload block instance under ``policy``
    ("first" / "optimal" / "coda", :data:`repro.config.TARGET_POLICIES`)."""
    if policy == "optimal":
        return optimal_target(item.mem_accesses, amap)
    if policy == "coda":
        return coda_target(item.mem_accesses, item.block, amap)
    return first_instr_target(item.mem_accesses[0], amap)


def block_traffic(all_accesses, target: int, amap: AddressMap) -> int:
    """Inter-stack line movements for a block executed on ``target``:
    every access whose owner is not the target crosses the network once."""
    hmc_of = amap.hmc_of
    return sum(hmc_of(a.line_addr * LINE_SIZE) != target
               for group in all_accesses for a in group)


def target_policy_traffic_study(
        num_hmcs: int = 8,
        access_counts=tuple(range(1, 65)),
        trials: int = 20_000,
        seed: int = 7) -> dict:
    """Monte-Carlo reproduction of Figure 5.

    Memory accesses within a block are mapped to HMCs uniformly at random
    (the paper's random 4 KB page mapping).  For each block size we compare
    the expected off-chip traffic of the first-access policy against the
    optimal policy, normalized so the worst case (every access remote)
    equals 1 -- matching the figure's "normalized amount of traffic" axis.

    Returns a dict with ``n_accesses``, ``first_policy``, ``optimal`` and
    ``ratio`` (first/optimal) arrays.
    """
    rng = np.random.default_rng(seed)
    ns, first_t, opt_t = [], [], []
    rows = np.arange(trials)
    for n in access_counts:
        draws = rng.integers(0, num_hmcs, size=(trials, n))
        # First policy: the target is the stack of the first access.
        first_target = draws[:, 0]
        remote_first = (draws != first_target[:, None]).sum(axis=1)
        # Optimal policy: the modal stack.
        counts = np.zeros((trials, num_hmcs), dtype=np.int64)
        for j in range(n):
            counts[rows, draws[:, j]] += 1
        opt_remote = n - counts.max(axis=1)
        ns.append(n)
        first_t.append(remote_first.mean() / n)
        opt_t.append(opt_remote.mean() / n)
    first_arr = np.asarray(first_t)
    opt_arr = np.asarray(opt_t)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(opt_arr > 0, first_arr / np.maximum(opt_arr, 1e-12),
                         1.0)
    return {
        "n_accesses": np.asarray(ns),
        "first_policy": first_arr,
        "optimal": opt_arr,
        "ratio": ratio,
    }
