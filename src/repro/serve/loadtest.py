"""``repro loadtest``: hammer a serve daemon with seeded mixed traffic.

The schedule is deterministic for a given seed: each of ``clients``
concurrent clients issues ``requests`` requests -- a **shared** prefix
of duplicate cells (every client asks for the same cells, lining up on
a barrier before *each* one so the duplicates pile onto the in-flight
job and coalesce) followed by a seeded-shuffled tail of cells unique to
that client.  ``duplicates`` sets the shared fraction; ``mix`` can swap
some unique slots for sweep/chaos/explore requests to exercise every
endpoint.  Cells are distinguished by their ``max_cycles`` (part of the
store key), so unique cells cost the same wall-clock as duplicates.

The report is one JSON-able dict: throughput, client-side latency
percentiles (``latency_ms`` over served requests and
``rejected_latency_ms`` over rejected ones, so a run that sheds load does
not report its fast 503s as its typical latency), per-source response
counts, the coalesce-hit and rate-limit deltas read from ``/v1/stats``,
and the raw per-request records.  ``expected_duplicates`` is
``shared * (clients - 1)`` -- with a cold store every one of those must
be served without a fresh simulation (coalesced, or warm from the hot
set/store if it arrived after the first completion).
"""

from __future__ import annotations

import json
import math
import threading
import time

from repro.serve.client import ServeClient, ServeError

__all__ = ["build_schedule", "latency_split", "run_loadtest"]


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)
    return sorted_values[min(idx, len(sorted_values) - 1)]


def _latency_summary(values: list[float]) -> dict:
    lat = sorted(values)
    return {
        "p50": _percentile(lat, 50), "p90": _percentile(lat, 90),
        "p99": _percentile(lat, 99),
        "mean": (sum(lat) / len(lat)) if lat else 0.0,
        "max": lat[-1] if lat else 0.0,
    }


def latency_split(records: list[dict]) -> dict:
    """Latency percentiles of the served (``ok``) records as
    ``latency_ms``, and of the rejected ones as ``rejected_latency_ms``."""
    return {
        "latency_ms": _latency_summary(
            [r["latency_ms"] for r in records if r["ok"]]),
        "rejected_latency_ms": _latency_summary(
            [r["latency_ms"] for r in records if not r["ok"]]),
    }


def _grid_payloads(scale: str, max_cycles: int) -> dict:
    """Tiny non-run payloads for the mixed schedule (one config / one
    rate each, so they stay cheap at ci scale)."""
    return {
        "sweep": {"kind": "sweep", "workload": "VADD",
                  "configs": ["Baseline", "NDP(Dyn)"],
                  "scale": scale, "max_cycles": max_cycles},
        "chaos": {"kind": "chaos", "scenario": "rdf-drop",
                  "rates": [0.0, 0.01], "configs": ["NDP(Dyn)"],
                  "workloads": ["VADD"], "scale": scale,
                  "max_cycles": max_cycles},
        "explore": {"kind": "explore", "workload": "VADD", "space": "tiny",
                    "generations": 1, "population": 2, "seed": 0,
                    "scale": scale, "max_cycles": max_cycles},
    }


def build_schedule(*, clients: int, requests: int, duplicates: float,
                   seed: int, workload: str, config: str, scale: str,
                   max_cycles: int, mix: str = "run") -> list[list[dict]]:
    """One request list per client.  Deterministic per seed.

    Each non-run kind in ``mix`` replaces one unique slot: kind ``i``
    goes to client ``i % clients``, in slot ``i // clients`` counted from
    the end.  Raises ``ValueError`` for an unknown kind, or when the
    unique slots cannot hold every kind."""
    import numpy as np

    clients = max(1, int(clients))
    requests = max(1, int(requests))
    shared = min(requests, max(0, round(requests * float(duplicates))))
    unique = requests - shared
    # Seed shifts the cell identities so back-to-back loadtests against a
    # warm store still exercise fresh cells (max_cycles is key material;
    # ci workloads finish far below any of these caps, so runtime is
    # unchanged).
    base = int(max_cycles) + (int(seed) % 997) * 100_000
    rng = np.random.default_rng((int(seed), 0x10AD))

    def run_payload(cell: int, shared_cell: bool) -> dict:
        return {"kind": "run", "workload": workload, "config": config,
                "scale": scale, "max_cycles": base + cell,
                "cell": f"{'shared' if shared_cell else 'unique'}-{cell}"}

    kinds = [k.strip() for k in mix.split(",") if k.strip()]
    extras = [k for k in kinds if k != "run"]
    grid = _grid_payloads(scale, int(max_cycles))
    unknown = [k for k in extras if k not in grid]
    if unknown:
        raise ValueError(f"unknown job kind(s) {', '.join(unknown)} in mix; "
                         f"choose from run, {', '.join(grid)}")
    if len(extras) > clients * unique:
        raise ValueError(f"mix needs {len(extras)} unique slot(s) for "
                         f"{', '.join(extras)}, but {clients} client(s) x "
                         f"{unique} unique request(s) give "
                         f"{clients * unique}")
    schedules: list[list[dict]] = []
    for c in range(clients):
        plan = [run_payload(j, True) for j in range(shared)]
        own = [run_payload(1000 + c * unique + j, False)
               for j in range(unique)]
        for i, kind in enumerate(extras):
            if i % clients == c:
                own[-1 - i // clients] = dict(grid[kind], cell=f"{kind}-0")
        order = rng.permutation(len(own))
        plan.extend(own[i] for i in order)
        schedules.append(plan)
    return schedules


def run_loadtest(*, url: str, clients: int = 8, requests: int = 4,
                 duplicates: float = 0.5, seed: int = 0,
                 workload: str = "VADD", config: str = "Baseline",
                 scale: str = "ci", max_cycles: int = 2_000_000,
                 mix: str = "run", out: str | None = None,
                 progress=None) -> dict:
    """Run the schedule against ``url`` and return the report dict."""
    schedules = build_schedule(
        clients=clients, requests=requests, duplicates=duplicates,
        seed=seed, workload=workload, config=config, scale=scale,
        max_cycles=max_cycles, mix=mix)
    shared = sum(1 for p in schedules[0] if str(p.get("cell", "")
                                               ).startswith("shared"))
    admin = ServeClient(url, client_id="loadtest-admin")
    stats_before = admin.stats()

    barrier = threading.Barrier(len(schedules))
    records: list[list[dict]] = [[] for _ in schedules]

    def client_main(idx: int) -> None:
        cl = ServeClient(url, client_id=f"loadtest-{idx}")
        for payload in schedules[idx]:
            payload = dict(payload)
            kind = payload.pop("kind")
            cell = payload.pop("cell", "")
            if cell.startswith("shared"):
                # A duplicate only counts as a coalesce hit if it lands
                # while its twin job is in flight, so every client lines
                # up before each shared cell (a straggler would otherwise
                # arrive after completion and be absorbed warm instead).
                try:
                    barrier.wait(timeout=120.0)
                except threading.BrokenBarrierError:
                    pass
            t0 = time.perf_counter()
            try:
                resp = cl.request("POST", f"/v1/{kind}", payload)
                rec = {"ok": True, "status": 200, "kind": kind,
                       "cell": cell, "source": resp.get("source"),
                       "coalesced": bool(resp.get("coalesced")),
                       "store_key": resp.get("store_key")}
            except ServeError as e:
                rec = {"ok": False, "status": e.status, "kind": kind,
                       "cell": cell, "error": e.body.get("error"),
                       "retry_after": e.retry_after}
            rec["latency_ms"] = (time.perf_counter() - t0) * 1000.0
            records[idx].append(rec)

    threads = [threading.Thread(target=client_main, args=(i,), daemon=True,
                                name=f"loadtest-{i}")
               for i in range(len(schedules))]
    t_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = max(time.perf_counter() - t_start, 1e-9)
    stats_after = admin.stats()

    flat = [r for per_client in records for r in per_client]
    completed = [r for r in flat if r["ok"]]
    rejected: dict[str, int] = {}
    for r in flat:
        if not r["ok"]:
            k = str(r["status"])
            rejected[k] = rejected.get(k, 0) + 1
    sources: dict[str, int] = {}
    for r in completed:
        s = str(r.get("source"))
        sources[s] = sources.get(s, 0) + 1
    # Exactly-once evidence: a response is a *fresh* simulation only when
    # it simulated AND was not a coalesced share of someone else's job.
    run_ok = [r for r in completed if r["kind"] == "run"]
    simulated_cells = sum(1 for r in run_ok
                          if r.get("source") == "simulated"
                          and not r.get("coalesced"))
    distinct_cells = len({r.get("store_key") for r in run_ok
                          if r.get("store_key")})
    coalesce_hits = (stats_after.get("coalesce_hits", 0)
                     - stats_before.get("coalesce_hits", 0))
    rate_limited = (stats_after.get("rate_limited", 0)
                    - stats_before.get("rate_limited", 0))
    report = {
        "url": url, "seed": seed, "clients": len(schedules),
        "requests_per_client": requests, "duplicate_fraction": duplicates,
        "mix": mix, "total_requests": len(flat),
        "completed": len(completed), "rejected": rejected,
        "shared_cells": shared,
        "expected_duplicates": shared * (len(schedules) - 1),
        "simulated_cells": simulated_cells,
        "distinct_cells": distinct_cells,
        "coalesce_hits": coalesce_hits,
        "rate_limited": rate_limited,
        "worker_restarts": stats_after.get("worker_restarts", 0),
        "throughput_rps": len(completed) / wall,
        "wall_seconds": wall,
        **latency_split(flat),
        "sources": sources,
        "records": flat,
    }
    if progress is not None:
        progress(f"loadtest: {report['completed']}/{report['total_requests']}"
                 f" ok, {coalesce_hits} coalesced, "
                 f"{report['throughput_rps']:.1f} req/s, "
                 f"p99 {report['latency_ms']['p99']:.0f} ms")
    if out:
        with open(out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
    return report
