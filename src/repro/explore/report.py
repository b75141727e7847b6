"""Exploration artifacts: ``best_configs.json`` and text tables.

``best_configs.json`` is the durable hand-off between an exploration run
and everything downstream (a follow-up sweep, a human).  It carries the
run's provenance (space name + fingerprint, workload, scale, fitness,
agent, seed) and the ``top_k`` entries with their content-addressed
store keys, so a consumer can both rebuild the winning configuration
*and* pull its cached result without re-simulating.  Deliberately
timestamp-free: two seeded runs write byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile

__all__ = ["format_best", "format_generations", "write_best_configs"]

BEST_KIND = "repro-explore-best"
BEST_VERSION = 1


def write_best_configs(outcome, path: str) -> str:
    """Atomically write the ``best_configs.json`` of an
    :class:`~repro.explore.driver.ExploreOutcome`; returns the path."""
    sp = outcome.space
    payload = {
        "kind": BEST_KIND,
        "version": BEST_VERSION,
        "space": {"name": sp.name, "fingerprint": sp.fingerprint()},
        "workload": outcome.workload,
        "scale": outcome.scale,
        "fitness": outcome.fitness,
        "agent": outcome.agent,
        "seed": outcome.seed,
        "max_cycles": outcome.max_cycles,
        "evaluated": outcome.stats.evaluated,
        "entries": outcome.best_entries,
    }
    out_dir = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(out_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def format_generations(outcome) -> str:
    """The per-generation fitness table ``repro explore`` prints."""
    lines = [f"{'gen':>4}  {'proposed':>8}  {'evaluated':>9}  "
             f"{'rejected':>8}  {'revisits':>8}  best " + outcome.fitness]
    for row in outcome.generation_rows:
        bf = (f"{row['best_fitness']:,.0f}"
              if row["best_fitness"] is not None else "n/a")
        lines.append(f"{row['gen']:>4}  {row['proposed']:>8}  "
                     f"{row['evaluated']:>9}  {row['rejected']:>8}  "
                     f"{row['revisits']:>8}  {bf}")
    return "\n".join(lines)


def format_best(outcome) -> str:
    """The top-k table: rank, config, fitness, and the knob settings."""
    lines = []
    for e in outcome.best_entries:
        knobs = ", ".join(f"{k}={v}" for k, v in sorted(e["point"].items()))
        lines.append(f"#{e['rank']}  {e['config']:<16} "
                     f"{outcome.fitness}={e['fitness']:,.0f}  ({knobs})")
    if not lines:
        lines.append("(no completed candidates -- every cell was fatal?)")
    return "\n".join(lines)
