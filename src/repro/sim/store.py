"""Content-addressed on-disk store for simulation results.

Every evaluation artifact (figures 7-11, the report, the benchmark suite)
is a grid of (workload, configuration) simulations.  The store memoizes
each cell on disk, keyed by a stable SHA-256 of everything that determines
the outcome:

* the workload name,
* the configuration name *and* the full base :class:`SystemConfig`
  (so ``--sms``/``--nsu-mhz``/``--ro-cache`` overrides produce distinct
  keys),
* the scale preset (or custom :class:`~repro.workloads.base.Scale`),
* ``max_cycles``,
* a code-version salt (:data:`CODE_VERSION_SALT`) bumped whenever the
  simulator's semantics change, which invalidates every prior entry.

Entries are one JSON file each under ``root/<key[:2]>/<key>.json``, written
atomically (temp file + rename) so a killed run never leaves a torn entry.
Corrupted or stale-schema entries are treated as misses and deleted.

Concurrent writers are safe by construction: the write-then-rename means a
reader either sees no entry or a complete one, and two processes racing
the same key converge on identical bytes (the simulator is deterministic).

The simulator is deterministic (seeded RNG, integer-time engine), so a
stored cell is byte-for-byte equivalent to re-simulating it.

Key-reuse audit (who shares keys with whom)
-------------------------------------------

Four producers write through :func:`cell_key` and must stay coherent:

* sweeps/figures (:class:`~repro.analysis.figures.ExperimentRunner`)
  use the **plain** key -- no extra salt;
* single runs (``repro.api.run``) write the **plain** key too, for an
  unfaulted, uninstrumented run whose audit (if any) passed.  Both
  simulate through :func:`~repro.sim.runner.run_cell`, which keeps the
  audit verdict beside the result, so an entry is the same result
  whichever producer wrote it;
* chaos grids salt the key with the fault-plan fingerprint
  (``ExperimentRunner.chaos_store_key``) because a faulted result is a
  different outcome for the same inputs;
* design-space exploration (:mod:`repro.explore`) **deliberately reuses
  the plain key**: a candidate materializes to an ordinary
  ``(config name, base config)`` cell, so explore runs dedupe against
  each other, across agents, and against any sweep or figure that ever
  visited the same configuration.  Anything that would make the same
  key yield a different result (a new scheduler mode, a new workload
  parameter) must therefore go *into* the key -- or bump
  :data:`CODE_VERSION_SALT` -- never be left out "because only explore
  uses it".

One sanctioned exception: :func:`config_fingerprint` strips the
``backend``/``cxl`` fields when ``backend == "hmc"``.  The hmc substrate
is bit-identical to the pre-backend simulator, so pre-existing store
entries stay valid; any non-hmc backend keeps both fields in the key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time

from repro.config import SystemConfig
from repro.sim.results import RunResult
from repro.sim.serialize import result_from_dict, result_to_dict

#: Bump to invalidate every stored result after a semantic simulator change.
CODE_VERSION_SALT = "ndp-sim-v1"

#: Store format version; entries with a different version are misses.
STORE_FORMAT = 1


def config_fingerprint(cfg: SystemConfig) -> str:
    """Canonical JSON of the full configuration tree.

    Back-compat rule for the memory-backend fields: on the default
    ``backend="hmc"`` substrate, ``backend`` and the (then irrelevant)
    ``cxl`` parameter block are stripped from the fingerprint, so every
    key minted before the backend abstraction existed still resolves to
    the same entry.  Non-default backends keep both fields, which is
    what separates their keys from the hmc ones.
    """
    d = dataclasses.asdict(cfg)
    if d.get("backend", "hmc") == "hmc":
        d.pop("backend", None)
        d.pop("cxl", None)
    return json.dumps(d, sort_keys=True)


def _scale_token(scale) -> str:
    """Stable token for a scale preset name or a custom Scale object."""
    if isinstance(scale, str):
        return scale
    if dataclasses.is_dataclass(scale):
        return json.dumps(dataclasses.asdict(scale), sort_keys=True)
    return repr(scale)


def cell_key(workload: str, config_name: str, base: SystemConfig,
             scale, max_cycles: int,
             salt: str = CODE_VERSION_SALT) -> str:
    """SHA-256 key of one (workload, config) simulation cell."""
    payload = "\n".join([
        salt,
        workload,
        config_name,
        config_fingerprint(base),
        _scale_token(scale),
        str(max_cycles),
    ])
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultStore:
    """A directory of content-addressed :class:`RunResult` entries."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(os.path.expanduser(str(root)))
        os.makedirs(self.root, exist_ok=True)
        # Concurrency contract: stores are shared *across processes* via
        # atomic renames, never via locks -- each thread/process binds
        # its own ResultStore.  The counters below are per-instance
        # diagnostics, not shared state.
        self.hits = 0     # guarded-by: none -- per-instance diagnostic
        self.misses = 0   # guarded-by: none -- per-instance diagnostic
        self.corrupt = 0  # guarded-by: none -- per-instance diagnostic

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # -- read ---------------------------------------------------------------

    def get(self, key: str) -> RunResult | None:
        """Load a stored result, or None.  A corrupted, truncated or
        stale-format entry counts as a miss and is removed."""
        path = self._path(key)
        try:
            with open(path) as f:
                payload = json.load(f)
            if (payload.get("format") != STORE_FORMAT
                    or payload.get("key") != key):
                raise ValueError("stale or mismatched entry")
            result = result_from_dict(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            self.corrupt += 1
            self.misses += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    # -- write --------------------------------------------------------------

    def put(self, key: str, result: RunResult,
            meta: dict | None = None) -> str:
        """Atomically persist one result; returns the entry path."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "format": STORE_FORMAT,
            "key": key,
            "salt": CODE_VERSION_SALT,
            # lint: ignore[DET005] -- store metadata only; never read
            # back into a RunResult
            "created": time.time(),
            "meta": {"workload": result.workload,
                     "config": result.config_name, **(meta or {})},
            "result": result_to_dict(result),
        }
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(payload, f)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        return path

    # -- maintenance --------------------------------------------------------

    def _entry_paths(self) -> list[str]:
        out = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for fn in filenames:
                if fn.endswith(".json"):
                    out.append(os.path.join(dirpath, fn))
        return sorted(out)

    def ls(self) -> list[dict]:
        """Metadata of every entry: key, workload, config, age, size."""
        out = []
        for path in self._entry_paths():
            entry = {"key": os.path.basename(path)[:-len(".json")],
                     "size_bytes": os.path.getsize(path)}
            try:
                with open(path) as f:
                    payload = json.load(f)
                entry.update(payload.get("meta", {}))
                entry["created"] = payload.get("created")
                entry["salt"] = payload.get("salt")
            except Exception:
                entry["corrupt"] = True
            out.append(entry)
        return out

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        n = 0
        for path in self._entry_paths():
            try:
                os.remove(path)
                n += 1
            except OSError:
                pass
        return n

    def __len__(self) -> int:
        return len(self._entry_paths())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultStore({self.root!r}, entries={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")

