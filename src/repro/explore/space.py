"""Declarative search spaces over :class:`~repro.config.SystemConfig`.

A :class:`SearchSpace` names the architecture knobs the paper opens up
(NSU frequency, NDP buffer/credit sizes, link widths, stack count,
offload policy/threshold), the discrete values each may take, and the
validity constraints between them.  Search agents
(:mod:`repro.explore.agents`) operate on *points* -- plain
``{knob_name: value}`` dicts -- and the space turns a valid point into
the ``(config_name, SystemConfig)`` pair the simulator understands.

Two kinds of knob exist:

* **config knobs** carry an ``apply(cfg, value) -> SystemConfig``
  callable and rewrite the base configuration (frozen dataclasses, so
  appliers are ``dataclasses.replace`` chains);
* at most one **offload knob** (``apply=None``) selects the *named*
  configuration variant (``"NDP(Dyn)"``, ``"NDP(0.8)"``, ...) so a
  candidate's offload policy/threshold rides the same
  :func:`~repro.sim.runner.make_config` path as every sweep -- and
  therefore the same store keys (see ``docs/design-space.md``).

The full contract (point encoding, constraint semantics, fingerprint
stability) is documented in ``docs/design-space.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

from repro.config import SystemConfig, paper_config
from repro.sim.runner import make_config

__all__ = ["Constraint", "Knob", "SPACES", "SearchSpace", "backends_space",
           "default_space", "resolve_space", "tiny_space"]


@dataclass(frozen=True)
class Knob:
    """One discrete design axis: a name, its legal values, and how a
    value rewrites the base config (``apply=None`` marks the offload
    knob, whose values are named configuration variants)."""

    name: str
    values: tuple
    apply: Callable[[SystemConfig, object], SystemConfig] | None = None
    unit: str = ""

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"knob {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"knob {self.name!r} has duplicate values")


@dataclass(frozen=True)
class Constraint:
    """A validity predicate over a full point.  ``check`` returns True
    when the point is legal; violated constraints are reported by name
    so trajectories record *why* a candidate was rejected."""

    name: str
    check: Callable[[dict], bool]
    description: str = ""


@dataclass(frozen=True)
class SearchSpace:
    """An ordered set of knobs plus cross-knob constraints over a base
    :class:`SystemConfig`."""

    knobs: tuple[Knob, ...]
    constraints: tuple[Constraint, ...] = ()
    base: SystemConfig = field(default_factory=paper_config)
    name: str = "custom"

    def __post_init__(self) -> None:
        names = [k.name for k in self.knobs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate knob names in {names}")
        offload = [k for k in self.knobs if k.apply is None]
        if len(offload) > 1:
            raise ValueError("at most one offload (config-name) knob")

    # -- shape ---------------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(k.name for k in self.knobs)

    @property
    def size(self) -> int:
        """Number of raw points (valid and invalid)."""
        n = 1
        for k in self.knobs:
            n *= len(k.values)
        return n

    def knob(self, name: str) -> Knob:
        for k in self.knobs:
            if k.name == name:
                return k
        raise KeyError(f"unknown knob {name!r}; choose from {self.names}")

    # -- points --------------------------------------------------------------

    def point_key(self, point: dict) -> tuple:
        """Canonical identity of a point: its values in knob order."""
        return tuple(point[k.name] for k in self.knobs)

    def point_from_indices(self, indices) -> dict:
        return {k.name: k.values[i] for k, i in zip(self.knobs, indices)}

    def indices(self, point: dict) -> tuple[int, ...]:
        return tuple(k.values.index(point[k.name]) for k in self.knobs)

    def violations(self, point: dict) -> list[str]:
        """Names of everything wrong with ``point``: missing/unknown
        knobs, off-menu values, then failed constraints."""
        out: list[str] = []
        for k in self.knobs:
            if k.name not in point:
                out.append(f"missing:{k.name}")
            elif point[k.name] not in k.values:
                out.append(f"off-menu:{k.name}")
        if out:
            return out
        extra = sorted(set(point) - set(self.names))
        if extra:
            return [f"unknown:{n}" for n in extra]
        for c in self.constraints:
            if not c.check(point):
                out.append(f"constraint:{c.name}")
        return out

    def valid(self, point: dict) -> bool:
        return not self.violations(point)

    def random_point(self, rng, max_tries: int = 64) -> dict:
        """A uniformly drawn *valid* point (bounded rejection sampling;
        raises if the constraints reject every try)."""
        for _ in range(max_tries):
            point = {k.name: k.values[int(rng.integers(len(k.values)))]
                     for k in self.knobs}
            if self.valid(point):
                return point
        raise ValueError(
            f"no valid point found in {max_tries} draws; are the "
            f"constraints of space {self.name!r} satisfiable?")

    def neighbors(self, point: dict) -> list[dict]:
        """All valid single-knob steps (value index +/-1), in knob
        order, minus-step first -- the hill climber's move set."""
        out: list[dict] = []
        idx = self.indices(point)
        for pos, k in enumerate(self.knobs):
            for delta in (-1, +1):
                j = idx[pos] + delta
                if not 0 <= j < len(k.values):
                    continue
                cand = dict(point)
                cand[k.name] = k.values[j]
                if self.valid(cand):
                    out.append(cand)
        return out

    # -- materialization -----------------------------------------------------

    def materialize(self, point: dict) -> tuple[str, SystemConfig]:
        """Turn a valid point into ``(config_name, base_config)`` -- the
        pair :func:`repro.sim.runner.build_system` (and the store key)
        consumes.  The offload knob picks the named variant; every other
        knob rewrites the base."""
        viol = self.violations(point)
        if viol:
            raise ValueError(f"invalid point {point}: {viol}")
        cfg = self.base
        config_name = "NDP(Dyn)"
        for k in self.knobs:
            if k.apply is None:
                config_name = point[k.name]
            else:
                cfg = k.apply(cfg, point[k.name])
        make_config(config_name, cfg)  # fail fast on an unknown variant
        return config_name, cfg

    # -- identity ------------------------------------------------------------

    def spec(self) -> dict:
        """The JSON-able description stamped into trajectory metadata."""
        return {
            "name": self.name,
            "knobs": {k.name: list(k.values) for k in self.knobs},
            "constraints": [c.name for c in self.constraints],
            "base": dataclasses.asdict(self.base),
        }

    def fingerprint(self) -> str:
        """SHA-256 of the spec: knob names+values, constraint names and
        the full base config.  Appliers are assumed to be determined by
        the knob name (true for the named spaces below); ``--resume``
        refuses on a fingerprint mismatch."""
        payload = json.dumps(self.spec(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Named spaces
# ---------------------------------------------------------------------------

def _set_nsu(cfg: SystemConfig, **kw) -> SystemConfig:
    return dataclasses.replace(cfg, nsu=dataclasses.replace(cfg.nsu, **kw))


def _knob_nsu_mhz() -> Knob:
    return Knob("nsu_mhz", (175.0, 350.0, 700.0),
                lambda cfg, v: cfg.with_nsu_clock(v), unit="MHz")


def _knob_read_buf(values: tuple) -> Knob:
    # Read-data and write-address buffers are sized together, as in the
    # paper's Table 2 (256 entries each).
    return Knob("nsu_read_buf", values,
                lambda cfg, v: _set_nsu(cfg, read_data_entries=v,
                                        write_addr_entries=v),
                unit="entries")


def _knob_gpu_link(values: tuple) -> Knob:
    return Knob("gpu_link_gbps", values,
                lambda cfg, v: dataclasses.replace(
                    cfg, gpu=dataclasses.replace(cfg.gpu,
                                                 link_gbps_per_dir=v)),
                unit="GB/s")


def default_space(base: SystemConfig | None = None) -> SearchSpace:
    """The ROADMAP item-1 space: every axis the paper's Section 7
    sensitivity studies touch, swept jointly.  5832 raw points."""
    return SearchSpace(
        name="default",
        base=base or paper_config(),
        knobs=(
            Knob("offload", ("NDP(Dyn)", "NDP(Dyn)_Cache",
                             "NDP(0.4)", "NDP(0.8)")),
            _knob_nsu_mhz(),
            _knob_read_buf((128, 256, 512)),
            Knob("nsu_cmd_buf", (5, 10, 20),
                 lambda cfg, v: _set_nsu(cfg, cmd_buffer_entries=v),
                 unit="entries"),
            Knob("sm_pending", (150, 300, 600),
                 lambda cfg, v: dataclasses.replace(
                     cfg, sm_buffers=dataclasses.replace(
                         cfg.sm_buffers, pending_entries=v)),
                 unit="entries"),
            _knob_gpu_link((10.0, 20.0, 40.0)),
            Knob("mem_link_gbps", (10.0, 20.0, 40.0),
                 lambda cfg, v: dataclasses.replace(
                     cfg, hmc=dataclasses.replace(cfg.hmc,
                                                  link_gbps_per_dir=v)),
                 unit="GB/s"),
            Knob("num_hmcs", (4, 8),
                 lambda cfg, v: dataclasses.replace(cfg, num_hmcs=v)),
        ),
        constraints=(
            Constraint(
                "link-balance",
                lambda p: p["gpu_link_gbps"] <= 2 * p["mem_link_gbps"],
                "GPU off-chip links must not outrun the memory network "
                "by more than 2x: such cells only measure the injection "
                "queue, not the design"),
        ),
    )


def tiny_space(base: SystemConfig | None = None) -> SearchSpace:
    """A 16-point space for CI smoke and the test suite: small enough to
    exhaust in two generations, with one real constraint."""
    return SearchSpace(
        name="tiny",
        base=base or paper_config(),
        knobs=(
            Knob("offload", ("NDP(Dyn)", "NDP(0.8)")),
            Knob("nsu_mhz", (350.0, 700.0),
                 lambda cfg, v: cfg.with_nsu_clock(v), unit="MHz"),
            _knob_read_buf((128, 256)),
            _knob_gpu_link((20.0, 40.0)),
        ),
        constraints=(
            Constraint(
                "fast-links-need-buffers",
                lambda p: not (p["gpu_link_gbps"] >= 40.0
                               and p["nsu_read_buf"] <= 128),
                "doubled GPU links need the deeper RDF buffer or the "
                "NSU just back-pressures them"),
        ),
    )


def backends_space(base: SystemConfig | None = None) -> SearchSpace:
    """The comparative-substrate space (ISSUE 8): memory backend x
    target-selection policy x offload variant x NSU clock.  36 raw
    points -- small enough for an exhaustive sweep, wide enough to rank
    hmc-vs-cxl under each placement policy (docs/backends.md)."""
    return SearchSpace(
        name="backends",
        base=base or paper_config(),
        knobs=(
            Knob("offload", ("NDP(Dyn)", "NDP(Dyn)_Cache")),
            Knob("backend", ("hmc", "cxl"),
                 lambda cfg, v: cfg.with_backend(v)),
            Knob("target_policy", ("first", "optimal", "coda"),
                 lambda cfg, v: cfg.with_target_policy(v)),
            Knob("nsu_mhz", (350.0, 700.0, 1400.0),
                 lambda cfg, v: cfg.with_nsu_clock(v), unit="MHz"),
        ),
    )


#: Named space registry (the CLI's ``--space`` choices).
SPACES: dict[str, Callable[..., SearchSpace]] = {
    "default": default_space,
    "tiny": tiny_space,
    "backends": backends_space,
}


def resolve_space(space=None, base: SystemConfig | None = None) -> SearchSpace:
    """Resolve ``space`` -- a :class:`SearchSpace`, a registry name, or
    None for the default -- against an optional base config override."""
    if isinstance(space, SearchSpace):
        return space
    if space is None:
        return default_space(base)
    try:
        factory = SPACES[space]
    except (KeyError, TypeError):
        raise KeyError(f"unknown search space {space!r}; choose from "
                       f"{sorted(SPACES)}") from None
    return factory(base)
