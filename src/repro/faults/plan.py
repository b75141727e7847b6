"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is a declarative description of the faults to inject
into one simulation: which *site* misbehaves (a fabric, the vault read
path, the NSU buffers, the credit-return channel), *how* (drop, delay,
corrupt), and *when* (a per-event probability or exact event indices).
Every probabilistic choice draws from a per-spec :class:`random.Random`
seeded from the plan seed, the site and the spec index, so a plan replays
identically across runs and processes.

Sites
-----

``mem_net``        inter-HMC packets (RDF response forwarding, NDP writes,
                   write acknowledgments)
``gpu_link_down``  GPU -> HMC packets (CMD, RDF requests, WTA, hit data)
``gpu_link_up``    HMC -> GPU packets (ACK, invalidations, memory fills)
``vault_read``     a vault read completes but its response is lost
``nsu_buffer``     an NSU read-data / write-address delivery is corrupted
                   (detected by ECC and discarded)
``credit``         a piggybacked credit-return message is lost

Plans optionally carry a :class:`RecoveryPolicy`; when present the NDP
controller arms ACK watchdogs and recovers via bounded replay and inline
fallback (see ``docs/fault-injection.md``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

#: Sites packets flow through (hooked in repro.network.fabric).
PACKET_SITES = ("mem_net", "gpu_link_down", "gpu_link_up")
#: All injectable sites.
SITES = PACKET_SITES + ("vault_read", "nsu_buffer", "credit")
#: Fault kinds.  Non-packet sites support "drop" (vault/credit) and
#: "corrupt" (nsu_buffer); corruption is detected and the delivery
#: discarded, so both degrade to a lost message with distinct counters.
KINDS = ("drop", "delay", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault source.

    A spec fires on an event at its site when the event index is listed
    in ``at_events`` or the event wins a ``rate`` coin flip.
    """

    site: str
    kind: str = "drop"
    rate: float = 0.0                 # per-event probability
    at_events: tuple[int, ...] = ()   # exact 1-based event indices
    delay_cycles: int = 200           # for kind == "delay"

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"choose from {SITES}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {KINDS}")
        if self.kind == "delay" and self.site not in PACKET_SITES:
            raise ValueError(f"site {self.site!r} cannot delay; only "
                             f"packet sites {PACKET_SITES} can")
        if self.kind == "delay" and self.delay_cycles <= 0:
            # Engine.after() rejects non-positive delays; fail at plan
            # construction instead of mid-simulation.
            raise ValueError(f"delay_cycles must be positive for delay "
                             f"faults, got {self.delay_cycles}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} outside [0, 1]")


#: Watchdog sites sharing one policy: "ack" guards offload instances on
#: the NDP controller, "mshr" guards baseline L2 fills on the GPU memory
#: system (see repro.sim.memsys).
WATCHDOG_SITES = ("ack", "mshr")


@dataclass(frozen=True)
class RecoveryPolicy:
    """Bounds and timeout model for both recovery layers.

    The two *sites* of the system's one
    :class:`~repro.faults.recovery.Watchdog` share one policy: ``"ack"``
    (offload ACK deadlines on the NDP controller) and ``"mshr"``
    (baseline L2-fill deadlines on the GPU memory system).
    ``timeout_for`` resolves the static deadline per site --
    ``site_timeouts`` overrides win, otherwise both sites fall back to
    ``ack_timeout``.  With ``adaptive`` set, the watchdog replaces the
    static deadline by ``timeout_scale`` times an EWMA of the site's
    observed completion latencies (floored at ``min_timeout``), so slow
    congested runs stop retrying healthy packets and fast runs detect
    losses sooner.  Deadlines are at least one cycle and retry bounds at
    least zero.
    """

    ack_timeout: int = 3000     # SM cycles without progress before acting
    max_retries: int = 3        # replay attempts before inline fallback
    mshr_max_retries: int = 12  # baseline fill reissues before giving up
    site_timeouts: tuple[tuple[str, int], ...] = ()  # (site, cycles) pairs
    adaptive: bool = False      # derive deadlines from observed latency
    ewma_alpha: float = 0.25    # smoothing for observed latencies
    timeout_scale: float = 4.0  # adaptive deadline = scale * EWMA latency
    min_timeout: int = 100      # adaptive deadlines never drop below this

    def __post_init__(self) -> None:
        # A zero deadline would fire in the cycle that armed it, and the
        # watchdog's poll would pop a re-armed entry again and again.
        for name, least in (("ack_timeout", 1), ("min_timeout", 1),
                            ("max_retries", 0), ("mshr_max_retries", 0)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, "
                                 f"got {value}")
        for site, cycles in self.site_timeouts:
            if site not in WATCHDOG_SITES:
                raise ValueError(f"unknown watchdog site {site!r}; "
                                 f"choose from {WATCHDOG_SITES}")
            if cycles <= 0:
                raise ValueError(f"timeout for {site!r} must be positive")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha {self.ewma_alpha} outside (0, 1]")
        if self.timeout_scale <= 0:
            raise ValueError("timeout_scale must be positive")

    def timeout_for(self, site: str) -> int:
        """Static deadline for ``site`` (override, else ``ack_timeout``)."""
        for name, cycles in self.site_timeouts:
            if name == site:
                return cycles
        return self.ack_timeout

    def with_site_timeout(self, site: str, cycles: int) -> RecoveryPolicy:
        """A copy with ``site``'s static deadline overridden."""
        kept = tuple((n, c) for n, c in self.site_timeouts if n != site)
        return replace(self, site_timeouts=kept + ((site, cycles),))


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of fault specs plus an optional recovery
    policy.  Immutable so one plan can parameterize many runs."""

    name: str
    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()
    recovery: RecoveryPolicy | None = field(default_factory=RecoveryPolicy)

    def fingerprint(self) -> str:
        """Stable content hash -- salts store cache keys so faulted
        results never collide with clean ones."""
        blob = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- scenario registry ---------------------------------------------------------

def _plan(name: str, seed: int, *specs: FaultSpec,
          recovery: RecoveryPolicy | None = None) -> FaultPlan:
    return FaultPlan(name=name, seed=seed, specs=tuple(specs),
                     recovery=recovery or RecoveryPolicy())


def _scenario_specs(rate: float) -> dict[str, tuple[FaultSpec, ...]]:
    return {
        # The flagship case: RDF responses forwarded over the memory
        # network vanish; the ACK watchdog replays the block.
        "rdf-drop": (FaultSpec("mem_net", "drop", rate=rate),),
        "rdf-delay": (FaultSpec("mem_net", "delay", rate=rate,
                                delay_cycles=500),),
        "link-corrupt": (FaultSpec("gpu_link_down", "corrupt", rate=rate),),
        "ack-drop": (FaultSpec("gpu_link_up", "drop", rate=rate),),
        "vault-read-loss": (FaultSpec("vault_read", "drop", rate=rate),),
        "nsu-corrupt": (FaultSpec("nsu_buffer", "corrupt", rate=rate),),
        # One credit-return message lost early in the run; recovery
        # reconciles the ledger when the victim instance completes.
        "credit-loss": (FaultSpec("credit", "drop", at_events=(1,)),),
        "mixed": (FaultSpec("mem_net", "drop", rate=rate),
                  FaultSpec("credit", "drop", at_events=(1,)),
                  FaultSpec("nsu_buffer", "corrupt", rate=rate / 2)),
    }


def scenario_names() -> tuple[str, ...]:
    return tuple(sorted(_scenario_specs(0.0)))


def get_scenario(name: str, *, rate: float = 0.01, seed: int = 0,
                 recovery: RecoveryPolicy | None = None) -> FaultPlan:
    """Build a named fault scenario parameterized by rate and seed."""
    table = _scenario_specs(rate)
    try:
        specs = table[name]
    except KeyError:
        raise KeyError(f"unknown fault scenario {name!r}; choose from "
                       f"{sorted(table)}") from None
    return _plan(f"{name}@{rate:g}", seed, *specs, recovery=recovery)
