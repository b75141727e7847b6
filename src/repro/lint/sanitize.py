"""Runtime lock sanitizer: the dynamic half of the CONC rule family.

Armed via ``REPRO_SANITIZE=1`` (or ``--sanitize`` on ``repro serve`` /
``repro loadtest``), :func:`install` instruments the serve stack's
lock-owning classes using the same per-class lock models the static
analyzer extracts (:func:`repro.lint.concurrency.build_manifest`):

* every ``threading.Lock``/``RLock`` attribute is wrapped in a
  :class:`SanitizedLock` proxy that tracks the owning thread, counts
  contended acquisitions, and checks every acquisition against the
  declared :data:`LOCK_ORDER` (outermost first) -- an out-of-order
  acquire raises :class:`LockOrderError` at the exact site a deadlock
  could form;
* every **guarded attribute** from the manifest gets a
  held-by-current-thread assertion on each read and write
  (:class:`GuardViolation` names the attribute, the lock and the
  thread).  This is what turns the static pass's ``*_locked`` and
  cross-object blind spots into checked behavior: a ``_pop_locked``
  called without the lock, or another object reaching into guarded
  state, fails the armed run immediately.

Checks are disabled inside ``__init__`` (no other thread can hold a
reference yet) and the whole shim is a no-op unless armed --- unarmed
runs execute the original classes untouched, keeping the pinned
bit-identical digests.

Counters are exposed via :func:`counters` as ``sanitize.*`` metrics
(``sanitize.guard_checks``, ``sanitize.acquires``,
``sanitize.contended``); the serve daemon folds them into its
``MetricsRegistry`` on shutdown.
"""

from __future__ import annotations

import os
import threading

__all__ = ["GuardViolation", "LockOrderError", "SanitizedLock", "armed",
           "counters", "install", "installed", "maybe_install", "reset",
           "uninstall", "LOCK_ORDER"]


class GuardViolation(AssertionError):
    """A guarded attribute was touched without its lock held."""


class LockOrderError(AssertionError):
    """A lock was acquired against the declared :data:`LOCK_ORDER`."""


#: The declared acquisition order, outermost first.  Production code
#: never nests these locks (admission acquires them strictly one at a
#: time), so any nesting that *does* appear is checked against this
#: order and an inversion raises rather than waiting to deadlock.
LOCK_ORDER = (
    "ServeDaemon._stop_lock",
    "JobQueue._lock",
    "Coalescer._lock",
    "TokenBucket._lock",
    "_HotSet._lock",
)

#: Modules whose lock-owning classes are instrumented when armed.
TARGET_MODULES = ("repro.serve.jobs", "repro.serve.limiter",
                  "repro.serve.pool", "repro.serve.daemon")

_tls = threading.local()
_count_lock = threading.Lock()
_counts = {"sanitize.guard_checks": 0, "sanitize.acquires": 0,
           "sanitize.contended": 0}
#: (cls, attr, original) triples for uninstall().
_patched: list[tuple[type, str, object]] = []
_installed = False


def armed() -> bool:
    """True when ``REPRO_SANITIZE=1`` is in the environment."""
    return os.environ.get("REPRO_SANITIZE", "") == "1"


def installed() -> bool:
    return _installed


def counters() -> dict[str, int]:
    """A snapshot of the ``sanitize.*`` counters."""
    with _count_lock:
        return dict(_counts)


def reset() -> None:
    """Zero the counters (test isolation)."""
    with _count_lock:
        for k in _counts:
            _counts[k] = 0


def _bump(name: str, n: int = 1) -> None:
    with _count_lock:
        _counts[name] += n


def _held_stack() -> list:
    stack = getattr(_tls, "held", None)
    if stack is None:
        stack = _tls.held = []
    return stack


class SanitizedLock:
    """Owner-tracking proxy over a ``threading.Lock``/``RLock``.

    Implements the private ``_is_owned`` hook, so a
    ``threading.Condition`` built over the proxy gets correct
    per-thread ownership semantics for ``wait``/``notify``."""

    __slots__ = ("_inner", "label", "_order", "_owner", "_depth",
                 "_reentrant")

    def __init__(self, inner, label: str, order: int | None = None,
                 reentrant: bool = False) -> None:
        self._inner = inner
        self.label = label
        self._order = order
        self._owner: int | None = None
        self._depth = 0
        self._reentrant = reentrant

    def _is_owned(self) -> bool:
        return self._owner == threading.get_ident()

    def locked(self) -> bool:
        return self._inner.locked()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if self._reentrant and self._is_owned():
            self._inner.acquire(blocking, timeout)
            self._depth += 1
            return True
        self._check_order()
        _bump("sanitize.acquires")
        got = self._inner.acquire(False)
        if not got:
            _bump("sanitize.contended")
            if not blocking:
                return False
            got = self._inner.acquire(True, timeout)
            if not got:
                return False
        self._owner = threading.get_ident()
        self._depth = 1
        _held_stack().append(self)
        return True

    def release(self) -> None:
        if self._reentrant and self._depth > 1:
            self._depth -= 1
            self._inner.release()
            return
        self._depth = 0
        self._owner = None
        stack = _held_stack()
        if self in stack:
            stack.remove(self)
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def _check_order(self) -> None:
        if self._order is None:
            return
        for held in _held_stack():
            if held._order is not None and self._order < held._order:
                raise LockOrderError(
                    f"lock-order inversion: acquiring {self.label} "
                    f"(rank {self._order}) while holding {held.label} "
                    f"(rank {held._order}); declared order is "
                    f"{' < '.join(LOCK_ORDER)}")

    def __repr__(self) -> str:  # pragma: no cover - debug only
        return f"<SanitizedLock {self.label} owner={self._owner}>"


def _held_by_current(obj, lock_attrs) -> bool:
    """Does the current thread own any of ``obj``'s listed lock
    attributes?  Conditions answer through ``_is_owned`` (which, over a
    wrapped lock, resolves to the proxy's owner check)."""
    for name in lock_attrs:
        try:
            lk = object.__getattribute__(obj, name)
        except AttributeError:
            continue
        is_owned = getattr(lk, "_is_owned", None)
        if is_owned is not None and is_owned():
            return True
    return False


def _instrument(cls: type, contract: dict) -> None:
    lock_kinds: dict[str, str] = contract["locks"]
    guard_groups: dict[str, list] = contract["guard_groups"]
    guard_names = frozenset(guard_groups)
    wrap_names = frozenset(a for a, k in lock_kinds.items()
                           if k in ("lock", "rlock"))
    order = {label: i for i, label in enumerate(LOCK_ORDER)}

    orig_init = cls.__init__
    orig_setattr = cls.__setattr__
    orig_getattribute = cls.__getattribute__

    def __init__(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        object.__setattr__(self, "_snt_ready", True)

    def _checks_on(self) -> bool:
        try:
            return object.__getattribute__(self, "_snt_ready")
        except AttributeError:
            return False

    def __setattr__(self, name, value):
        if (name in wrap_names and value is not None
                and not isinstance(value, SanitizedLock)):
            label = f"{cls.__name__}.{name}"
            value = SanitizedLock(value, label, order.get(label),
                                  reentrant=lock_kinds[name] == "rlock")
        elif name in guard_names and _checks_on(self):
            _bump("sanitize.guard_checks")
            if not _held_by_current(self, guard_groups[name]):
                raise GuardViolation(
                    f"write to {cls.__name__}.{name} without holding "
                    f"{'/'.join(guard_groups[name])} "
                    f"(thread {threading.current_thread().name})")
        orig_setattr(self, name, value)

    def __getattribute__(self, name):
        if name in guard_names and _checks_on(self):
            _bump("sanitize.guard_checks")
            if not _held_by_current(self, guard_groups[name]):
                raise GuardViolation(
                    f"read of {cls.__name__}.{name} without holding "
                    f"{'/'.join(guard_groups[name])} "
                    f"(thread {threading.current_thread().name})")
        return orig_getattribute(self, name)

    for attr, wrapped in (("__init__", __init__),
                          ("__setattr__", __setattr__),
                          ("__getattribute__", __getattribute__)):
        _patched.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapped)


def install() -> dict[str, dict]:
    """Instrument every lock-owning class in :data:`TARGET_MODULES` from
    the statically extracted manifest.  Idempotent; returns the manifest.
    Already-constructed instances keep their raw locks -- arm the
    sanitizer before building a daemon."""
    global _installed
    import importlib
    import inspect

    from repro.lint.concurrency import build_manifest

    sources: dict[str, str] = {}
    modules: dict[str, object] = {}
    for name in TARGET_MODULES:
        mod = importlib.import_module(name)
        modules[name] = mod
        sources[name] = inspect.getsource(mod)
    manifest = build_manifest(sources)
    if _installed:
        return manifest
    for qualname, contract in manifest.items():
        module, _, clsname = qualname.rpartition(".")
        cls = getattr(modules[module], clsname, None)
        if isinstance(cls, type):
            _instrument(cls, contract)
    _installed = True
    return manifest


def uninstall() -> None:
    """Restore every patched class (test isolation)."""
    global _installed
    while _patched:
        cls, attr, original = _patched.pop()
        setattr(cls, attr, original)
    _installed = False


def maybe_install(force: bool = False) -> bool:
    """Install iff armed (or forced); the no-op path costs one getenv."""
    if force or armed():
        install()
        return True
    return False
