"""Concurrency rules: lock discipline for the thread-shared serve stack.

The serve daemon is the one place in the tree where many threads mutate
shared state (admission threads, shard loops, the stop thread), so its
lock discipline is a checked contract, not a convention.
The analyzer builds a per-class **lock model** for every class that owns
a ``threading.Lock``/``RLock``/``Condition`` attribute:

* **locks** -- attributes assigned a ``threading.Lock()``/``RLock()``/
  ``Condition()`` in any method of the class.  A condition constructed
  over one of the class's own locks (``self._ready =
  threading.Condition(self._lock)``) is recorded as an **alias**:
  holding either name is holding the same underlying lock.
* **guarded attributes** -- declared with a ``# guarded-by: <lock>``
  comment on the attribute's assignment line (or a standalone comment
  directly above it), or *inferred* from writes that only happen inside
  ``with self.<lock>:`` blocks.  ``# guarded-by: none -- <why>`` opts an
  attribute out of inference (advisory counters with benign races).

Rules (``docs/static-analysis.md`` has the annotated catalogue):

* **CONC001** -- a guarded attribute is read or written outside a
  ``with <lock>:`` block in a thread-visible method.  ``__init__`` and
  ``*_locked``-suffixed helpers are exempt statically (the runtime
  sanitizer, :mod:`repro.lint.sanitize`, verifies the ``_locked``
  convention dynamically).
* **CONC002** -- a blocking call (``time.sleep``, ``Future.result``,
  ``queue.get``, ``subprocess``/HTTP/socket clients, ``api.*`` facade
  calls, ``.join``/``.wait``) made while a lock is held.
* **CONC003** -- ``Condition.wait``/``notify`` without holding the
  condition, or ``wait`` outside a predicate loop.
* **CONC004** -- a ``threading.Thread`` created without an explicit
  ``daemon=`` choice.
* **CONC005** -- serve-layer modules importing simulation-core state
  (``repro.sim``/``core``/``gpu``/``memory``/``network``) beyond the
  sanctioned store/metrics/serialize seam, or executor workers passed
  as lambdas (state capture across the pool boundary) in serve/analysis.

The same class models feed :func:`build_manifest`, which the runtime
sanitizer uses to wrap locks in owner-tracking proxies.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.lint.core import (FileContext, Rule, dotted_name, receiver_tail,
                             scan_comments)

__all__ = ["CONCURRENCY_RULES", "ClassModel", "GuardedAttributeRule",
           "BlockingUnderLockRule", "ConditionDisciplineRule",
           "ThreadLifecycleRule", "SimStateIsolationRule",
           "build_manifest", "class_models", "parse_guard_annotations"]

#: ``threading.<name>`` factories that make an attribute a lock.
_LOCK_KINDS = {"Lock": "lock", "RLock": "rlock", "Condition": "condition"}

_GUARD_RE = re.compile(
    r"#\s*guarded-by:\s*(?:self\.)?(none|[A-Za-z_][A-Za-z0-9_]*)"
    r"\s*(?:--\s*(\S.*))?")


@dataclass(frozen=True)
class GuardAnnotation:
    """One ``# guarded-by: <lock>`` comment, resolved to the code line it
    annotates (the comment's own line, or the first code line below a
    standalone comment block -- same targeting as lint suppressions)."""

    line: int
    target: int
    lock: str                   # lock attribute name, or "none"
    reason: str | None


def parse_guard_annotations(source: str) -> list[GuardAnnotation]:
    return [GuardAnnotation(line=line, target=target, lock=m.group(1),
                            reason=m.group(2))
            for line, target, m in scan_comments(source, _GUARD_RE)]


def _self_attr(node: ast.AST) -> str | None:
    """``self.X`` -> ``"X"``; anything else -> None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _threading_names(tree: ast.AST) -> set[str]:
    """Names imported straight off ``threading`` (``from threading import
    Thread``), so bare ``Thread(...)`` calls resolve like dotted ones."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "threading":
            names.update(a.asname or a.name for a in node.names)
    return names


def _threading_kind(node: ast.AST, bare: set[str]) -> str | None:
    """``threading.Lock()`` / imported ``Lock()`` -> "lock"; also
    recognizes ``Event`` (self-synchronizing, never a guard)."""
    if not isinstance(node, ast.Call):
        return None
    name = dotted_name(node.func)
    if name.startswith("threading."):
        name = name[len("threading."):]
    elif name not in bare:
        return None
    if name in _LOCK_KINDS:
        return _LOCK_KINDS[name]
    if name == "Event":
        return "event"
    return None


@dataclass
class ClassModel:
    """The lock contract of one class, extracted from its AST."""

    name: str
    node: ast.ClassDef
    locks: dict[str, str] = field(default_factory=dict)   # attr -> kind
    events: set[str] = field(default_factory=set)
    aliases: dict[str, str] = field(default_factory=dict)  # cond -> lock
    explicit: dict[str, tuple[str, int]] = field(default_factory=dict)
    inferred: dict[str, str] = field(default_factory=dict)
    unguarded: set[str] = field(default_factory=set)       # guarded-by: none

    @property
    def guards(self) -> dict[str, str]:
        """attr -> guarding lock attr (explicit beats inferred)."""
        out = dict(self.inferred)
        for attr, (lock, _line) in self.explicit.items():
            out[attr] = lock
        for attr in (self.unguarded | set(self.locks) | self.events):
            out.pop(attr, None)
        return out

    def group(self, lock_attr: str) -> frozenset[str]:
        """Every attribute name whose acquisition is the same underlying
        lock: the lock itself, a condition wrapping it, or the lock a
        condition wraps."""
        names = {lock_attr}
        names.update(c for c, l in self.aliases.items() if l == lock_attr)
        if lock_attr in self.aliases:
            names.add(self.aliases[lock_attr])
            names.update(c for c, l in self.aliases.items()
                         if l == self.aliases[lock_attr])
        return frozenset(names)

    def methods(self):
        for item in self.node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield item


#: Methods CONC001 does not police: construction (no other thread can
#: hold a reference yet), repr/str (debug surfaces), and the
#: ``*_locked`` helper convention (callers hold the lock; the runtime
#: sanitizer verifies that assumption on every armed run).
_EXEMPT_METHODS = frozenset({"__init__", "__new__", "__del__", "__repr__",
                             "__str__"})


def _exempt_method(fn) -> bool:
    return fn.name in _EXEMPT_METHODS or fn.name.endswith("_locked")


def _write_targets(node: ast.AST):
    """Attribute names of ``self`` written by an Assign/AugAssign/Delete:
    plain stores, subscript stores (``self._d[k] = v``) and deletions all
    count as mutations of the attribute's object."""
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = node.targets
    for t in targets:
        attr = _self_attr(t)
        if attr is not None:
            yield attr
        elif isinstance(t, ast.Subscript):
            attr = _self_attr(t.value)
            if attr is not None:
                yield attr


def _walk_held(model: ClassModel, fn, callback) -> None:
    """Walk a method body tracking the lexically held lock-attribute set
    and enclosing-loop depth; ``callback(node, held, loop_depth)`` fires
    for every node.  Nested function/lambda bodies are skipped -- they
    run later, under unknown lock state."""

    def visit(node, held, loops):
        callback(node, held, loops)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        if isinstance(node, ast.With):
            add: set[str] = set()
            for item in node.items:
                visit(item.context_expr, held, loops)
                attr = _self_attr(item.context_expr)
                if attr is not None and attr in model.locks:
                    add |= model.group(attr)
            for stmt in node.body:
                visit(stmt, held | add, loops)
            return
        bump = 1 if isinstance(node, (ast.While, ast.For)) else 0
        for child in ast.iter_child_nodes(node):
            visit(child, held, loops + bump)

    for stmt in fn.body:
        visit(stmt, frozenset(), 0)


def class_models(tree: ast.AST, source: str) -> list[ClassModel]:
    """Extract a :class:`ClassModel` for every class in the module that
    owns at least one threading lock attribute."""
    bare = _threading_names(tree)
    anns = {a.target: a for a in parse_guard_annotations(source)}
    out: list[ClassModel] = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        model = ClassModel(name=cls.name, node=cls)
        # Pass 1: locks, events, explicit annotations (assignment sites).
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for t in targets:
                    attr = _self_attr(t)
                    if attr is None:
                        continue
                    kind = (_threading_kind(node.value, bare)
                            if node.value is not None else None)
                    if kind == "event":
                        model.events.add(attr)
                    elif kind is not None:
                        model.locks[attr] = kind
                        if (kind == "condition"
                                and isinstance(node.value, ast.Call)
                                and node.value.args):
                            wrapped = _self_attr(node.value.args[0])
                            if wrapped is not None:
                                model.aliases[attr] = wrapped
                    ann = anns.get(node.lineno)
                    if ann is not None:
                        if ann.lock == "none":
                            model.unguarded.add(attr)
                        else:
                            model.explicit[attr] = (ann.lock, node.lineno)
        if not model.locks:
            continue
        # Pass 2: infer guards from writes inside ``with self.<lock>:``.
        for fn in model.methods():
            def infer(node, held, loops):
                if not held:
                    return
                canon = min(held)
                for attr in _write_targets(node):
                    if (attr not in model.locks and attr not in model.events
                            and attr not in model.unguarded
                            and attr not in model.explicit):
                        model.inferred.setdefault(attr, canon)
            _walk_held(model, fn, infer)
        out.append(model)
    return out


def build_manifest(sources: dict[str, str]) -> dict[str, dict]:
    """``{module: source}`` -> the sanitizer manifest:
    ``{"module.Class": {"locks", "aliases", "guards", "guard_groups"}}``.
    ``guard_groups`` maps each guarded attribute to every lock-attribute
    name whose ownership satisfies the guard (alias closure), which is
    exactly what the runtime held-by-current-thread check consumes."""
    manifest: dict[str, dict] = {}
    for module, source in sorted(sources.items()):
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        for model in class_models(tree, source):
            guards = model.guards
            manifest[f"{module}.{model.name}"] = {
                "locks": dict(model.locks),
                "aliases": dict(model.aliases),
                "guards": guards,
                "guard_groups": {attr: sorted(model.group(lock))
                                 for attr, lock in guards.items()},
            }
    return manifest


# ---------------------------------------------------------------------------
# the rules
# ---------------------------------------------------------------------------

class GuardedAttributeRule(Rule):
    """CONC001: guarded attributes may only be touched under their lock."""

    id = "CONC001"
    severity = "error"
    description = ("guarded attribute accessed outside its 'with <lock>' "
                   "block in a thread-visible method")

    def check_file(self, ctx: FileContext, project) -> None:
        for model in class_models(ctx.tree, ctx.source):
            for attr, (lock, line) in sorted(model.explicit.items()):
                if lock not in model.locks:
                    ctx.report(self.id, self.severity, line,
                               f"{model.name}.{attr} is annotated "
                               f"guarded-by: {lock}, but {lock!r} is not "
                               f"a lock attribute of {model.name} "
                               f"({sorted(model.locks) or 'none'})")
            guards = model.guards
            if not guards:
                continue
            for fn in model.methods():
                if _exempt_method(fn):
                    continue
                self._scan(ctx, model, guards, fn)

    def _scan(self, ctx, model, guards, fn) -> None:
        def check(node, held, loops):
            attr = _self_attr(node)
            if attr is None or attr not in guards:
                return
            needed = model.group(guards[attr])
            if not (needed & held):
                ctx.report(self.id, self.severity, node,
                           f"{model.name}.{attr} is guarded by "
                           f"{guards[attr]!r} but accessed without it in "
                           f"{fn.name}(); wrap in 'with self."
                           f"{guards[attr]}:' or annotate the attribute "
                           "'# guarded-by: none -- <why the race is "
                           "benign>'")
        _walk_held(model, fn, check)


#: Dotted calls that block the calling thread outright.
_BLOCKING_EXACT = frozenset({"time.sleep"})
_BLOCKING_PREFIXES = ("subprocess.", "urllib.", "requests.", "socket.",
                      "http.client.")
#: Receiver names that mark ``.get()`` as a blocking queue read rather
#: than a dict lookup.
_QUEUEISH = frozenset({"q", "queue"})
_QUEUEISH_SUFFIXES = ("_q", "_queue")


class BlockingUnderLockRule(Rule):
    """CONC002: no blocking calls while holding a lock -- a lock held
    across a sleep, a worker-pool wait or a facade simulation stalls
    every thread behind it (and a ``Future.result`` under a lock the
    completer needs is a deadlock)."""

    id = "CONC002"
    severity = "error"
    description = "blocking call while holding a lock"

    def check_file(self, ctx: FileContext, project) -> None:
        for model in class_models(ctx.tree, ctx.source):
            for fn in model.methods():
                self._scan(ctx, model, fn)

    def _scan(self, ctx, model, fn) -> None:
        def check(node, held, loops):
            if not held or not isinstance(node, ast.Call):
                return
            what = self._blocking(model, node, held)
            if what is not None:
                ctx.report(self.id, self.severity, node,
                           f"{what} while holding "
                           f"{'/'.join(sorted(held))} in {model.name}."
                           f"{fn.name}(); move the blocking call outside "
                           "the lock")
        _walk_held(model, fn, check)

    def _blocking(self, model, node: ast.Call, held) -> str | None:
        dotted = dotted_name(node.func)
        if dotted in _BLOCKING_EXACT:
            return f"{dotted}()"
        if dotted.startswith(_BLOCKING_PREFIXES):
            return f"{dotted}()"
        root = dotted.partition(".")[0]
        if root == "api" and "." in dotted:
            return f"facade call {dotted}()"
        if not isinstance(node.func, ast.Attribute):
            return None
        attr = node.func.attr
        recv = receiver_tail(node.func)
        if attr == "result":
            return f"Future {recv or '<expr>'}.result()"
        if attr == "join":
            return f"{recv or '<expr>'}.join()"
        if attr == "get" and (recv in _QUEUEISH
                              or recv.endswith(_QUEUEISH_SUFFIXES)):
            return f"queue read {recv}.get()"
        if attr == "wait":
            self_attr = _self_attr(node.func.value)
            if (self_attr is not None and self_attr in model.locks
                    and model.locks[self_attr] == "condition"
                    and model.group(self_attr) & held):
                return None          # held Condition.wait: CONC003's turf
            return f"{recv or '<expr>'}.wait()"
        return None


class ConditionDisciplineRule(Rule):
    """CONC003: ``Condition.wait``/``notify`` only under the condition,
    and ``wait`` only inside a predicate loop (a bare wait misses
    spurious wakeups and lost notifies)."""

    id = "CONC003"
    severity = "error"
    description = ("Condition.wait/notify without holding the condition, "
                   "or wait outside a predicate loop")

    def check_file(self, ctx: FileContext, project) -> None:
        for model in class_models(ctx.tree, ctx.source):
            conds = {a for a, k in model.locks.items() if k == "condition"}
            if not conds:
                continue
            for fn in model.methods():
                self._scan(ctx, model, conds, fn)

    def _scan(self, ctx, model, conds, fn) -> None:
        def check(node, held, loops):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("wait", "wait_for", "notify",
                                           "notify_all")):
                return
            attr = _self_attr(node.func.value)
            if attr is None or attr not in conds:
                return
            if not (model.group(attr) & held):
                ctx.report(self.id, self.severity, node,
                           f"{model.name}.{attr}.{node.func.attr}() "
                           f"without holding {attr!r}; Condition methods "
                           "require the lock ('with self." + attr + ":')")
            elif node.func.attr == "wait" and loops == 0:
                ctx.report(self.id, self.severity, node,
                           f"{model.name}.{attr}.wait() outside a "
                           "predicate loop; re-check the condition in a "
                           "'while' (spurious wakeups, lost notifies)")
        _walk_held(model, fn, check)


class ThreadLifecycleRule(Rule):
    """CONC004: every thread states its lifecycle: ``daemon=True`` (dies
    with the process) or ``daemon=False`` (someone joins it).  An
    implicit default inherits the spawner's flag -- a silent leak when a
    worker thread outlives the daemon that started it."""

    id = "CONC004"
    severity = "error"
    description = "threading.Thread(...) without an explicit daemon= choice"

    def check_file(self, ctx: FileContext, project) -> None:
        bare = _threading_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name != "threading.Thread" and not (
                    name == "Thread" and "Thread" in bare):
                continue
            if not any(kw.arg == "daemon" for kw in node.keywords):
                ctx.report(self.id, self.severity, node,
                           "threading.Thread(...) without daemon=; pass "
                           "daemon=True (dies with the process) or "
                           "daemon=False and join() it")


#: Simulation-core prefixes the serve layer must not import directly.
_RESTRICTED = ("repro.sim", "repro.core", "repro.gpu", "repro.memory",
               "repro.network")
#: The sanctioned seam: content-addressed results, metric vocabulary and
#: wire serialization are shared infrastructure, not mutable sim state.
_SANCTIONED = frozenset({"repro.sim.store", "repro.sim.metrics",
                         "repro.sim.serialize"})


class SimStateIsolationRule(Rule):
    """CONC005: serve threads must reach simulation state only through
    the ``repro.api`` facade or the sanctioned store/metrics/serialize
    seam, and executor workers must be module-level functions -- a
    lambda handed to a pool captures live objects and mutates shared
    state from worker context."""

    id = "CONC005"
    severity = "error"
    description = ("serve/analysis code mutating simulation-core state "
                   "outside the api facade")
    scope = ("repro.serve", "repro.analysis")

    def check_file(self, ctx: FileContext, project) -> None:
        if ctx.module.startswith("repro.serve"):
            self._check_imports(ctx)
        self._check_workers(ctx)

    def _check_imports(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self._check_module(ctx, node, alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                self._check_module(ctx, node, node.module)

    def _check_module(self, ctx: FileContext, node, module: str) -> None:
        restricted = any(module == p or module.startswith(p + ".")
                         for p in _RESTRICTED)
        if restricted and module not in _SANCTIONED:
            ctx.report(self.id, self.severity, node,
                       f"serve-layer import of {module!r}: reach "
                       "simulation state through repro.api (or the "
                       f"sanctioned seam {sorted(_SANCTIONED)}) so no "
                       "daemon thread mutates sim-core state directly")

    def _check_workers(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            # submit(fn, ...) on a raw executor, starmap(fn, jobs) on
            # repro.executor.CellExecutor: the worker is the first arg.
            if (node.func.attr in ("submit", "starmap") and node.args
                    and isinstance(node.args[0], ast.Lambda)):
                ctx.report(self.id, self.severity, node.args[0],
                           "lambda submitted as an executor worker "
                           "captures live state across the pool "
                           "boundary; pass a module-level function")


CONCURRENCY_RULES = (GuardedAttributeRule, BlockingUnderLockRule,
                     ConditionDisciplineRule, ThreadLifecycleRule,
                     SimStateIsolationRule)
