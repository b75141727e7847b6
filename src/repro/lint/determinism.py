"""Determinism rules: sources of run-to-run nondeterminism in sim-path code.

The reproduction's headline claim is cycle-exact determinism -- unarmed
runs are pinned by digest tests -- so anything whose result depends on
``PYTHONHASHSEED``, interpreter identity, global RNG state or wall-clock
time is a bug the moment it reaches a trace, a metric or a store key.
"""

from __future__ import annotations

import ast

from repro.lint.core import FileContext, Rule, dotted_name

__all__ = ["DETERMINISM_RULES", "SetIterationRule", "DictViewIterationRule",
           "UnseededRandomRule", "HashIdRule", "WallClockRule"]

#: Builtins whose result does not depend on iteration order, so feeding
#: them an unordered iterable is safe.
ORDER_FREE_REDUCERS = frozenset({
    "sorted", "sum", "min", "max", "len", "any", "all", "set", "frozenset",
})

#: Dotted-module prefixes on the simulated path: code here runs inside (or
#: generates input for) the cycle loop, where determinism is load-bearing.
SIM_PATH = ("repro.sim", "repro.core", "repro.gpu", "repro.memory",
            "repro.network", "repro.workloads", "repro.faults", "repro.isa")


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # set algebra: s | t, s & t, s - t
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _set_typed_names(tree: ast.AST) -> set[str]:
    """Names assigned a set expression anywhere in the file -- cheap local
    type inference, good enough to catch ``frontier = set()`` loops."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    names.add(t.id)
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            ann = node.annotation
            base = ann.value if isinstance(ann, ast.Subscript) else ann
            if isinstance(base, ast.Name) and base.id in ("set", "frozenset"):
                names.add(node.target.id)
    return names


def _iteration_sites(tree: ast.AST):
    """Yield (iterated-expression, comprehension-or-None) for every
    ``for`` statement and comprehension generator."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, None
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter, node


def _reduced_order_free(comp: ast.AST | None) -> bool:
    """True when a comprehension's value feeds straight into an
    order-insensitive reducer (``sum(x for x in s)``)."""
    if comp is None:
        return False
    parent = getattr(comp, "lint_parent", None)
    return (isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in ORDER_FREE_REDUCERS)


class SetIterationRule(Rule):
    id = "DET001"
    severity = "error"
    description = ("iteration over a set: order follows PYTHONHASHSEED; "
                   "wrap in sorted() or restructure")

    def check_file(self, ctx: FileContext, project) -> None:
        set_names = _set_typed_names(ctx.tree)
        for it, comp in _iteration_sites(ctx.tree):
            is_set = _is_set_expr(it) or (
                isinstance(it, ast.Name) and it.id in set_names)
            if is_set and not _reduced_order_free(comp):
                what = (it.id if isinstance(it, ast.Name)
                        else "set expression")
                ctx.report(self.id, self.severity, it,
                           f"iterating {what!r} (a set) in hash order; "
                           "use sorted() for a stable order")


class DictViewIterationRule(Rule):
    id = "DET002"
    severity = "warning"
    description = ("iteration over dict views relies on insertion order; "
                   "sort, or suppress with why order cannot leak")
    # presentation code prints in whatever order the caller built
    exclude = Rule.exclude + ("repro.cli",)

    def check_file(self, ctx: FileContext, project) -> None:
        for it, comp in _iteration_sites(ctx.tree):
            if not (isinstance(it, ast.Call)
                    and isinstance(it.func, ast.Attribute)
                    and it.func.attr in ("keys", "values", "items")
                    and not it.args and not it.keywords):
                continue
            if _reduced_order_free(comp):
                continue
            ctx.report(self.id, self.severity, it,
                       f".{it.func.attr}() iteration follows insertion "
                       "order; sort if order can reach results, or "
                       "suppress stating why it cannot")


class UnseededRandomRule(Rule):
    id = "DET003"
    severity = "error"
    description = ("global/unseeded RNG use; draw from a per-site seeded "
                   "np.random.default_rng stream instead")

    #: module-level `random.X()` draws that consume hidden global state
    _RANDOM_DRAWS = frozenset({
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "betavariate",
        "expovariate", "triangular", "getrandbits", "randbytes",
    })

    def check_file(self, ctx: FileContext, project) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if not name:
                continue
            root, _, rest = name.partition(".")
            if root == "random" and rest in self._RANDOM_DRAWS:
                ctx.report(self.id, self.severity, node,
                           f"{name}() draws from the global RNG; use a "
                           "seeded np.random.default_rng stream")
            elif name in ("random.Random", "np.random.default_rng",
                          "numpy.random.default_rng") and not node.args:
                ctx.report(self.id, self.severity, node,
                           f"{name}() without a seed is "
                           "entropy-seeded; pass an explicit seed tuple")
            elif name.startswith(("np.random.", "numpy.random.")):
                tail = name.rsplit(".", 1)[1]
                if tail not in ("default_rng", "Generator", "SeedSequence",
                                "PCG64", "Philox"):
                    ctx.report(self.id, self.severity, node,
                               f"{name}() uses numpy's legacy global RNG; "
                               "use a seeded default_rng stream")


class HashIdRule(Rule):
    id = "DET004"
    severity = "error"
    description = ("hash()/id() values vary across processes; they must "
                   "not reach seeds, ordering or store keys")

    def check_file(self, ctx: FileContext, project) -> None:
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("hash", "id")):
                which = node.func.id
                vary = ("PYTHONHASHSEED" if which == "hash"
                        else "allocator layout")
                ctx.report(self.id, self.severity, node,
                           f"{which}() varies with {vary} across "
                           "processes; use a content-derived key "
                           "(e.g. zlib.crc32, sha256) or suppress with "
                           "why the value never leaves this process")


class WallClockRule(Rule):
    id = "DET005"
    severity = "warning"
    description = ("wall-clock read on the simulated path; cycle-exact "
                   "code must only see sim time")
    scope = SIM_PATH

    _CLOCKS = frozenset({
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "datetime.now", "datetime.utcnow", "datetime.datetime.now",
        "datetime.datetime.utcnow",
    })

    def check_file(self, ctx: FileContext, project) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and dotted_name(node.func) in self._CLOCKS:
                ctx.report(self.id, self.severity, node,
                           f"{dotted_name(node.func)}() reads the wall clock "
                           "on the simulated path; derive from the cycle "
                           "counter, or suppress if it never enters "
                           "results")


DETERMINISM_RULES = (SetIterationRule, DictViewIterationRule,
                     UnseededRandomRule, HashIdRule, WallClockRule)
