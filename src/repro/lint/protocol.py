"""Protocol rules: packet/fault-site coverage, metric-name hygiene, and
fault-site literals.

These rules check call sites against the cross-file contracts parsed by
:mod:`repro.lint.project`: the ``PacketSizes``/``PACKET_FAULT_SITES``
registry in ``core/packets.py``, the ``SITES``/``WATCHDOG_SITES`` tuples
in ``faults/plan.py`` and the ``KNOWN_METRICS`` registry in
``sim/metrics.py``.  A rule silently stands down when its contract source
was not found (synthetic test projects may carry only one of them).
"""

from __future__ import annotations

import ast

from repro.lint.core import FileContext, Rule, receiver_tail
from repro.lint.project import Project

__all__ = ["PROTOCOL_RULES", "PacketCoverageRule", "MetricNameRule",
           "MetricReceiverNamingRule", "FaultSiteRule"]

#: The enforced receiver-naming convention for MetricsRegistry bindings:
#: one of these exact names, or a ``*_metrics`` / ``*_registry`` suffix.
#: PROTO002 resolves emission sites through this convention (plus any
#: explicit ``MetricsRegistry`` annotations/constructions it can see in
#: the file); PROTO004 enforces the convention at every binding site, so
#: a registry can never hide behind a name the metric-name check would
#: miss.
METRIC_RECEIVER_NAMES = frozenset({"m", "metrics", "registry"})
METRIC_RECEIVER_SUFFIXES = ("_metrics", "_registry")


def conventional_receiver(name: str) -> bool:
    return (name in METRIC_RECEIVER_NAMES
            or name.endswith(METRIC_RECEIVER_SUFFIXES))


def _bound_name(node: ast.AST) -> str:
    """The bare name a binding target answers to at call sites:
    ``self.run_metrics`` and ``run_metrics`` both resolve to
    ``run_metrics`` (the receiver-chain tail PROTO002 sees)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_registry_annotation(ann: ast.AST | None) -> bool:
    """Does an annotation name MetricsRegistry (bare, dotted, optional,
    or a string forward reference)?"""
    if ann is None:
        return False
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return "MetricsRegistry" in ann.value
    if isinstance(ann, ast.Name):
        return ann.id == "MetricsRegistry"
    if isinstance(ann, ast.Attribute):
        return ann.attr == "MetricsRegistry"
    if isinstance(ann, ast.Subscript):        # Optional[...] etc.
        return any(_is_registry_annotation(n) for n in ast.walk(ann.slice))
    if isinstance(ann, ast.BinOp):            # MetricsRegistry | None
        return (_is_registry_annotation(ann.left)
                or _is_registry_annotation(ann.right))
    return False


def _is_registry_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and _bound_name(node.func) == "MetricsRegistry")


def _registry_bindings(tree: ast.AST):
    """Yield ``(name, node)`` for every binding of a MetricsRegistry in
    the file: annotated parameters, annotated assignments, and direct
    ``x = MetricsRegistry(...)`` constructions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            if _is_registry_annotation(node.annotation):
                yield node.arg, node
        elif isinstance(node, ast.AnnAssign):
            if (_is_registry_annotation(node.annotation)
                    or (node.value is not None
                        and _is_registry_call(node.value))):
                yield _bound_name(node.target), node
        elif isinstance(node, ast.Assign) and _is_registry_call(node.value):
            for t in node.targets:
                yield _bound_name(t), node


def _str_arg(call: ast.Call, index: int = 0,
             keyword: str | None = None) -> ast.Constant | None:
    """The call's argument at ``index`` (or ``keyword``) iff a string literal."""
    node = None
    if len(call.args) > index:
        node = call.args[index]
    elif keyword is not None:
        for kw in call.keywords:
            if kw.arg == keyword:
                node = kw.value
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)):
        return node
    return None


def _fstring_prefix(node: ast.AST) -> str | None:
    """Leading literal of an f-string ('f"packets.{k}"' -> 'packets.')."""
    if (isinstance(node, ast.JoinedStr) and node.values
            and isinstance(node.values[0], ast.Constant)
            and isinstance(node.values[0].value, str)):
        return node.values[0].value
    return None


class PacketCoverageRule(Rule):
    """PROTO001: every ``PacketSizes`` wire-size method must carry a fault-
    site mapping in ``PACKET_FAULT_SITES``, every mapping must name a real
    method and a real packet fault site, and only declared kinds/constants
    may be referenced as ``PacketSizes.<x>``."""

    id = "PROTO001"
    severity = "error"
    description = ("packet kinds, PACKET_FAULT_SITES and PacketSizes uses "
                   "must agree")

    #: The module that emits the NDP packet kinds; the never-emitted check
    #: only makes sense when it is part of the scanned set.
    EMITTER = "repro.core.offload"

    def check_project(self, project: Project,
                      contexts: list[FileContext]) -> None:
        if not project.packet_kinds:
            return
        anchor = next((c for c in contexts
                       if c.real_path == project.packets_path), None)
        if anchor is not None:
            for kind, line in sorted(project.packet_kinds.items()):
                if kind not in project.packet_fault_sites:
                    anchor.report(self.id, self.severity, line,
                                  f"packet kind {kind!r} has no entry in "
                                  "PACKET_FAULT_SITES: which fault site "
                                  "does it traverse?")
            for kind, (site, line) in sorted(
                    project.packet_fault_sites.items()):
                if kind not in project.packet_kinds:
                    anchor.report(self.id, self.severity, line,
                                  f"PACKET_FAULT_SITES names {kind!r}, "
                                  "which is not a PacketSizes method")
                elif (project.packet_sites
                      and site not in project.packet_sites):
                    anchor.report(self.id, self.severity, line,
                                  f"packet kind {kind!r} maps to "
                                  f"{site!r}, not a packet fault site "
                                  f"{project.packet_sites}")
        # Uses: PacketSizes.<attr> anywhere in the scanned files.
        legal = set(project.packet_kinds) | set(project.packet_consts)
        used: set[str] = set()
        scanned = {c.module for c in contexts}
        for ctx in contexts:
            if ctx.real_path == project.packets_path:
                continue
            for node in ast.walk(ctx.tree):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "PacketSizes"):
                    used.add(node.attr)
                    if node.attr not in legal:
                        ctx.report(self.id, self.severity, node,
                                   f"PacketSizes.{node.attr} is not a "
                                   "declared packet kind or constant")
        if anchor is not None and self.EMITTER in scanned:
            for kind, line in sorted(project.packet_kinds.items()):
                if kind not in used:
                    anchor.report(self.id, self.severity, line,
                                  f"packet kind {kind!r} is never emitted "
                                  "by any scanned module: dead protocol "
                                  "surface or missing dispatch")


class MetricNameRule(Rule):
    """PROTO002: every metric name published into a MetricsRegistry must
    exist in the ``KNOWN_METRICS`` registry -- no typo'd dotted names.

    Emission sites are resolved through the **enforced naming
    convention** (:func:`conventional_receiver`: ``m``, ``metrics``,
    ``registry``, or a ``*_metrics``/``*_registry`` suffix) plus an
    annotation-aware pass that picks up any name the file explicitly
    binds to a ``MetricsRegistry`` (annotated parameter, annotated
    attribute, or direct construction).  PROTO004 guarantees the
    convention holds at every binding site, so the union is exhaustive:
    a registry cannot be smuggled past this rule under an arbitrary
    name.  ``.observe`` also exists on the recovery Watchdog (a watchdog
    site, PROTO003); the receiver gate is what keeps the two rules from
    crossing."""

    id = "PROTO002"
    severity = "error"
    description = "emitted metric names must exist in sim/metrics.py KNOWN_METRICS"
    # the registry module defines the vocabulary, it does not emit into it
    exclude = Rule.exclude + ("repro.sim.metrics",)

    #: Dict-building variables whose keys are metric names.
    METRIC_DICTS = frozenset({"gauges", "counters"})

    def check_file(self, ctx: FileContext, project) -> None:
        if project is None or not project.known_metrics:
            return
        self._annotated = {name for name, _ in _registry_bindings(ctx.tree)
                           if name}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                self._check_call(ctx, project, node)
            elif isinstance(node, ast.Assign):
                self._check_assign(ctx, project, node)
        for fn in ast.walk(ctx.tree):
            if (isinstance(fn, ast.FunctionDef)
                    and fn.name == "metrics_counters"):
                self._check_counters_fn(ctx, project, fn)

    def _is_receiver(self, name: str) -> bool:
        return conventional_receiver(name) or name in self._annotated

    def _check_name(self, ctx: FileContext, project, node: ast.AST) -> None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if not project.metric_known(node.value):
                ctx.report(self.id, self.severity, node,
                           f"metric name {node.value!r} is not in the "
                           "KNOWN_METRICS registry (sim/metrics.py); "
                           "typo, or register it")
            return
        prefix = _fstring_prefix(node)
        if prefix is not None and not project.metric_prefix_known(prefix):
            ctx.report(self.id, self.severity, node,
                       f"no KNOWN_METRICS entry can match an f-string "
                       f"metric name starting with {prefix!r}")

    def _check_dict(self, ctx: FileContext, project, node: ast.AST) -> None:
        if isinstance(node, ast.Dict):
            for k in node.keys:
                if k is not None:
                    self._check_name(ctx, project, k)
        elif isinstance(node, ast.DictComp):
            self._check_name(ctx, project, node.key)

    def _check_call(self, ctx: FileContext, project, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        recv = receiver_tail(func)
        if (func.attr in ("counter", "histogram", "observe")
                and self._is_receiver(recv) and node.args):
            self._check_name(ctx, project, node.args[0])
        elif func.attr == "set_counters" and node.args:
            self._check_dict(ctx, project, node.args[0])
        elif func.attr == "heartbeat" and self._is_receiver(recv):
            for arg in node.args[1:]:
                self._check_dict(ctx, project, arg)

    def _check_assign(self, ctx: FileContext, project,
                      node: ast.Assign) -> None:
        for t in node.targets:
            if (isinstance(t, ast.Name) and t.id in self.METRIC_DICTS):
                self._check_dict(ctx, project, node.value)
            elif (isinstance(t, ast.Subscript)
                  and isinstance(t.value, ast.Name)
                  and t.value.id in self.METRIC_DICTS):
                self._check_name(ctx, project, t.slice)

    def _check_counters_fn(self, ctx: FileContext, project,
                           fn: ast.FunctionDef) -> None:
        """metrics_counters() bodies publish their dict keys verbatim."""
        for node in ast.walk(fn):
            if isinstance(node, (ast.Dict, ast.DictComp)):
                self._check_dict(ctx, project, node)
            elif (isinstance(node, ast.Assign)
                  and isinstance(node.targets[0], ast.Subscript)):
                self._check_name(ctx, project, node.targets[0].slice)


class MetricReceiverNamingRule(Rule):
    """PROTO004: every binding of a ``MetricsRegistry`` -- annotated
    parameter, annotated attribute, or ``x = MetricsRegistry(...)`` --
    must use a conventional receiver name (``m``, ``metrics``,
    ``registry``, or a ``*_metrics``/``*_registry`` suffix).

    This is what turns PROTO002's receiver gate from a heuristic into a
    contract: PROTO002 only sees emissions through receivers it can
    recognize, and this rule makes unrecognizable receivers illegal, so
    a typo'd metric name can never hide behind a creatively named
    registry variable."""

    id = "PROTO004"
    severity = "error"
    description = ("MetricsRegistry bindings must use a conventional "
                   "receiver name (m/metrics/registry or *_metrics/"
                   "*_registry)")
    # the registry module itself (self.x inside the class is not a
    # receiver anyone emits through externally)
    exclude = Rule.exclude + ("repro.sim.metrics",)

    def check_file(self, ctx: FileContext, project) -> None:
        for name, node in _registry_bindings(ctx.tree):
            if name and not conventional_receiver(name):
                ctx.report(
                    self.id, self.severity, node,
                    f"MetricsRegistry bound to {name!r}, which the "
                    "PROTO002 metric-name check cannot recognize; "
                    "rename it to m/metrics/registry or give it a "
                    "_metrics/_registry suffix")


class FaultSiteRule(Rule):
    """PROTO003: fault-site string literals at injection and watchdog call
    sites must be declared in ``faults/plan.py``.  Watchdog calls are
    recognized by their receiver's name, ``watchdog``, the one name the
    recovery Watchdog is bound to."""

    id = "PROTO003"
    severity = "error"
    description = ("fault-site literals must be declared in faults/plan.py "
                   "SITES / PACKET_SITES / WATCHDOG_SITES")

    INJECTOR_RECEIVERS = frozenset({"faults", "fault_injector", "injector"})
    WATCHDOG_RECEIVERS = frozenset({"watchdog"})
    #: Watchdog methods whose first argument is a site.
    WATCHDOG_METHODS = frozenset({"arm", "handle", "observe", "timeout"})

    def check_file(self, ctx: FileContext, project) -> None:
        if project is None or not project.sites:
            return
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, (ast.Attribute, ast.Name))):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                if func.id == "FaultSpec":
                    arg = _str_arg(node, 0, keyword="site")
                    self._expect(ctx, arg, project.sites, "SITES")
                continue
            recv = receiver_tail(func)
            if (func.attr == "packet"
                    and recv in self.INJECTOR_RECEIVERS):
                self._expect(ctx, _str_arg(node, 0),
                             project.packet_sites or project.sites,
                             "PACKET_SITES")
            elif func.attr == "decide" and recv in self.INJECTOR_RECEIVERS:
                self._expect(ctx, _str_arg(node, 0), project.sites, "SITES")
            elif func.attr in ("with_site_timeout", "timeout_for"):
                self._expect(ctx, _str_arg(node, 0),
                             project.watchdog_sites, "WATCHDOG_SITES")
            elif (func.attr in self.WATCHDOG_METHODS
                  and recv in self.WATCHDOG_RECEIVERS):
                self._expect(ctx, _str_arg(node, 0),
                             project.watchdog_sites, "WATCHDOG_SITES")

    def _expect(self, ctx: FileContext, arg: ast.Constant | None,
                declared: tuple[str, ...], registry: str) -> None:
        if arg is None or not declared:
            return
        if arg.value not in declared:
            ctx.report(self.id, self.severity, arg,
                       f"fault site {arg.value!r} is not declared in "
                       f"{registry} {declared} (faults/plan.py)")


PROTOCOL_RULES = (PacketCoverageRule, MetricNameRule,
                  MetricReceiverNamingRule, FaultSiteRule)
