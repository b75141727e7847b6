"""Performance rules: allocation discipline on the simulator hot path.

The dense-suite optimization work (docs/performance.md, "Allocation-rate
engineering") replaced per-event closures with up to two arguments bound
into the event entry itself (``Engine.call_at``/``call_after``,
``Link.send``'s argument form).  A closure or nested function created on
the hot path is one more allocation per event on top of that entry --
and nothing but a lint rule would notice, because the code still
behaves identically.  This module makes the discipline checked instead
of conventional.

Rule:

* **PERF001** -- a ``lambda``, nested ``def`` or ``functools.partial``
  constructed inside a hot-path function: any method of a class in
  :data:`_HOT_CLASSES` (the event loop, the per-packet send path, the
  SM's issue path with its load replays and the caches and MSHR files
  they go through, and every packet chain: the offload controller and
  its credit manager, the GPU memory system, the fabrics, the memory
  device and its vaults, and their packet records), or any method named
  ``tick`` on the simulation path.
  Sites that run once per block or only under recovery are
  **allow-listed via annotation**::

      on_grant=lambda: self._grant(inst))  # perf: alloc-ok -- once per block

  The reason after ``--`` is mandatory, mirroring the ``guarded-by``
  and suppression syntaxes; an ``alloc-ok`` without a reason is reported
  (PERF001 on the annotation line).  Standard
  ``# lint: ignore[PERF001] -- why`` suppressions work as everywhere
  else; the annotation form exists so the allowance reads as a
  documented contract at the allocation site.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from repro.lint.core import FileContext, Rule, scan_comments

__all__ = ["PERF_RULES", "HotPathAllocationRule", "parse_alloc_annotations"]

#: Module -> classes whose every method is hot-path: the event loop and
#: the per-packet link send, the SM's issue path and the L1/L2 it loads
#: through, and each class a packet chain runs through, with the records
#: that carry its packets.
_HOT_CLASSES = {
    "repro.sim.engine": {"Engine", "Link"},
    "repro.gpu.sm": {"SM", "_MemReplay"},
    "repro.gpu.cache": {"Cache", "MSHRFile"},
    "repro.core.offload": {"NDPController", "_ReadForward",
                           "_WriteAddress", "_NDPWrite"},
    "repro.core.credit": {"BufferCreditManager"},
    "repro.sim.memsys": {"GPUMemSystem", "_L2Fill"},
    "repro.network.fabric": {"MemoryNetwork", "GPULinks", "_HopWalk"},
    "repro.memory.hmc": {"HMCStack"},
    "repro.memory.vault": {"VaultController"},
}

#: Method name treated as hot-path wherever it appears on the sim path.
_HOT_METHOD = "tick"

_ALLOC_OK_RE = re.compile(r"#\s*perf:\s*alloc-ok\s*(?:--\s*(\S.*))?")


@dataclass(frozen=True)
class AllocAnnotation:
    """One ``# perf: alloc-ok`` comment, resolved to the code line it
    annotates (same targeting as suppressions: its own line, or the
    first code line after a standalone comment block)."""

    line: int
    target: int
    reason: str | None


def parse_alloc_annotations(source: str) -> list[AllocAnnotation]:
    return [AllocAnnotation(line=line, target=target, reason=m.group(1))
            for line, target, m in scan_comments(source, _ALLOC_OK_RE)]


def _is_partial(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "partial"
    return (isinstance(func, ast.Attribute) and func.attr == "partial"
            and isinstance(func.value, ast.Name)
            and func.value.id == "functools")


class HotPathAllocationRule(Rule):
    id = "PERF001"
    severity = "error"
    description = ("closure/lambda/partial constructed on the simulator "
                   "hot path (engine event loop, Link.send, the packet "
                   "chains, tick() methods); bind arguments into the "
                   "event entry (call_at/call_after/Link.send arg) or "
                   "annotate the site '# perf: alloc-ok -- why'")
    scope = ("repro.sim", "repro.gpu", "repro.memory", "repro.network",
             "repro.core")

    def check_file(self, ctx: FileContext, project) -> None:
        annotations = parse_alloc_annotations(ctx.source)
        allowed = {a.target for a in annotations if a.reason}
        for a in annotations:
            if a.reason is None:
                ctx.report(self.id, self.severity, a.line,
                           "alloc-ok annotation without a reason: write "
                           "'# perf: alloc-ok -- why this allocation is "
                           "off the hot path'")
        for fn in self._hot_functions(ctx):
            self._check_body(ctx, fn, allowed)

    def _hot_functions(self, ctx: FileContext):
        hot_classes = _HOT_CLASSES.get(ctx.module, ())
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            hot_class = node.name in hot_classes
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                if hot_class or item.name == _HOT_METHOD:
                    yield item

    def _check_body(self, ctx: FileContext, fn, allowed: set[int]) -> None:
        for node in ast.walk(fn):
            if isinstance(node, ast.Lambda):
                kind = "lambda"
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)) and node is not fn:
                kind = f"nested function '{node.name}'"
            elif isinstance(node, ast.Call) and _is_partial(node):
                kind = "functools.partial"
            else:
                continue
            if node.lineno in allowed:
                continue
            ctx.report(self.id, self.severity, node,
                       f"{kind} allocated in hot-path function "
                       f"'{fn.name}': every construction here is an "
                       "allocation per event on top of the event entry; "
                       "bind arguments into the event entry, or "
                       "annotate '# perf: alloc-ok -- why'")


PERF_RULES: tuple[type[Rule], ...] = (HotPathAllocationRule,)
