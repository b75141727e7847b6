"""Rule framework for ``repro.lint``: findings, suppressions, file context.

The analyzer is purely static: every checked file is parsed with
:mod:`ast`, never imported, so linting cannot execute simulator code and
works on broken trees.  Two rule shapes exist:

* **file rules** visit one module's AST at a time
  (:meth:`Rule.check_file`), optionally consulting the cross-file
  :class:`~repro.lint.project.Project` registries;
* **project rules** run once per lint invocation over the project model
  itself (:meth:`Rule.check_project`) -- packet/fault-site coverage,
  CLI/facade drift.

Suppressions are in-source comments::

    x = hash(name)  # lint: ignore[DET004] -- stable across runs by construction

or, as a standalone comment block, applying to the statement that follows
it.  The reason after
``--`` is mandatory: a suppression without one is itself a finding
(``LINT001``), and a suppression that never matches a finding is reported
as stale (``LINT002``).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = ["Finding", "FileContext", "Rule", "SEVERITIES", "attach_parents",
           "dotted_name", "receiver_tail", "scan_comments", "severity_rank"]

#: Severities in decreasing order of importance.
SEVERITIES = ("error", "warning", "info")


def severity_rank(severity: str) -> int:
    return SEVERITIES.index(severity) if severity in SEVERITIES else len(SEVERITIES)


@dataclass(frozen=True)
class Finding:
    """One reported violation, anchored at ``path:line:col``."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: {self.rule} "
                f"[{self.severity}] {self.message}")

    def as_dict(self) -> dict:
        return {"rule": self.rule, "severity": self.severity,
                "path": self.path, "line": self.line, "col": self.col,
                "message": self.message}


_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*ignore\[([A-Za-z0-9_,\s]+)\]\s*(?:--\s*(\S.*))?")


def scan_comments(source: str, pattern: re.Pattern
                  ) -> list[tuple[int, int, re.Match]]:
    """``(line, target, match)`` for every comment ``pattern`` matches.

    The comment grammar shared by suppressions, ``guarded-by`` and
    ``perf: alloc-ok``.  The source is tokenized, so a marker only counts
    inside a real comment -- the same text in a docstring (e.g. the
    documentation of this very syntax) is no match.  ``target`` is the
    line the comment applies to: its own line, or for a comment on a
    line of its own the first code line after its comment block.
    """
    out: list[tuple[int, int, re.Match]] = []
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = pattern.search(tok.string)
        if m is None:
            continue
        line = target = tok.start[0]
        if tok.line[:tok.start[1]].strip() == "":
            target = line + 1
            while (target <= len(lines)
                   and lines[target - 1].lstrip().startswith("#")):
                target += 1
        out.append((line, target, m))
    return out


@dataclass
class Suppression:
    """One ``# lint: ignore[...]`` comment."""

    line: int                # line the comment sits on (1-based)
    rules: tuple[str, ...]
    reason: str | None
    target: int = 0          # the line the suppression applies to
    used: bool = field(default=False, compare=False)

    def covers(self, rule: str, line: int) -> bool:
        return line == self.target and rule in self.rules


def parse_suppressions(source: str) -> list[Suppression]:
    return [Suppression(line=line,
                        rules=tuple(r.strip() for r in m.group(1).split(",")
                                    if r.strip()),
                        reason=m.group(2), target=target)
            for line, target, m in scan_comments(source, _SUPPRESS_RE)]


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted name of an attribute chain ('np.random.rand');
    ``""`` when the chain does not end in a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def receiver_tail(func: ast.Attribute) -> str:
    """Last identifier of a method call's receiver chain:
    'self.faults.packet' -> 'faults'."""
    v = func.value
    if isinstance(v, ast.Attribute):
        return v.attr
    if isinstance(v, ast.Name):
        return v.id
    return ""


def attach_parents(tree: ast.AST) -> None:
    """Stamp a ``.lint_parent`` backlink on every node (used by rules to
    ask "is this expression directly consumed by sorted()/sum()?")."""
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child.lint_parent = parent  # type: ignore[attr-defined]


class FileContext:
    """One parsed module plus its suppression table and finding sink."""

    def __init__(self, path: str, source: str, module: str,
                 real_path: str | None = None) -> None:
        self.path = path                      # display path
        self.real_path = real_path or path    # for contract-file matching
        self.source = source
        self.module = module
        self.tree = ast.parse(source, filename=path)
        attach_parents(self.tree)
        self.suppressions = parse_suppressions(source)
        self.findings: list[Finding] = []

    def report(self, rule: str, severity: str, node: ast.AST | int,
               message: str) -> None:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        col = 0 if isinstance(node, int) else getattr(node, "col_offset", 0)
        for sup in self.suppressions:
            if sup.covers(rule, line):
                sup.used = True
                return
        self.findings.append(Finding(
            rule=rule, severity=severity, path=self.path, line=line,
            col=col, message=message))

    def finish(self, checked_rules: set[str] | None = None) -> None:
        """Emit the meta findings: malformed and stale suppressions.

        ``checked_rules`` names the rule ids that actually ran; a
        suppression whose rules were all filtered out (``--rules``) is
        not stale -- nothing could have matched it.
        """
        for sup in self.suppressions:
            ran = (checked_rules is None
                   or any(r in checked_rules for r in sup.rules))
            if sup.reason is None:
                self.findings.append(Finding(
                    rule="LINT001", severity="error", path=self.path,
                    line=sup.line, col=0,
                    message="suppression without a reason: write "
                            "'# lint: ignore[RULE] -- why order/state "
                            "cannot leak'"))
            elif not sup.used and ran:
                self.findings.append(Finding(
                    rule="LINT002", severity="warning", path=self.path,
                    line=sup.line, col=0,
                    message=f"stale suppression for "
                            f"{', '.join(sup.rules)}: no finding matched"))


class Rule:
    """Base class.  Subclasses set ``id``, ``severity``, ``description``
    and override :meth:`check_file` and/or :meth:`check_project`.

    ``scope``/``exclude`` are dotted-module prefixes limiting where the
    rule applies (``None`` scope = everywhere).  ``repro.lint`` itself is
    excluded by default: the analyzer is host-side tooling, not sim-path
    code.
    """

    id: str = ""
    severity: str = "error"
    description: str = ""
    scope: tuple[str, ...] | None = None
    exclude: tuple[str, ...] = ("repro.lint",)

    def applies_to(self, module: str) -> bool:
        def match(prefix: str) -> bool:
            return module == prefix or module.startswith(prefix + ".")
        if any(match(p) for p in self.exclude):
            return False
        if self.scope is None:
            return True
        return any(match(p) for p in self.scope)

    def check_file(self, ctx: FileContext, project) -> None:
        """Visit one module (default: nothing)."""

    def check_project(self, project, contexts: list[FileContext]) -> None:
        """Run once over the cross-file model (default: nothing)."""
