"""Lint driver: collect files, run every rule.

:func:`run_lint` is the single entry point used by both ``repro lint``
and :func:`repro.api.lint`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.concurrency import CONCURRENCY_RULES
from repro.lint.core import Finding, FileContext, Rule
from repro.lint.determinism import DETERMINISM_RULES
from repro.lint.facade import FACADE_RULES
from repro.lint.perf import PERF_RULES
from repro.lint.project import Project, discover_project
from repro.lint.protocol import PROTOCOL_RULES

__all__ = ["ALL_RULES", "LintReport", "run_lint"]

#: Every shipped rule class, in reporting-id order.
ALL_RULES: tuple[type[Rule], ...] = (
    DETERMINISM_RULES + PROTOCOL_RULES + FACADE_RULES + CONCURRENCY_RULES
    + PERF_RULES)


@dataclass
class LintReport:
    """What one lint invocation produced."""

    findings: list[Finding] = field(default_factory=list)
    files: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1


def _collect_files(paths) -> list[Path]:
    """The ``.py`` files under ``paths``, resolved and de-duplicated.
    Raises ``ValueError`` for a path that is neither a directory nor a
    ``.py`` file, so a mistyped path fails instead of linting nothing."""
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(f for f in sorted(p.rglob("*.py"))
                         if "__pycache__" not in f.parts)
        elif p.is_file() and p.suffix == ".py":
            files.append(p)
        else:
            raise ValueError(f"lint: {p}: not a directory or a .py file")
    # resolve + de-duplicate while keeping a stable order
    seen: set[Path] = set()
    out = []
    for f in files:
        r = f.resolve()
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


def _module_name(path: Path) -> str:
    """Dotted module for scope checks: .../src/repro/sim/store.py ->
    'repro.sim.store'.  Files outside a repro package use their stem."""
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return ".".join(parts[i:])
    return parts[-1] if parts else str(path)


def _display_root(project: Project | None) -> Path:
    """The repository root, when the package sits in a conventional
    ``src/repro`` checkout (else the package's parent), or the cwd when
    no package was found: findings show paths relative to it, so a lint
    run from anywhere prints the same paths."""
    if project is None or not project.root:
        return Path.cwd().resolve()
    pkg = Path(project.root)
    root = pkg.parent.parent if pkg.parent.name == "src" else pkg.parent
    return root.resolve()


def run_lint(paths, *, project: Project | None = None,
             rules=None) -> LintReport:
    """Lint ``paths`` (files or directories).

    ``project`` overrides contract discovery (tests).  ``rules``
    restricts to an iterable of rule ids.  Raises ``ValueError`` for an
    unknown rule id, for ``rules`` that names no id (a run of no rule
    would report a clean tree), or for a path that is neither a
    directory nor a ``.py`` file.
    """
    wanted = set(rules) if rules is not None else None
    known = [cls.id for cls in ALL_RULES]
    if wanted is not None and not wanted:
        raise ValueError(f"lint: no rule id given; known: {', '.join(known)}")
    unknown = sorted(wanted.difference(known)) if wanted else []
    if unknown:
        raise ValueError(f"lint: unknown rule id(s) {', '.join(unknown)}; "
                         f"known: {', '.join(known)}")
    files = _collect_files(paths)
    if project is None:
        project = discover_project(files)
    display_root = _display_root(project)

    contexts: list[FileContext] = []
    findings: list[Finding] = []
    for f in files:
        try:
            shown = str(f.relative_to(display_root))
        except ValueError:
            shown = str(f)
        source = f.read_text()
        try:
            contexts.append(FileContext(shown, source, _module_name(f),
                                        real_path=str(f)))
        except SyntaxError as e:
            findings.append(Finding(
                rule="LINT003", severity="error", path=shown,
                line=e.lineno or 1, col=(e.offset or 1) - 1,
                message=f"syntax error: {e.msg}"))

    active = [cls() for cls in ALL_RULES
              if wanted is None or cls.id in wanted]
    for rule in active:
        for ctx in contexts:
            if rule.applies_to(ctx.module):
                rule.check_file(ctx, project)
    if project is not None:
        scoped = [c for c in contexts
                  if not c.module.startswith("repro.lint")]
        for rule in active:
            rule.check_project(project, scoped)
    for ctx in contexts:
        ctx.finish(wanted)
        findings.extend(ctx.findings)

    return LintReport(findings=findings, files=len(files))
