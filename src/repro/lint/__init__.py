"""``repro.lint``: AST-based determinism & protocol-consistency analyzer.

``docs/static-analysis.md`` lists every rule, its severity and what it
checks.

Suppress one finding with a trailing (or preceding standalone) comment::

    # lint: ignore[DET004] -- identity map keyed per-process only

The CONC rules additionally read lock-contract annotations on
attributes of lock-owning classes (same trailing/standalone placement)::

    # guarded-by: _lock
    # guarded-by: none -- monotonic counter, torn reads acceptable

The guarded-by contracts are enforced *at runtime* when
``REPRO_SANITIZE=1`` arms :mod:`repro.lint.sanitize`.
"""

from repro.lint.concurrency import (CONCURRENCY_RULES, build_manifest,
                                    parse_guard_annotations)
from repro.lint.core import Finding, FileContext, Rule, severity_rank
from repro.lint.project import Project, discover_project
from repro.lint.report import render_json, render_pretty, summary_line
from repro.lint.runner import ALL_RULES, LintReport, run_lint

__all__ = ["ALL_RULES", "CONCURRENCY_RULES", "Finding", "FileContext",
           "LintReport", "Project", "Rule", "build_manifest",
           "discover_project", "parse_guard_annotations", "render_json",
           "render_pretty", "run_lint", "severity_rank", "summary_line"]
