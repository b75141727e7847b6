"""Facade rule: the CLI and the ``repro.api`` facade must not drift.

Every ``cli.py`` flag must round-trip through the facade -- either it
maps 1:1 onto a :class:`repro.api.RunRequest` field / facade function
parameter, it is a declared alias (``--no-store`` becomes
``use_store=False``; the recovery flags fold into one
``RecoveryPolicy``), or it is presentation-only (output shaping that
never reaches a simulation).  Conversely, a facade parameter with no CLI
spelling and no programmatic-only justification is a gap users will hit.
"""

from __future__ import annotations

from repro.lint.core import FileContext, Rule
from repro.lint.project import Project

__all__ = ["FacadeDriftRule", "FACADE_RULES"]


class FacadeDriftRule(Rule):
    id = "FAC001"
    severity = "error"
    description = "cli.py flags must round-trip through the repro.api facade"

    #: CLI dest -> the facade parameter it folds into.
    FLAG_ALIASES = {
        "no_store": "use_store",
        "ack_timeout": "recovery",
        "mshr_timeout": "recovery",
        "max_retries": "recovery",
        "adaptive_recovery": "recovery",
    }
    #: Dests that shape terminal output / subcommand routing only and
    #: deliberately never reach a simulation.
    PRESENTATION_ONLY = frozenset({
        "command", "stats", "output", "number", "action", "format",
        # explore: render the already-written trajectory.jsonl.
        "plot",
        # loadtest: exit-code shaping when probing rate limits.
        "expect_rejections",
    })
    #: Facade parameters with no CLI spelling by design: they only make
    #: sense with live Python objects in hand.
    PROGRAMMATIC_ONLY = frozenset({
        "base", "request", "runner", "verbose", "rate", "seed",
        # explore/loadtest: a progress callback (the CLI passes print).
        "progress",
        # serve: foreground vs. background is a calling-convention choice
        # (the CLI always serves in the foreground).
        "block",
    })

    def check_project(self, project: Project,
                      contexts: list[FileContext]) -> None:
        if not project.cli_dests or not project.facade_params:
            return
        cli_ctx = next((c for c in contexts
                        if c.real_path == project.cli_path), None)
        api_ctx = next((c for c in contexts
                        if c.real_path == project.api_path), None)
        facade = set(project.facade_params)
        covered = set(self.FLAG_ALIASES.values())
        if cli_ctx is not None:
            for dest, (flag, line) in sorted(project.cli_dests.items()):
                if dest in self.PRESENTATION_ONLY:
                    continue
                mapped = self.FLAG_ALIASES.get(dest, dest)
                if mapped not in facade:
                    cli_ctx.report(
                        self.id, "error", line,
                        f"CLI flag {flag!r} (dest {dest!r}) has no "
                        "matching repro.api parameter: facade drift -- "
                        "add it to RunRequest/make_runner or declare an "
                        "alias in the lint facade rule")
        if api_ctx is not None:
            spellable = ({self.FLAG_ALIASES.get(d, d)
                          for d in project.cli_dests} | covered
                         | self.PROGRAMMATIC_ONLY)
            for param in sorted(facade):
                if param not in spellable:
                    api_ctx.report(
                        self.id, "warning", 1,
                        f"facade parameter {param!r} has no CLI spelling; "
                        "expose a flag or mark it programmatic-only in "
                        "the lint facade rule")


FACADE_RULES = (FacadeDriftRule,)
