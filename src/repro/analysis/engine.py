"""Lint driver: discover files, parse once, run every rule in scope.

The engine is the only layer that touches the filesystem.  Each file is
parsed into one :class:`repro.analysis.context.FileContext`; every
enabled rule whose scope matches the file's dotted module name then runs
against that shared parse.  Unparsable files surface as ``syntax-error``
findings rather than crashing the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .config import LintConfig
from .context import FileContext
from .registry import ERROR, Finding, all_rules

# repro-lint: disable=unused-import -- imported to register the builtin rules
from . import rules as _rules  # noqa: F401

__all__ = ["LintResult", "iter_python_files", "lint_file", "lint_paths"]

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list, init=False)
    files_scanned: int = 0

    @property
    def active(self) -> list[Finding]:
        """Findings not silenced by a suppression comment."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def errors(self) -> list[Finding]:
        """Active findings at error severity (these fail the run)."""
        return [f for f in self.active if f.severity == ERROR]

    @property
    def warnings(self) -> list[Finding]:
        """Active findings at warning severity."""
        return [f for f in self.active if f.severity != ERROR]

    @property
    def suppressed(self) -> list[Finding]:
        """Findings silenced by ``# repro-lint: disable=`` comments."""
        return [f for f in self.findings if f.suppressed]


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths``, sorted, caches skipped."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for sub in sorted(path.rglob("*.py")):
            if not any(part in _SKIP_DIRS for part in sub.parts):
                yield sub


def lint_file(
    path: str | Path, config: LintConfig | None = None
) -> list[Finding]:
    """Lint one file; a parse failure yields a ``syntax-error`` finding."""
    config = config or LintConfig()
    try:
        ctx = FileContext.from_path(path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="syntax-error",
                path=str(path),
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                severity=ERROR,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    return lint_context(ctx, config)


def lint_context(
    ctx: FileContext, config: LintConfig | None = None
) -> list[Finding]:
    """Run every enabled, in-scope rule against one parsed file."""
    config = config or LintConfig()
    findings: list[Finding] = []
    for rule in all_rules():
        if not config.rule_enabled(rule.name):
            continue
        if not rule.applies_to(ctx.module):
            continue
        for raw in rule.check(ctx):
            findings.append(rule.resolve(ctx, raw))
    findings.sort(key=Finding.sort_key)
    return findings


def lint_paths(
    paths: Iterable[str | Path], config: LintConfig | None = None
) -> LintResult:
    """Lint every Python file under ``paths``."""
    config = config or LintConfig()
    result = LintResult()
    for path in iter_python_files(list(paths)):
        result.files_scanned += 1
        result.findings.extend(lint_file(path, config))
    result.findings.sort(key=Finding.sort_key)
    return result
