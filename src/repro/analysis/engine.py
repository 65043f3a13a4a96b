"""Lint driver: discover files, parse once, run every rule in scope.

The engine is the only layer that touches the filesystem.  Each file is
parsed into one :class:`repro.analysis.context.FileContext`; every rule
in :data:`repro.analysis.rules.RULES` whose scope matches the file's
dotted module name then runs against that shared parse, and the engine
turns each ``(node, message)`` it yields into a :class:`Finding`,
applying the file's suppression comments.  Unparsable files surface as
``syntax-error`` findings rather than crashing the run.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .context import FileContext
from .rules import RULES

__all__ = ["Finding", "LintResult", "iter_python_files", "lint_file", "lint_paths"]

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    # the ``-- <reason>`` of the disable comment silencing this finding
    suppress_reason: str | None

    @property
    def suppressed(self) -> bool:
        """Whether a reasoned disable comment silences this finding."""
        return self.suppress_reason is not None

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list, init=False)
    files_scanned: int = 0

    @property
    def errors(self) -> list[Finding]:
        """Findings not silenced by a suppression comment (these fail the run)."""
        return [f for f in self.findings if not f.suppressed]

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


def lint_file(path: str | Path) -> list[Finding]:
    """Lint one file; a parse failure yields a ``syntax-error`` finding."""
    try:
        ctx = FileContext.from_path(path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="syntax-error",
                path=str(path),
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
                suppress_reason=None,
            )
        ]
    return lint_context(ctx)


def lint_context(ctx: FileContext) -> list[Finding]:
    """Run every in-scope rule against one parsed file.

    A disable comment without a ``-- <reason>`` never suppresses: the
    finding stays active with a note asking for the reason.
    """
    findings: list[Finding] = []
    for name, scope, check in RULES:
        if not any(fnmatch.fnmatchcase(ctx.module, pat) for pat in scope):
            continue
        for node, message in check(ctx):
            line = getattr(node, "lineno", 1)
            end_line = getattr(node, "end_lineno", None) or line
            sup = ctx.suppression_for(name, line, end_line)
            if sup is not None and not sup.reason:
                message += (
                    " (suppression needs a reason: `# repro-lint: "
                    f"disable={name} -- <why>`)"
                )
            findings.append(
                Finding(
                    rule=name,
                    path=ctx.path,
                    line=line,
                    col=getattr(node, "col_offset", 0),
                    message=message,
                    suppress_reason=sup.reason if sup is not None else None,
                )
            )
    findings.sort(key=Finding.sort_key)
    return findings


def lint_paths(paths: Iterable[str | Path]) -> LintResult:
    """Lint every Python file under ``paths``."""
    result = LintResult()
    for path in iter_python_files(list(paths)):
        result.files_scanned += 1
        result.findings.extend(lint_file(path))
    result.findings.sort(key=Finding.sort_key)
    return result
