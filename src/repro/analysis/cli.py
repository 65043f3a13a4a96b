"""Command line for the invariant linter: ``python -m repro.analysis PATH...``.

It takes paths only.  Exit codes:

* ``0`` — scan completed, no active findings.
* ``1`` — at least one active finding (or an unparsable file).
* ``2`` — no paths given, or a path that does not exist.

Example::

    python -m repro.analysis src tests benchmarks examples
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Sequence

from .engine import LintResult, lint_paths

__all__ = ["main", "render_text"]

_USAGE = "usage: python -m repro.analysis PATH [PATH ...]"


def render_text(result: LintResult) -> str:
    """One ``path:line:col: rule: message`` line per finding, then a summary.

    A suppressed finding shows its reason in place of the message.
    """
    lines = []
    for finding in result.findings:
        text = finding.message
        if finding.suppressed:
            text = f"suppressed -- {finding.suppress_reason}"
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col + 1}: "
            f"{finding.rule}: {text}"
        )
    lines.append(
        f"{result.files_scanned} files scanned: {len(result.errors)} "
        f"error(s), {len(result.suppressed)} suppressed"
    )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """Run the linter; returns the process exit code."""
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print(f"{_USAGE}\nerror: no paths given", file=sys.stderr)
        return 2
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        print(
            f"{_USAGE}\nerror: no such path(s): {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    result = lint_paths(paths)
    print(render_text(result))
    return 1 if result.errors else 0
