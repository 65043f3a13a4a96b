"""AST invariant linter: the repo's determinism and hot-path rules, machine-checked.

This package turns the invariants this codebase repeatedly re-learned the
hard way into blocking CI checks: the salted builtin ``hash()`` purges of
PR 1 (request routing) and PR 2 (shard placement), the per-id Python
loops PR 5 had to re-vectorize out of hot paths, and the id/key/row dtype
discipline nothing previously enforced.  Eight repo-specific rules, plus
the generic ``unused-import`` check, run in one fixed order
(:data:`~repro.analysis.rules.RULES`) over a single shared parse per
file; every active finding fails the run, and a suppression comment
always needs a reason.  See ``docs/lint.md`` for the catalogue, the
incident history behind each rule, and the suppression syntax.

Programmatic use::

    from repro.analysis import lint_paths

    result = lint_paths(["src"])
    assert not result.errors

Command line (paths only; exit code 1 on any active finding)::

    python -m repro.analysis src tests benchmarks examples
"""

from .context import FileContext, Suppression, module_name_for
from .engine import Finding, LintResult, lint_context, lint_file, lint_paths
from .rules import RULES
from .cli import main, render_text

__all__ = [
    "FileContext",
    "Suppression",
    "module_name_for",
    "Finding",
    "LintResult",
    "lint_context",
    "lint_file",
    "lint_paths",
    "RULES",
    "main",
    "render_text",
]
