"""AST invariant linter: the repo's determinism and hot-path rules, machine-checked.

This package turns the invariants this codebase repeatedly re-learned the
hard way into blocking CI checks: the salted builtin ``hash()`` purges of
PR 1 (request routing) and PR 2 (shard placement), the per-id Python
loops PR 5 had to re-vectorize out of hot paths, and the id/key/row dtype
discipline nothing previously enforced.  Eight repo-specific rules, plus
the generic ``unused-import`` check, run over a single shared parse per
file; see ``docs/lint.md`` for the catalogue, the incident history behind
each rule, and the suppression syntax.

Programmatic use::

    from repro.analysis import LintConfig, lint_paths

    result = lint_paths(["src"], LintConfig())
    assert not result.errors

Command line (exit code 1 on any error finding)::

    python -m repro.analysis src tests benchmarks examples
"""

from .config import (
    DTYPE_CONSTRUCTORS,
    FAULT_MODULES,
    HOT_MODULES,
    PLACEMENT_MODULES,
    PUBLIC_API_MODULES,
    SIM_MODULES,
    LintConfig,
)
from .context import FileContext, Suppression, module_name_for
from .engine import LintResult, iter_python_files, lint_file, lint_paths
from .engine import lint_context
from .registry import ERROR, WARNING, Finding, Rule, all_rules, register, rule_names
from .reporters import JSON_SCHEMA_VERSION, render_json, render_text
from .cli import main

__all__ = [
    "DTYPE_CONSTRUCTORS",
    "FAULT_MODULES",
    "HOT_MODULES",
    "PLACEMENT_MODULES",
    "PUBLIC_API_MODULES",
    "SIM_MODULES",
    "LintConfig",
    "FileContext",
    "Suppression",
    "module_name_for",
    "LintResult",
    "iter_python_files",
    "lint_file",
    "lint_context",
    "lint_paths",
    "ERROR",
    "WARNING",
    "Finding",
    "Rule",
    "all_rules",
    "register",
    "rule_names",
    "JSON_SCHEMA_VERSION",
    "render_json",
    "render_text",
    "main",
]
