"""Rule base class, findings, and the rule registry.

A rule is a small class with a ``name``, a module ``scope`` (fnmatch
patterns over dotted module names, one of the
:mod:`repro.analysis.config` constants), and a :meth:`Rule.check`
generator yielding :class:`Finding` objects.  Registration is a decorator::

    @register
    class MyRule(Rule):
        name = "my-rule"
        description = "what it catches"

        def check(self, ctx):
            ...
            yield self.finding(ctx, node, "message")

The registry is ordered (definition order) so reports are stable.
"""

from __future__ import annotations

import ast
import fnmatch
from dataclasses import dataclass, replace
from typing import Iterable, Type

from .context import FileContext

__all__ = [
    "ERROR",
    "WARNING",
    "Finding",
    "Rule",
    "register",
    "all_rules",
    "rule_names",
]

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    severity: str
    message: str
    suppressed: bool = False
    suppress_reason: str | None = None
    # last line the flagged node spans — suppression comments anywhere in
    # the span count; omitted from the JSON payload
    end_line: int | None = None

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def as_dict(self) -> dict:
        """JSON-reporter payload for this finding."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
            "suppressed": self.suppressed,
            "suppress_reason": self.suppress_reason,
        }


class Rule:
    """Base class for invariant-lint rules.

    Class attributes:
        name: rule id used in reports, config and disable comments.
        description: one-line catalogue entry (``--list-rules``).
        default_severity: ``"error"`` or ``"warning"``.
        scope: fnmatch patterns over dotted module names the rule applies
            to.
        requires_reason: when True, a ``disable=`` comment without a
            ``-- <reason>`` does *not* suppress — the finding stays live
            with a note demanding the reason.
    """

    name: str = ""
    description: str = ""
    default_severity: str = ERROR
    scope: tuple[str, ...] = ("*",)
    requires_reason: bool = False

    def check(self, ctx: FileContext) -> Iterable[Finding]:  # pragma: no cover - interface
        raise NotImplementedError

    def applies_to(self, module: str) -> bool:
        """Whether this rule runs on ``module``."""
        return any(fnmatch.fnmatchcase(module, pat) for pat in self.scope)

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=self.name,
            path=ctx.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            severity=self.default_severity,
            message=message,
            end_line=getattr(node, "end_lineno", None) or line,
        )

    def resolve(self, ctx: FileContext, raw: Finding) -> Finding:
        """Apply suppression comments to ``raw``."""
        node = _Anchor(raw.line, raw.end_line or raw.line)
        sup = ctx.suppression_for(self.name, node)
        if sup is None:
            return raw
        if self.requires_reason and not sup.reason:
            return replace(
                raw,
                message=raw.message
                + " (suppression needs a reason: `# repro-lint: "
                f"disable={self.name} -- <why>`)",
            )
        return replace(raw, suppressed=True, suppress_reason=sup.reason)


class _Anchor:
    """Minimal line-span shim for suppression lookup on resolved findings."""

    def __init__(self, lineno: int, end_lineno: int) -> None:
        self.lineno = lineno
        self.end_lineno = end_lineno


_REGISTRY: list[Type[Rule]] = []


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``rule_cls`` to the global registry."""
    if not rule_cls.name:
        raise ValueError("rule must define a non-empty name")
    if any(existing.name == rule_cls.name for existing in _REGISTRY):
        raise ValueError(f"duplicate rule name {rule_cls.name!r}")
    _REGISTRY.append(rule_cls)
    return rule_cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in definition order."""
    return [cls() for cls in _REGISTRY]


def rule_names() -> list[str]:
    """Registered rule ids, in definition order."""
    return [cls.name for cls in _REGISTRY]

