"""Shared per-file parse state for the invariant linter.

Every rule in :mod:`repro.analysis.rules` runs against one
:class:`FileContext`: the file is read and parsed **once**, suppression
comments are extracted once (via :mod:`tokenize`, so strings containing
``#`` never confuse the scan), and the import-alias map used to resolve
dotted call names (``np.random.default_rng`` -> ``numpy.random.default_rng``)
is built once.  Rules stay cheap and purely syntactic.

Suppression syntax
------------------
``# repro-lint: disable=<rule>[,<rule>...] -- <reason>`` on any line a
flagged node spans, or on its own line directly above it.  Every rule
requires the ``-- <reason>`` part: a reasonless disable suppresses
nothing, and the finding it sits on says so.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Suppression", "FileContext", "module_name_for"]

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s-]+?)"
    r"(?:\s*--\s*(.+?))?\s*$"
)

# Directory names that anchor a dotted module name.  Files under ``src``
# become real package paths (``repro.core.kernels``); files under the
# sibling trees keep the tree name as a pseudo-package (``tests.test_x``)
# so rule scopes can target them with the same fnmatch patterns.
_ROOT_MARKERS = ("src", "tests", "benchmarks", "examples")


def module_name_for(path: str | Path) -> str:
    """Dotted module name for ``path``, anchored at ``src``/``tests``/etc.

    ``src/repro/core/kernels.py`` -> ``repro.core.kernels``;
    ``tests/test_docs.py`` -> ``tests.test_docs``; a package
    ``__init__.py`` maps to the package itself.  Paths with no known
    anchor fall back to the file stem.
    """
    parts = Path(path).with_suffix("").parts
    anchor = None
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] in _ROOT_MARKERS:
            anchor = i
            break
    if anchor is None:
        dotted = [parts[-1]]
    elif parts[anchor] == "src":
        dotted = list(parts[anchor + 1 :])
    else:
        dotted = list(parts[anchor:])
    if dotted and dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted) if dotted else Path(path).stem


@dataclass(frozen=True)
class Suppression:
    """One ``# repro-lint: disable=...`` comment."""

    rules: frozenset[str]
    reason: str | None


@dataclass
class FileContext:
    """One parsed file: source, AST, suppressions, import aliases."""

    path: str
    module: str
    source: str
    tree: ast.Module
    suppressions: dict[int, Suppression] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, path: str | Path) -> "FileContext":
        """Parse ``source`` as the file at ``path`` (may raise SyntaxError)."""
        path = str(path)
        tree = ast.parse(source, filename=path)
        ctx = cls(
            path=path,
            module=module_name_for(path),
            source=source,
            tree=tree,
        )
        ctx.suppressions = _scan_suppressions(source)
        ctx.aliases = _import_aliases(tree)
        return ctx

    @classmethod
    def from_path(cls, path: str | Path) -> "FileContext":
        """Read and parse the file at ``path`` (may raise SyntaxError)."""
        text = Path(path).read_text(encoding="utf-8")
        return cls.from_source(text, path)

    # ------------------------------------------------------------ resolution
    def qualname(self, node: ast.AST) -> str | None:
        """Canonical dotted name of a Name/Attribute chain, or None.

        The head segment resolves through the file's import aliases, so
        ``np.random.rand`` and ``numpy.random.rand`` both canonicalise to
        ``numpy.random.rand`` and ``from time import time; time()``
        canonicalises to ``time.time``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self.aliases.get(node.id, node.id)
        parts.append(head)
        return ".".join(reversed(parts))

    def suppression_for(self, rule: str, start: int, end: int) -> Suppression | None:
        """The disable comment covering ``rule`` for a node on lines ``start..end``.

        A comment counts when it sits on any line the node spans, or on
        its own line directly above the node (the readable placement for
        statements too long to carry a trailing comment).
        """
        for line in range(start - 1, end + 1):
            sup = self.suppressions.get(line)
            if sup is not None and rule in sup.rules:
                return sup
        return None


def _scan_suppressions(source: str) -> dict[int, Suppression]:
    """Map line number -> suppression for every disable comment."""
    out: dict[int, Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return out
    for line, text in comments:
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = frozenset(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        reason = match.group(2)
        out[line] = Suppression(rules=rules, reason=reason)
    return out


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Bound name -> canonical dotted origin, from every import in the file."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else bound
                aliases[bound] = target
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                aliases[bound] = f"{module}.{alias.name}" if module else alias.name
    return aliases
