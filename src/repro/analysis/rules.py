"""The invariant rules: seven repo-specific checks and ``unused-import``.

Each rule is a generator ``check(ctx)`` over one parsed file that yields
``(node, message)`` for every violation; :data:`RULES` lists them with
their names and module scopes, in report order.  Rules are syntactic:
they see one file's AST and never import the code.  ``docs/lint.md``
holds the catalogue and the incident behind each rule.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .config import (
    DTYPE_CONSTRUCTORS,
    FAULT_MODULES,
    HOT_MODULES,
    PLACEMENT_MODULES,
    PUBLIC_API_MODULES,
    SIM_MODULES,
)
from .context import FileContext

__all__ = ["RULES"]

# What a rule yields: the flagged node and the message for it.
Hits = Iterator[tuple[ast.AST, str]]

_WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

# Attribute/method access that scalarises an array when iterated.
_SCALARIZING_METHODS = frozenset({"tolist", "flatten", "ravel", "item"})
_SCALARIZING_ATTRS = frozenset({"flat"})


def no_salted_hash(ctx: FileContext) -> Hits:
    """Builtin ``hash()`` banned where placement must be process-stable."""
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Name)
            and node.id == "hash"
            and isinstance(node.ctx, ast.Load)
            and "hash" not in ctx.aliases
        ):
            yield (
                node,
                "salted builtin hash() in placement-critical module; "
                "use repro.core.kernels.splitmix64 / hash_combine / "
                "stable_str_hash",
            )


def no_unseeded_rng(ctx: FileContext) -> Hits:
    """All randomness flows through seeded ``default_rng``/``Generator``."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qual = ctx.qualname(node.func)
        if qual is None:
            continue
        if qual.startswith("numpy.random."):
            tail = qual.rsplit(".", 1)[1]
            if tail == "default_rng" or tail[:1].isupper():
                # Seeded construction — only the zero-argument form
                # (fresh OS entropy) is nondeterministic.
                if not node.args and not node.keywords:
                    yield (
                        node,
                        f"{tail}() without a seed draws fresh OS "
                        "entropy; pass an explicit seed",
                    )
            else:
                yield (
                    node,
                    f"np.random.{tail}() uses the hidden global RNG; "
                    "use np.random.default_rng(seed)",
                )
        elif qual.startswith("random.") and qual.count(".") == 1:
            tail = qual.rsplit(".", 1)[1]
            if tail == "Random" and (node.args or node.keywords):
                continue  # random.Random(seed) is at least seeded
            yield (
                node,
                f"stdlib random.{tail}() is banned; use "
                "np.random.default_rng(seed)",
            )


def no_wallclock_in_sim(ctx: FileContext) -> Hits:
    """Wall-clock reads banned from simulation/model code."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qual = ctx.qualname(node.func)
        if qual in _WALLCLOCK_CALLS:
            yield (
                node,
                f"wall-clock read {qual}() in simulation/model code; "
                "use the simulated timeline (perf_counter is fine for "
                "measuring real compute)",
            )


def hot_loop(ctx: FileContext) -> Hits:
    """Per-element Python loops over array data in hot modules."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.For):
            why = _scalarizing_iter(ctx, node.iter)
            if why:
                yield (
                    node,
                    f"per-element loop over array data ({why}) in hot "
                    "module; vectorize or add `# repro-lint: "
                    "disable=hot-loop -- <reason>`",
                )
        elif isinstance(node, ast.While):
            why = _scalarizing_expr(ctx, node.test)
            if why:
                yield (
                    node,
                    f"per-element while loop ({why}) in hot module; "
                    "vectorize or add `# repro-lint: disable=hot-loop "
                    "-- <reason>`",
                )


def dtype_discipline(ctx: FileContext) -> Hits:
    """Array constructors in hot modules must pin ``dtype=`` explicitly,
    and statically-known float lanes must not mix in one expression."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qual = ctx.qualname(node.func)
        if qual not in DTYPE_CONSTRUCTORS:
            continue
        if any(kw.arg == "dtype" for kw in node.keywords):
            continue
        tail = qual.rsplit(".", 1)[1]
        hint = (
            "use a checked coercer from repro.core.dtypes"
            if tail == "asarray"
            else "pass dtype= explicitly"
        )
        yield (
            node,
            f"np.{tail}(...) without an explicit dtype= in a hot "
            f"module silently inherits a platform/input-dependent "
            f"dtype; {hint}",
        )
    yield from _mixed_lanes(ctx)


def _mixed_lanes(ctx: FileContext) -> Hits:
    """Flag binary ops whose operands sit on different float lanes.

    Lane inference is deliberately shallow and syntactic: a name
    acquires a lane when it is assigned straight from an array
    constructor or ``.astype`` whose dtype is the *literal*
    ``np.float32``/``np.float64`` (or the equivalent string).  Only
    names with known, different lanes are reported — everything
    dynamic stays silent, so the check has no false positives on
    code that passes a dtype through (``dtype=self.dtype`` records
    nothing).
    """
    scopes: list[ast.AST] = [ctx.tree]
    scopes.extend(
        n
        for n in ast.walk(ctx.tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    seen: set[int] = set()
    for scope in scopes:
        lanes: dict[str, str] = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    lane = _expr_lane(ctx, node.value)
                    if lane is not None:
                        lanes[target.id] = lane
        for node in ast.walk(scope):
            if not isinstance(node, ast.BinOp) or id(node) in seen:
                continue
            left = _operand_lane(ctx, node.left, lanes)
            right = _operand_lane(ctx, node.right, lanes)
            if (
                left is not None
                and right is not None
                and left[1] != right[1]
            ):
                seen.add(id(node))
                yield (
                    node,
                    f"binary op mixes float lanes ({left[0]}: "
                    f"{left[1]}, {right[0]}: {right[1]}); numpy "
                    "silently upcasts the result to float64 — coerce "
                    "both operands onto one lane first",
                )


def public_api(ctx: FileContext) -> Hits:
    """Public modules: docstring + resolvable, documented ``__all__``."""
    tree = ctx.tree
    if any(part.startswith("_") for part in ctx.module.split(".")):
        return
    if ast.get_docstring(tree) is None:
        yield tree, "public module is missing a module docstring"
    names, assign_node = _resolve_dunder_all(tree)
    if assign_node is None:
        yield (
            tree,
            "public module does not define __all__; declare the "
            "intended API surface",
        )
        return
    if names is None:
        yield (
            assign_node,
            "__all__ could not be resolved statically; use a literal "
            "list/tuple of strings (or list(<dict literal>))",
        )
        return
    seen: set[str] = set()
    for name in names:
        if name in seen:
            yield assign_node, f"duplicate name {name!r} in __all__"
        seen.add(name)
    bound, documented, has_getattr = _module_bindings(tree)
    for name in names:
        if name not in bound and not has_getattr:
            yield (
                assign_node,
                f"__all__ lists {name!r} but the module never binds it",
            )
        elif name in documented and not documented[name]:
            yield (
                assign_node,
                f"public name {name!r} in __all__ has no docstring",
            )


_BROAD_EXCEPTIONS = frozenset(
    {
        "Exception",
        "BaseException",
        "builtins.Exception",
        "builtins.BaseException",
    }
)


def no_bare_except(ctx: FileContext) -> Hits:
    """Swallowed exceptions banned from retry/fault-handling code."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield (
                node,
                "bare `except:` swallows everything including "
                "KeyboardInterrupt; catch a named exception class",
            )
            continue
        broad = _broad_exception_names(ctx, node.type)
        if not broad:
            continue
        if _handler_reraises_or_uses(node):
            continue
        caught = ", ".join(broad)
        yield (
            node,
            f"blanket `except {caught}` neither re-raises nor binds "
            "and uses the exception; narrow the class, re-raise, or "
            "record what was caught (`except ... as err`)",
        )


def unused_import(ctx: FileContext) -> Hits:
    """Module-level imports whose bound name the module never references."""
    if ctx.path.endswith("__init__.py"):
        return
    exported, _ = _resolve_dunder_all(ctx.tree)
    used = _referenced_names(ctx.tree) | set(exported or ())
    for node, bound in _module_imports(ctx.tree.body):
        if bound not in used:
            yield (
                node,
                f"{bound!r} is imported but never used; delete the "
                "import, or list the name in __all__ to re-export it",
            )


_ALL_MODULES = ("*",)

# (name, scope, check): the rule id used in reports and disable comments,
# fnmatch patterns over dotted module names, and the check.  This order is
# the report order.
RULES = (
    ("no-salted-hash", PLACEMENT_MODULES, no_salted_hash),
    ("no-unseeded-rng", _ALL_MODULES, no_unseeded_rng),
    ("no-wallclock-in-sim", SIM_MODULES, no_wallclock_in_sim),
    ("hot-loop", HOT_MODULES, hot_loop),
    ("dtype-discipline", HOT_MODULES, dtype_discipline),
    ("public-api", PUBLIC_API_MODULES, public_api),
    ("no-bare-except", FAULT_MODULES, no_bare_except),
    ("unused-import", _ALL_MODULES, unused_import),
)


# --------------------------------------------------------------------- helpers
_FLOAT_LANES = frozenset({"float32", "float64"})


def _broad_exception_names(ctx: FileContext, type_expr: ast.AST) -> list[str]:
    """Broad exception classes named by an ``except`` clause's type."""
    exprs = (
        list(type_expr.elts)
        if isinstance(type_expr, ast.Tuple)
        else [type_expr]
    )
    broad: list[str] = []
    for expr in exprs:
        qual = ctx.qualname(expr)
        if qual in _BROAD_EXCEPTIONS:
            broad.append(qual.rsplit(".", 1)[-1])
    return broad


def _handler_reraises_or_uses(handler: ast.ExceptHandler) -> bool:
    """Whether a broad handler re-raises or reads its bound exception.

    A handler is considered deliberate when its body contains a ``raise``
    (bare re-raise or ``raise Other(...) from err``), or when it binds the
    exception (``as err``) and actually loads that name — logging it,
    recording it on a report, attaching it to a result.
    """
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
    if handler.name:
        for node in ast.walk(handler):
            if (
                isinstance(node, ast.Name)
                and node.id == handler.name
                and isinstance(node.ctx, ast.Load)
            ):
                return True
    return False


def _module_imports(body: list[ast.stmt]) -> Iterator[tuple[ast.stmt, str]]:
    """``(statement, bound name)`` of every module-level import binding,
    including those under module-level ``if``/``try``/``with`` blocks."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".", 1)[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield node, alias.asname or alias.name
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_imports(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_imports(handler.body)


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted forward-reference annotations
    (``x: "SimClock"``) included."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        annotation = None
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        if annotation is None:
            continue
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    quoted = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(
                    n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
                )
    return used


def _literal_lane(ctx: FileContext, node: ast.AST) -> str | None:
    """Resolve a dtype expression to a literal float lane name, or None.

    Recognises ``np.float32`` / ``np.float64`` attribute access, the
    bare names after ``from numpy import float32``, and the string
    spellings ``"float32"`` / ``"float64"``.  Anything dynamic
    (variables, ``self.dtype``, policies) resolves to None.
    """
    if isinstance(node, ast.Constant) and node.value in _FLOAT_LANES:
        return str(node.value)
    qual = ctx.qualname(node)
    if qual is not None and qual.startswith("numpy."):
        tail = qual.split(".", 1)[1]
        if tail in _FLOAT_LANES:
            return tail
    return None


def _expr_lane(ctx: FileContext, value: ast.AST) -> str | None:
    """Float lane of an assignment's right-hand side, when static.

    Covers ``np.zeros(..., dtype=np.float32)``-style constructors and
    ``x.astype(np.float32)`` casts; returns the lane name or None.
    """
    if not isinstance(value, ast.Call):
        return None
    qual = ctx.qualname(value.func)
    if qual in DTYPE_CONSTRUCTORS or qual in (
        "numpy.zeros_like",
        "numpy.empty_like",
        "numpy.ones_like",
        "numpy.full_like",
        "numpy.array",
    ):
        for kw in value.keywords:
            if kw.arg == "dtype":
                return _literal_lane(ctx, kw.value)
        return None
    if (
        isinstance(value.func, ast.Attribute)
        and value.func.attr == "astype"
    ):
        if value.args:
            return _literal_lane(ctx, value.args[0])
        for kw in value.keywords:
            if kw.arg == "dtype":
                return _literal_lane(ctx, kw.value)
    return None


def _operand_lane(
    ctx: FileContext, node: ast.AST, lanes: dict[str, str]
) -> tuple[str, str] | None:
    """``(label, lane)`` of a binary-op operand, when statically known."""
    if isinstance(node, ast.Name):
        lane = lanes.get(node.id)
        return (node.id, lane) if lane is not None else None
    lane = _expr_lane(ctx, node)
    if lane is not None:
        return (ast.unparse(node) if hasattr(ast, "unparse") else "<expr>", lane)
    return None


def _scalarizing_expr(ctx: FileContext, expr: ast.AST) -> str | None:
    """Why ``expr`` scalarises array data, or None if it doesn't."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in _SCALARIZING_METHODS:
                return f".{node.func.attr}()"
        elif isinstance(node, ast.Attribute):
            if node.attr in _SCALARIZING_ATTRS and isinstance(
                node.ctx, ast.Load
            ):
                return f".{node.attr}"
        elif isinstance(node, ast.Call):
            qual = ctx.qualname(node.func)
            if qual == "numpy.nditer":
                return "np.nditer"
    return None


def _scalarizing_iter(ctx: FileContext, iter_expr: ast.AST) -> str | None:
    """Why iterating ``iter_expr`` is per-element, or None.

    Catches ``.tolist()/.flat/np.nditer`` anywhere in the iterable
    (including inside ``zip``/``enumerate``/``reversed``) and the classic
    index loop ``range(len(x))`` / ``range(x.size)`` / ``range(x.shape[i])``
    — but allows the 3-argument strided form ``range(lo, hi, step)``,
    which is how chunked whole-array passes are written.
    """
    why = _scalarizing_expr(ctx, iter_expr)
    if why:
        return why
    for node in ast.walk(iter_expr):
        if not (
            isinstance(node, ast.Call)
            and ctx.qualname(node.func) == "range"
            and len(node.args) <= 2
        ):
            continue
        for arg in node.args:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Call) and ctx.qualname(sub.func) == "len":
                    return "range(len(...))"
                if isinstance(sub, ast.Attribute) and sub.attr in (
                    "size",
                    "shape",
                ):
                    return f"range(.{sub.attr})"
    return None


def _resolve_dunder_all(
    tree: ast.Module,
) -> tuple[list[str] | None, ast.AST | None]:
    """Statically resolve ``__all__``: ``(names, assignment node)``.

    ``names`` is None when ``__all__`` exists but is not resolvable; the
    node is None when ``__all__`` is absent.  Handles literal lists and
    tuples, ``+``-concatenation of resolvables, and the lazy-export
    pattern ``__all__ = list(_EXPORTS)`` where ``_EXPORTS`` is a module-
    level dict literal with constant string keys.
    """
    dict_literals: dict[str, ast.Dict] = {}
    assignment: ast.AST | None = None
    value: ast.AST | None = None
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if isinstance(node.value, ast.Dict):
                        dict_literals[target.id] = node.value
                    if target.id == "__all__":
                        assignment, value = node, node.value
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == "__all__"
                and node.value is not None
            ):
                assignment, value = node, node.value
    if assignment is None:
        return None, None
    return _resolve_name_list(value, dict_literals), assignment


def _resolve_name_list(
    value: ast.AST | None, dict_literals: dict[str, ast.Dict]
) -> list[str] | None:
    if isinstance(value, (ast.List, ast.Tuple)):
        names: list[str] = []
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                names.append(element.value)
            else:
                return None
        return names
    if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add):
        left = _resolve_name_list(value.left, dict_literals)
        right = _resolve_name_list(value.right, dict_literals)
        if left is None or right is None:
            return None
        return left + right
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("list", "sorted", "tuple")
        and len(value.args) == 1
        and isinstance(value.args[0], ast.Name)
        and value.args[0].id in dict_literals
    ):
        keys = dict_literals[value.args[0].id].keys
        names = []
        for key in keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                names.append(key.value)
            else:
                return None
        return sorted(names) if value.func.id == "sorted" else names
    return None


def _module_bindings(
    tree: ast.Module,
) -> tuple[set[str], dict[str, bool], bool]:
    """Top-level bindings: ``(bound names, def/class -> documented, lazy?)``."""
    bound: set[str] = set()
    documented: dict[str, bool] = {}
    has_getattr = False
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound.add(node.name)
            if node.name == "__getattr__":
                has_getattr = True
            documented[node.name] = ast.get_docstring(node) is not None
        elif isinstance(node, ast.ClassDef):
            bound.add(node.name)
            documented[node.name] = ast.get_docstring(node) is not None
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        bound.add(sub.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".", 1)[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, (ast.If, ast.Try)):
            # conditional defs (TYPE_CHECKING, optional deps): count any
            # binding anywhere inside
            for sub in ast.walk(node):
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    bound.add(sub.name)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        for name in ast.walk(target):
                            if isinstance(name, ast.Name):
                                bound.add(name.id)
                elif isinstance(sub, ast.ImportFrom):
                    for alias in sub.names:
                        if alias.name != "*":
                            bound.add(alias.asname or alias.name)
    return bound, documented, has_getattr
