"""Every ``src/`` module is run by something other than the tests.

The roots are every non-``__init__`` module under ``src/`` (``__main__``
entry points included) and every file under ``benchmarks/`` and
``examples/``.  A module is reached when a root imports it directly, or
imports a name a package ``__init__`` re-exports from it (``from
repro.cluster import X``, the ``repro.core`` lazy ``_EXPORTS`` map, or
``import repro.dlrm`` followed by ``repro.dlrm.X``).  A package
``__init__``'s own imports reach nothing: a module only the tests and its
package re-export name is dead weight.  A flagged module gets wired into
a workload, benchmark or example, or deleted; there is no allow-list.

The symbol guard goes one level down, with the same roots and no
allow-list: every top-level function and class of a ``src/`` module, and
every method of such a class, must be reached.  A symbol is reached when
another root file names it (a ``Name``, an ``Attribute`` or an import
alias), when its own module names it outside its own body, when a string
literal under ``benchmarks/`` names it (``SpanRecorder.patch(store,
"pull_delta", ...)`` wraps methods by attribute name), when a
``getattr`` / ``hasattr`` / ``setattr`` in ``src/`` names it.  A
decorator reaches nothing.  ``__all__`` lists, ``repro.core``'s lazy
``_EXPORTS`` and package ``__init__`` re-imports reach nothing, as for
modules.  ``@property`` and ``@cached_property`` accessors are symbols
too, reached the same way (a read is an ``Attribute`` of their name); a
property's own ``@x.setter`` / ``@x.deleter`` companions go with it and
do not reach it.  Dunders are out of scope.  Matching is by name, so a
collision counts as reached, which errs safe.  Each flagged symbol is
deleted, moved to ``tests/reference/`` when the tests use it as an
oracle, or given a caller in a workload, benchmark or example.

The parameter guard goes one level further down, again with the same
roots and no allow-list: every defaulted parameter of every ``src/``
function and method, keyword-only ones included, must be passed by some
root call outside the function's own body, by keyword or by position
(``self``/``cls`` allowed for).  A constructor is called by its class's
name, by ``cls(...)`` inside the class, by a subclass without its own
``__init__``, or by a subclass's ``super().__init__(...)``.  A call that
spreads ``*args`` or ``**kwargs`` passes everything, and matching is by
name, so a same-named function's call counts too, which errs safe.
Inside the class that defines the callee, an argument that is
``self.<param>`` hands the value back and sets nothing (``ShardPlacement
.with_shard_added`` passing ``self.virtual_nodes`` kept a constant
looking like an option).  A flagged ``path:line func(param=)`` is an
option nothing sets: fold its default into the body and delete the
branch it gated, give it a real caller, or move the function out of
``src/``.

The field guard does the same for configuration objects, again with the
same roots and no allow-list: every defaulted field of every ``src/``
``@dataclass`` must be set by some root.  ``field(init=False)`` state and
``ClassVar`` constants are out of scope.  A field is set when a call of
its class passes it by keyword or by position (``cls(...)`` and
``*``/``**`` spreads count, as above), when a ``replace(..., field=)``
names it, or when any attribute of its name is stored to; a name
collision counts as set, which errs safe.  A flagged ``path:line
Class.field`` is a setting nothing changes: mark state ``init=False``,
delete a field nothing reads, or make its value a constant where it is
used and delete the branch it gated.
"""

from __future__ import annotations

import ast
import functools
import importlib
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(p): p for p in SRC.rglob("*.py")}
PACKAGES = {name for name, p in MODULES.items() if p.name == "__init__.py"}


def _absolute(node: ast.ImportFrom, package: str) -> str:
    """The absolute module of a (possibly relative) ``from`` import."""
    if not node.level:
        return node.module or ""
    base = package.split(".")[: len(package.split(".")) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _package_of(name: str, path: Path) -> str:
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


@functools.cache
def _tree(path: Path) -> ast.Module:
    """Each file is parsed once, whichever guard reads it first."""
    return ast.parse(path.read_text(), filename=str(path))


def _references(path: Path, package: str) -> set[str]:
    """Dotted names a file imports, plus attribute chains off ``import``s."""
    tree = _tree(path)
    refs: set[str] = set()
    bound: dict[str, str] = {}  # local name -> module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                refs.add(alias.name)
                local = alias.asname or alias.name.partition(".")[0]
                bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(node, package)
            for alias in node.names:
                refs.add(f"{module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{module}.{alias.name}"
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            refs.add(".".join([bound[node.id], *reversed(chain)]))
    return refs


def _exports(package: str) -> dict[str, str]:
    """Name -> submodule a package ``__init__`` re-exports it from."""
    tree = _tree(MODULES[package])
    out: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = _absolute(node, package)
            for alias in node.names:
                out[alias.asname or alias.name] = module
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            for key, value in zip(node.value.keys, node.value.values):
                if isinstance(key, ast.Constant) and isinstance(value, ast.Constant):
                    out[key.value] = f"{package}.{value.value}"
    return out


EXPORTS = {package: _exports(package) for package in PACKAGES}


def _resolve(ref: str) -> str | None:
    """The non-package module a dotted reference lands in, if any."""
    parts = ref.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        if module not in MODULES:
            continue
        if module not in PACKAGES:
            return module
        if cut == len(parts):
            return None
        target = EXPORTS[module].get(parts[cut])
        if target is None or target == module:
            return None
        return _resolve(".".join([target, *parts[cut:]]))
    return None


def unreachable_modules() -> list[str]:
    roots = [(p, _package_of(n, p)) for n, p in MODULES.items() if n not in PACKAGES]
    for folder in ("benchmarks", "examples"):
        roots += [(p, "") for p in (REPO / folder).rglob("*.py")]
    reached: set[str] = set()
    for path, package in roots:
        reached.update(_resolve(ref) for ref in _references(path, package))
    entry_points = {n for n in MODULES if n.endswith(".__main__")}
    return sorted(set(MODULES) - PACKAGES - entry_points - reached)


def test_every_src_module_is_reached_by_a_root():
    missing = unreachable_modules()
    assert not missing, f"no benchmark, example or src module runs {missing}"


def _names(node: ast.AST) -> Counter:
    """How often each identifier is named under ``node``."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
            if sub.asname:
                out[sub.asname] += 1
    return out


def _decorator_names(node) -> set[str]:
    out = set()
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(dec, ast.Name):
            out.add(dec.id)
        elif isinstance(dec, ast.Attribute):
            out.add(dec.attr)
    return out


_COMPANIONS = {"setter", "getter", "deleter"}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _symbols(tree: ast.Module):
    """``(qualified name, node, body)`` of every top-level def and class
    method or property the guard checks; ``body`` is the nodes whose own
    mentions of the name do not reach it (a property's companions too)."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield node.name, node, [node]
        if isinstance(node, ast.ClassDef):
            methods = [item for item in node.body if isinstance(item, _DEFS[:2])]
            for item in methods:
                if not _decorator_names(item) & _COMPANIONS:
                    body = [m for m in methods if m.name == item.name]
                    yield f"{node.name}.{item.name}", item, body


def _string_names(tree: ast.Module, probes_only: bool) -> set[str]:
    """Identifier string literals; with ``probes_only`` just the attribute
    names passed to ``getattr`` / ``hasattr`` / ``setattr``."""
    out = set()
    for node in ast.walk(tree):
        if probes_only:
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr", "setattr")
                and len(node.args) > 1
            ):
                continue
            node = node.args[1]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def unreached_symbols(
    src: Path, roots: list[Path], patchers: list[Path]
) -> list[str]:
    """``path:line Qual.name`` of every ``src`` symbol nothing reaches.

    ``roots`` are the non-``src`` root files (benchmarks, examples);
    ``patchers`` the files whose string literals name patched methods.
    """
    files = sorted(src.rglob("*.py"))
    root_files = [p for p in files if p.name != "__init__.py"] + roots
    names = {p: _names(_tree(p)) for p in root_files}
    named_in: dict[str, set[Path]] = {}
    for path, counts in names.items():
        for name in counts:
            named_in.setdefault(name, set()).add(path)
    by_string = set().union(
        *(_string_names(_tree(p), probes_only=False) for p in patchers),
        *(_string_names(_tree(p), probes_only=True) for p in files),
    )
    missing = []
    for path in files:
        own = names.get(path) or _names(_tree(path))
        for qual, node, body in _symbols(_tree(path)):
            name = node.name
            if (
                name.startswith("__") and name.endswith("__")
                or name in by_string
                or named_in.get(name, set()) - {path}
                or own[name] > sum(_names(part)[name] for part in body)
            ):
                continue
            missing.append(f"{path.relative_to(src.parent)}:{node.lineno} {qual}")
    return missing


def test_every_src_symbol_is_reached():
    benchmarks = sorted((REPO / "benchmarks").rglob("*.py"))
    examples = sorted((REPO / "examples").rglob("*.py"))
    missing = unreached_symbols(SRC, benchmarks + examples, benchmarks)
    assert not missing, (
        "no benchmark, example or other src module reaches these; delete "
        "them, move test oracles to tests/reference/, or give them a "
        "caller:\n" + "\n".join(missing)
    )


def _plant(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


_PLANTED = {
    "src/pkg/__init__.py": "from .mod import Store\n__all__ = ['Store', 'dead_fn']\n",
    "src/pkg/mod.py": (
        "class Store:\n"
        "    def read(self):\n"
        "        return self.read()\n"  # recursion alone reaches nothing
        "    def pull(self):\n"
        "        return 1\n"
        "    def probed(self):\n"
        "        return 2\n"
        "    def helper(self):\n"
        "        return 3\n"
        "    def caller(self):\n"
        "        return self.helper()\n"
        "    @property\n"
        "    def view(self):\n"
        "        return 4\n"
        "\n"
        "def dead_fn():\n"
        "    return 5\n"
    ),
    "src/pkg/user.py": (
        "from .mod import Store\n"
        "\n"
        "def use(store):\n"
        "    store.caller()\n"
        "    return store.view, getattr(store, 'probed', None)\n"
    ),
    "benchmarks/bench.py": (
        "from pkg.user import use\n"
        "from pkg.mod import Store\n"
        "\n"
        "def run(rec):\n"
        "    store = Store()\n"
        "    rec.patch(store, 'pull', 'store.pull')\n"
        "    return use(store)\n"
    ),
}


def test_symbol_guard_flags_a_planted_dead_method(tmp_path):
    root = _plant(tmp_path, _PLANTED)
    bench = [root / "benchmarks" / "bench.py"]
    missing = unreached_symbols(root / "src", bench, bench)
    assert missing == ["src/pkg/mod.py:2 Store.read", "src/pkg/mod.py:16 dead_fn"]


def test_symbol_guard_counts_patch_strings_and_probes(tmp_path):
    root = _plant(tmp_path, _PLANTED)
    bench = [root / "benchmarks" / "bench.py"]
    missing = unreached_symbols(root / "src", bench, bench)
    reached = {"Store.pull", "Store.probed", "Store.helper", "Store.view"}
    assert not reached & {m.split()[1] for m in missing}
    # without the benchmark's patch string, ``pull`` is dead
    assert "src/pkg/mod.py:4 Store.pull" in unreached_symbols(
        root / "src", bench, []
    )


_PLANTED_PROPERTIES = {
    "src/pkg/__init__.py": "",
    "src/pkg/box.py": (
        "from functools import cached_property\n"
        "\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self._n = 1\n"
        "    @property\n"
        "    def size(self):\n"
        "        return self._n\n"
        "    @property\n"
        "    def twice(self):\n"
        "        return 2 * self._n\n"
        "    @property\n"
        "    def unread(self):\n"
        "        return self._n\n"
        "    @unread.setter\n"  # its own setter does not reach it
        "    def unread(self, value):\n"
        "        self._n = value\n"
        "    @cached_property\n"
        "    def lazy(self):\n"
        "        return self.lazy\n"  # nor does its own body
        "    def grow(self):\n"
        "        return self.twice\n"  # a read in its own module does
    ),
    "benchmarks/bench.py": (
        "from pkg.box import Box\n"
        "\n"
        "def run():\n"
        "    box = Box()\n"
        "    return box.size, box.grow()\n"
    ),
}


def test_symbol_guard_flags_a_planted_unread_property(tmp_path):
    root = _plant(tmp_path, _PLANTED_PROPERTIES)
    bench = [root / "benchmarks" / "bench.py"]
    missing = unreached_symbols(root / "src", bench, bench)
    assert missing == ["src/pkg/box.py:13 Box.unread", "src/pkg/box.py:19 Box.lazy"]
    # the benchmark's read is what reaches ``size``
    files = dict(_PLANTED_PROPERTIES)
    files["benchmarks/bench.py"] = files["benchmarks/bench.py"].replace("box.size", "box")
    root = _plant(tmp_path / "unread", files)  # a fresh path: trees are cached
    bench = [root / "benchmarks" / "bench.py"]
    assert "src/pkg/box.py:7 Box.size" in unreached_symbols(root / "src", bench, bench)


def test_every_export_resolves():
    """Every ``__all__`` name of every ``repro`` package resolves, the lazy
    ``repro.core._EXPORTS`` map included (its ``__getattr__`` fails only
    on access, so a stale entry would otherwise pass)."""
    unresolved = []
    for name in sorted(PACKAGES):
        package = importlib.import_module(name)
        exported = set(getattr(package, "__all__", ()))
        exported |= set(getattr(package, "_EXPORTS", ()))
        unresolved += [f"{name}.{a}" for a in sorted(exported) if not hasattr(package, a)]
    assert not unresolved, f"exported names that resolve to nothing: {unresolved}"


def _calls(tree: ast.Module):
    """``(callee name, call, enclosing class name)`` of every call in a
    file.  The name is the called ``Name`` or attribute.  Inside a class
    body, ``cls(...)`` names that class and ``super().__init__(...)`` names
    each of its bases, so both reach the constructor they run."""
    out = []

    def visit(node, cls):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.Call):
                func = sub.func
                here = cls.name if cls else None
                if isinstance(func, ast.Name):
                    out.append((here if cls and func.id == "cls" else func.id, sub, here))
                elif isinstance(func, ast.Attribute):
                    if cls and func.attr == "__init__" and isinstance(func.value, ast.Call):
                        out.extend((base, sub, here) for base in _base_names(cls))
                    else:
                        out.append((func.attr, sub, here))
            visit(sub, sub if isinstance(sub, ast.ClassDef) else cls)

    visit(tree, None)
    return out


def _base_names(cls: ast.ClassDef) -> list[str]:
    return [b.id if isinstance(b, ast.Name) else b.attr for b in cls.bases
            if isinstance(b, ast.Name | ast.Attribute)]


def _defaulted(node, in_class: bool):
    """``(param, position or None)`` of every defaulted parameter; the
    position is what a call passes it at, ``self``/``cls`` allowed for."""
    args = node.args
    positional = args.posonlyargs + args.args
    shift = in_class and "staticmethod" not in _decorator_names(node)
    first = len(positional) - len(args.defaults)
    for i in range(first, len(positional)):
        yield positional[i].arg, i - shift
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(
    call: ast.Call, param: str, position: int | None, forwards: bool = False
) -> bool:
    """Whether ``call`` passes ``param``.  With ``forwards`` (the call sits
    in the class that defines the callee), an argument that is
    ``self.<param>`` hands the value back unchanged and sets nothing."""

    def sets(value: ast.expr) -> bool:
        return not (
            forwards
            and isinstance(value, ast.Attribute)
            and value.attr == param
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
        )

    if any(kw.arg is None or kw.arg == param and sets(kw.value) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position and sets(call.args[position])


def unpassed_parameters(src: Path, roots: list[Path]) -> list[str]:
    """``path:line func(param=)`` of every defaulted ``src`` parameter that
    no root call outside the function's own body passes."""
    files = sorted(src.rglob("*.py"))
    root_files = [p for p in files if p.name != "__init__.py"] + roots
    calls: dict[str, list[tuple[ast.Call, str | None]]] = {}
    for path in root_files:
        for name, call, here in _calls(_tree(path)):
            calls.setdefault(name, []).append((call, here))
    inherits: dict[str, list[str]] = {}
    for path in files:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ClassDef) and not any(
                isinstance(item, ast.FunctionDef) and item.name == "__init__"
                for item in node.body
            ):
                for base in _base_names(node):
                    inherits.setdefault(base, []).append(node.name)
    missing = []
    for path in files:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.ClassDef | ast.Module):
                continue
            in_class = isinstance(node, ast.ClassDef)
            for item in node.body:
                if not isinstance(item, _DEFS[:2]):
                    continue
                names = [item.name]
                if in_class and item.name == "__init__":
                    # a constructor is called by its class's name, or by
                    # the name of a subclass that does not define its own
                    names = [node.name] + inherits.get(node.name, [])
                own = {id(sub) for sub in ast.walk(item)}
                sites = [
                    (c, in_class and here == node.name)
                    for n in names
                    for c, here in calls.get(n, ())
                    if id(c) not in own
                ]
                for param, position in _defaulted(item, in_class):
                    if not any(_passes(c, param, position, fwd) for c, fwd in sites):
                        missing.append(
                            (path, item.lineno, f"{item.name}({param}=)")
                        )
    missing.sort(key=lambda m: m[:2])
    return [f"{p.relative_to(src.parent)}:{line} {what}" for p, line, what in missing]


def test_every_src_parameter_is_passed():
    benchmarks = sorted((REPO / "benchmarks").rglob("*.py"))
    examples = sorted((REPO / "examples").rglob("*.py"))
    missing = unpassed_parameters(SRC, benchmarks + examples)
    assert not missing, (
        "no benchmark, example or other src call passes these defaulted "
        "parameters; fold the default into the body, give the parameter a "
        "caller, or move the function out of src/:\n" + "\n".join(missing)
    )


_PLANTED_PARAMS = {
    "src/pkg/__init__.py": "",
    "src/pkg/opts.py": (
        "class Store:\n"
        "    def __init__(self, size=8, lane='f32'):\n"
        "        self.size, self.lane = size, lane\n"
        "\n"
        "    @classmethod\n"
        "    def wide(cls):\n"
        "        return cls(lane='f64')\n"  # cls(...) names the class
        "\n"
        "    def read(self, key, stale=False):\n"
        "        return key, stale\n"
        "\n"
        "    def pull(self, since=0, *, exact=True):\n"
        "        return since, exact\n"
        "\n"
        "    def walk(self, depth=3):\n"
        "        return self.walk(depth - 1) if depth else 0\n"  # own call
        "\n"
        "    def fwd(self, key, mode='a'):\n"
        "        return key, mode\n"
        "\n"
        "    def spread(self, opt=None):\n"
        "        return opt\n"
        "\n"
        "    def flush(self, force=False):\n"
        "        return force\n"
        "\n"
        "\n"
        "def scale(x, factor=2.0):\n"
        "    return x * factor\n"
        "\n"
        "\n"
        "class Base:\n"
        "    def __init__(self, tag=None, seed=0):\n"
        "        self.tag, self.seed = tag, seed\n"
        "\n"
        "\n"
        "class Child(Base):\n"
        "    def __init__(self):\n"
        "        super().__init__(tag='child')\n"  # names each base
        "\n"
        "\n"
        "class Leaf(Base):\n"  # no constructor: ``Leaf(...)`` runs Base's
        "    pass\n"
        "\n"
        "\n"
        "class Ring:\n"
        "    def __init__(self, ids, vnodes=64, salt=0):\n"
        "        self.ids, self.vnodes, self.salt = ids, vnodes, salt\n"
        "\n"
        "    def grown(self, extra):\n"  # hands both values back: sets nothing
        "        return Ring(self.ids + [extra], self.vnodes, salt=self.salt)\n"
        "\n"
        "\n"
        "class Pool:\n"
        "    def ring(self):\n"  # another class's ``self.salt`` is a value
        "        return Ring([0], salt=self.salt)\n"
    ),
    "benchmarks/bench.py": (
        "from pkg.opts import Child, Leaf, Store, scale\n"
        "\n"
        "def run(log, args, kw):\n"
        "    store = Store(16)\n"  # constructor by class name, positional
        "    store.read(1, True)\n"  # positional, ``self`` allowed for
        "    store.pull(since=3)\n"  # keyword
        "    store.fwd(*args)\n"
        "    store.spread(**kw)\n"
        "    log.flush(force=True)\n"  # another ``flush``: counts, errs safe
        "    Child(), Leaf(seed=1)\n"
        "    return Store.wide(), scale(1.0)\n"  # one arg is ``x``, not ``factor``
    ),
}


_PLANTED_MISSING = [
    "src/pkg/opts.py:12 pull(exact=)",
    "src/pkg/opts.py:15 walk(depth=)",
    "src/pkg/opts.py:28 scale(factor=)",
    "src/pkg/opts.py:47 __init__(vnodes=)",
]


def test_parameter_guard_flags_planted_dead_options(tmp_path):
    root = _plant(tmp_path, _PLANTED_PARAMS)
    missing = unpassed_parameters(root / "src", [root / "benchmarks" / "bench.py"])
    assert missing == _PLANTED_MISSING


# bench line -> its replacement, and the flags that replacement adds and
# removes: each call form alone is what keeps its parameter passed.
_CALL_FORMS = {
    "constructor": ("store = Store(16)", "store = log", "src/pkg/opts.py:2 __init__(size=)", None),
    "positional": ("store.read(1, True)", "store.read(1)", "src/pkg/opts.py:9 read(stale=)", None),
    "keyword": ("store.pull(since=3)", "store.pull()", "src/pkg/opts.py:12 pull(since=)", None),
    "star-args": ("store.fwd(*args)", "store.fwd(args)", "src/pkg/opts.py:18 fwd(mode=)", None),
    "star-kwargs": ("store.spread(**kw)", "store.spread()", "src/pkg/opts.py:21 spread(opt=)", None),
    "same-name": ("log.flush(force=True)", "log.flush()", "src/pkg/opts.py:24 flush(force=)", None),
    "inherited-init": ("Leaf(seed=1)", "Leaf()", "src/pkg/opts.py:33 __init__(seed=)", None),
    "function-positional": ("scale(1.0)", "scale(1.0, 3.0)", None, "src/pkg/opts.py:28 scale(factor=)"),
}


@pytest.mark.parametrize("form", list(_CALL_FORMS))
def test_parameter_guard_each_call_form_is_load_bearing(tmp_path, form):
    old, new, added, removed = _CALL_FORMS[form]
    files = dict(_PLANTED_PARAMS)
    bench = files["benchmarks/bench.py"]
    assert bench.count(old) == 1
    files["benchmarks/bench.py"] = bench.replace(old, new)
    root = _plant(tmp_path, files)
    missing = unpassed_parameters(root / "src", [root / "benchmarks" / "bench.py"])
    # the guard lists by line, then in signature order: an added flag
    # sorts first among its line's (``pull(since=)`` before ``exact=``)
    want = [added] * bool(added) + [m for m in _PLANTED_MISSING if m != removed]
    assert missing == sorted(want, key=lambda m: int(m.split()[0].rsplit(":", 1)[1]))


def _field_call(value) -> ast.Call | None:
    """The ``field(...)`` call a field's default is, if it is one."""
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "field":
            return value
    return None


def _init_fields(cls: ast.ClassDef):
    """``(name, lineno, position, defaulted)`` of every field a dataclass's
    ``__init__`` takes, in signature order: ``ClassVar``s and
    ``field(init=False)`` fields are skipped."""
    position = 0
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        call = _field_call(item.value)
        if call and any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in call.keywords
        ):
            continue
        defaulted = item.value is not None and (
            call is None
            or any(kw.arg in ("default", "default_factory") for kw in call.keywords)
        )
        yield item.target.id, item.lineno, position, defaulted
        position += 1


def unset_fields(src: Path, roots: list[Path]) -> list[str]:
    """``path:line Class.field`` of every defaulted ``src`` dataclass field
    that no root sets: no call of the class passes it, no ``replace(...)``
    names it, and no attribute of its name is stored to."""
    files = sorted(src.rglob("*.py"))
    root_files = [p for p in files if p.name != "__init__.py"] + roots
    calls: dict[str, list[ast.Call]] = {}
    stored: set[str] = set()
    for path in root_files:
        tree = _tree(path)
        for name, call, _ in _calls(tree):
            calls.setdefault(name, []).append(call)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stored.add(node.attr)
    replaced = {
        kw.arg for call in calls.get("replace", ()) for kw in call.keywords if kw.arg
    }
    missing = []
    for path in files:
        for node in ast.walk(_tree(path)):
            if not (isinstance(node, ast.ClassDef) and "dataclass" in _decorator_names(node)):
                continue
            sites = calls.get(node.name, ())
            for name, line, position, defaulted in _init_fields(node):
                if not defaulted or name in stored or name in replaced:
                    continue
                if not any(_passes(c, name, position) for c in sites):
                    missing.append((path, line, f"{node.name}.{name}"))
    missing.sort(key=lambda m: m[:2])
    return [f"{p.relative_to(src.parent)}:{line} {what}" for p, line, what in missing]


def test_every_src_dataclass_field_is_set():
    benchmarks = sorted((REPO / "benchmarks").rglob("*.py"))
    examples = sorted((REPO / "examples").rglob("*.py"))
    missing = unset_fields(SRC, benchmarks + examples)
    assert not missing, (
        "no benchmark, example or other src module sets these defaulted "
        "dataclass fields; mark state init=False, delete what nothing "
        "reads, or fold the value into its use site:\n" + "\n".join(missing)
    )


# src line -> its replacement, and the flags that replacement adds and
# removes: a ``self.<param>`` argument forwards only inside the callee's
# own class.
_FORWARDS = {
    "own-class-value": ("self.ids + [extra], self.vnodes", "self.ids + [extra], 32", None,
                        "src/pkg/opts.py:47 __init__(vnodes=)"),
    "other-class-attr": ("Ring([0], salt=self.salt)", "Ring([0])",
                         "src/pkg/opts.py:47 __init__(salt=)", None),
}


@pytest.mark.parametrize("form", list(_FORWARDS))
def test_parameter_guard_counts_a_self_forward_only_outside_its_class(tmp_path, form):
    old, new, added, removed = _FORWARDS[form]
    files = dict(_PLANTED_PARAMS)
    assert files["src/pkg/opts.py"].count(old) == 1
    files["src/pkg/opts.py"] = files["src/pkg/opts.py"].replace(old, new)
    root = _plant(tmp_path, files)
    missing = unpassed_parameters(root / "src", [root / "benchmarks" / "bench.py"])
    # both forms touch line 47, the last flagged line, and ``salt`` follows
    # ``vnodes`` in the signature: an added flag sorts last
    assert missing == [m for m in _PLANTED_MISSING if m != removed] + [added] * bool(added)


_PLANTED_FIELDS = {
    "src/pkg/__init__.py": "",
    "src/pkg/conf.py": (
        "from dataclasses import dataclass, field, replace\n"
        "from typing import ClassVar\n"
        "\n"
        "\n"
        "@dataclass\n"
        "class Conf:\n"
        "    name: str\n"  # no default: out of scope
        "    lane: str = 'f32'\n"
        "    size: int = 8\n"
        "    width: int = 1\n"
        "    seed: int = 0\n"
        "    hits: int = 0\n"
        "    log: list = field(default_factory=list, init=False)\n"
        "    LIMIT: ClassVar[int] = 4\n"
        "    dead: float = 1.0\n"
        "\n"
        "    @classmethod\n"
        "    def wide(cls):\n"
        "        return cls('w', width=4)\n"  # cls(...) names the class
        "\n"
        "\n"
        "@dataclass\n"
        "class Opts:\n"
        "    depth: int = 2\n"
        "\n"
        "\n"
        "@dataclass\n"
        "class Span:\n"
        "    lo: int = 0\n"
        "\n"
        "\n"
        "def tune(conf):\n"
        "    conf.hits += 1\n"  # an attribute store sets ``hits``
        "    return replace(conf, seed=3)\n"
    ),
    "benchmarks/bench.py": (
        "from pkg.conf import Conf, Opts, Span, tune\n"
        "\n"
        "def run(args, kw):\n"
        "    a = Conf('a', size=16)\n"  # keyword
        "    b = Conf('b', 'f64')\n"  # positional
        "    return tune(a), b, Conf.wide(), Opts(**kw), Span(*args)\n"
    ),
}


def test_field_guard_flags_a_planted_unset_field(tmp_path):
    root = _plant(tmp_path, _PLANTED_FIELDS)
    missing = unset_fields(root / "src", [root / "benchmarks" / "bench.py"])
    assert missing == ["src/pkg/conf.py:15 Conf.dead"]


# file, line -> its replacement, and the field the replacement leaves
# unset: each way of setting a field is load-bearing, and ``init=False``
# and ``ClassVar`` are what keep state and constants out of scope.
_SET_FORMS = {
    "keyword": ("benchmarks/bench.py", "Conf('a', size=16)", "Conf('a')", "9 Conf.size"),
    "positional": ("benchmarks/bench.py", "Conf('b', 'f64')", "Conf('b')", "8 Conf.lane"),
    "cls-call": ("src/pkg/conf.py", "cls('w', width=4)", "cls('w')", "10 Conf.width"),
    "star-kwargs": ("benchmarks/bench.py", "Opts(**kw)", "Opts()", "24 Opts.depth"),
    "star-args": ("benchmarks/bench.py", "Span(*args)", "Span()", "29 Span.lo"),
    "replace": ("src/pkg/conf.py", "replace(conf, seed=3)", "replace(conf)", "11 Conf.seed"),
    "attribute-store": ("src/pkg/conf.py", "conf.hits += 1", "conf.other = 1", "12 Conf.hits"),
    "init-false": ("src/pkg/conf.py", "list, init=False)", "list)", "13 Conf.log"),
    "classvar": ("src/pkg/conf.py", "LIMIT: ClassVar[int]", "LIMIT: int", "14 Conf.LIMIT"),
}


@pytest.mark.parametrize("form", list(_SET_FORMS))
def test_field_guard_each_set_form_is_load_bearing(tmp_path, form):
    rel, old, new, added = _SET_FORMS[form]
    files = dict(_PLANTED_FIELDS)
    assert files[rel].count(old) == 1
    files[rel] = files[rel].replace(old, new)
    root = _plant(tmp_path, files)
    missing = unset_fields(root / "src", [root / "benchmarks" / "bench.py"])
    flagged = ["src/pkg/conf.py:" + added, "src/pkg/conf.py:15 Conf.dead"]
    assert missing == sorted(flagged, key=lambda m: int(m.split()[0].rsplit(":", 1)[1]))


_PLANTED_STATIC = {
    "src/pkg/__init__.py": "",
    "src/pkg/codec.py": (
        "class Codec:\n"
        "    @staticmethod\n"
        "    def pack(x, width=4):\n"
        "        return x, width\n"
    ),
}


@pytest.mark.parametrize(
    "call, flagged",
    [("Codec.pack(1)", ["src/pkg/codec.py:3 pack(width=)"]), ("Codec.pack(1, 8)", [])],
    ids=["one-arg", "two-args"],
)
def test_parameter_guard_gives_a_staticmethod_no_self_offset(tmp_path, call, flagged):
    files = dict(_PLANTED_STATIC)
    files["benchmarks/bench.py"] = f"from pkg.codec import Codec\n\ndef run():\n    return {call}\n"
    root = _plant(tmp_path, files)
    assert unpassed_parameters(root / "src", [root / "benchmarks" / "bench.py"]) == flagged
