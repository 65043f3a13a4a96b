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

A second guard keeps one owner per number: a component keeps its counts
in its own report or log, so no module outside ``repro.obs`` imports the
metric or flight-recorder types; only ``python -m repro.obs`` builds a
registry, from those reports.
"""

from __future__ import annotations

import ast
from pathlib import Path

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


def _references(path: Path, package: str) -> set[str]:
    """Dotted names a file imports, plus attribute chains off ``import``s."""
    tree = ast.parse(path.read_text(), filename=str(path))
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
    tree = ast.parse(MODULES[package].read_text())
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


def test_only_repro_obs_builds_metrics_or_flight_records():
    telemetry = {"repro.obs.metrics", "repro.obs.recorder"}
    offenders = sorted(
        name
        for name, path in MODULES.items()
        if name != "repro.obs"
        and not name.startswith("repro.obs.")
        and telemetry & {_resolve(r) for r in _references(path, _package_of(name, path))}
    )
    assert not offenders, f"components own their counts; {offenders} import metrics/recorder"
