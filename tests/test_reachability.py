"""Every module under ``src/repro`` is reachable from an entry point.

The entry points are the CLI (``repro.cli`` and ``python -m repro``)
and every script under ``benchmarks/``, ``examples/`` and ``tools/``.
The walk follows ``import`` statements, including function-level ones.
A name imported from a package resolves to the submodule that defines
it, so a package ``__init__`` that re-exports a module does not make
that module reachable by itself.  A module nothing reaches feeds no
number and should be deleted, not kept alive by its own tests.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path
from typing import Dict, Iterator, Optional, Set

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
ENTRY_DIRS = ("benchmarks", "examples", "tools")
ENTRY_MODULES = ("repro.cli", "repro.__main__")

#: Modules kept although no entry point reaches them, each with its reason.
ALLOWED_UNREACHABLE = {
    "repro.memory.banksim": "the measured reference that "
                            "tests/test_memory_banksim.py pins "
                            "SEQUENTIAL_STREAM's row-hit rate to",
}


def _module_path(name: str) -> Optional[Path]:
    base = SRC.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _all_modules() -> Set[str]:
    names = set()
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        names.add(".".join(parts[:-1] if parts[-1] == "__init__"
                           else parts))
    return names


def _is_package(name: str) -> bool:
    path = _module_path(name)
    return path is not None and path.name == "__init__.py"


def _imports(path: Path, package: str) -> Iterator[tuple]:
    """``(module, name)`` pairs for every import in ``path``; ``name`` is
    None for a plain ``import module``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                anchor = package.split(".")[:len(package.split("."))
                                            - node.level + 1]
                module = ".".join(anchor + ([module] if module else []))
            for alias in node.names:
                yield module, alias.name


def _reexports(package: str) -> Dict[str, str]:
    """Name -> defining module for one package ``__init__``'s imports."""
    table = {}
    for module, name in _imports(_module_path(package), package):
        if name is not None:
            table[name] = module
    return table


def _defining_module(package: str, name: str) -> Optional[str]:
    """The non-package module behind ``from package import name``."""
    seen = set()
    while _is_package(package) and (package, name) not in seen:
        seen.add((package, name))
        if _module_path(f"{package}.{name}") is not None:
            package = f"{package}.{name}"
            if _is_package(package):
                return None
            return package
        source = _reexports(package).get(name)
        if source is None:
            # A lazily resolved export (PEP 562): ask the package.
            value = getattr(importlib.import_module(package), name)
            owner = value if isinstance(value, types.ModuleType) \
                else inspect.getmodule(value)
            return owner.__name__ if owner else None
        package = source
    return package


def _reachable() -> Set[str]:
    frontier = []
    for directory in ENTRY_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            frontier.extend(_imports(path, ""))
    frontier.extend((name, None) for name in ENTRY_MODULES)
    reached: Set[str] = set()
    while frontier:
        module, name = frontier.pop()
        if module.split(".")[0] != "repro":
            continue
        target = module if name is None or not _is_package(module) \
            else _defining_module(module, name)
        if target is None or target in reached or _is_package(target):
            continue
        path = _module_path(target)
        if path is None:
            continue
        reached.add(target)
        frontier.extend(_imports(path, target.rsplit(".", 1)[0]))
    return reached


def test_every_module_is_reachable_from_an_entry_point():
    """Fails on a new unreachable module, and on an allow-list entry
    that is deleted or reachable again."""
    modules = {m for m in _all_modules() if not _is_package(m)}
    unreachable = modules - _reachable()
    assert unreachable == set(ALLOWED_UNREACHABLE), (
        f"modules no entry point imports: {sorted(unreachable)}; delete "
        "them or add a reasoned entry to ALLOWED_UNREACHABLE")
