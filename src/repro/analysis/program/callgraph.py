"""Module-level call graph over the engine packages.

The whole-program passes (:mod:`repro.analysis.program.passes`) need to
follow a lock acquired in one function through the helpers it calls.
This module parses every source file of the engine packages, indexes
each function/method under a stable reference string
(``module:Class.method``), and resolves calls *by bare name*: a call
``x.foo(...)`` may dispatch to any analyzed function named ``foo``.

That resolution is deliberately conservative — Python offers no static
receiver types — so the passes over-approximate: they may follow calls
that cannot happen at runtime, but they never miss one that can.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

#: the engine packages the whole-program passes cover
SCOPE_PACKAGES: tuple[str, ...] = (
    "txn",
    "storage",
    "cache",
    "exec",
    "lang",
    "graphdb",
    "relational",
    "rdf",
    "tinkerpop",
    "sqlg",
    "titan",
)


@dataclass
class FunctionInfo:
    """One analyzed function or method."""

    module: str  # dotted module, e.g. "repro.txn.manager"
    qualname: str  # "TransactionManager.commit" or "free_function"
    name: str  # bare name, e.g. "commit"
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def ref(self) -> str:
        """The stable reference string used in diagnostics/baselines."""
        return f"{self.module}:{self.qualname}"


class CallGraph:
    """Functions indexed by bare name and by reference string."""

    def __init__(self, functions: list[FunctionInfo]) -> None:
        self.functions = functions
        self.by_ref: dict[str, FunctionInfo] = {
            f.ref: f for f in functions
        }
        self.by_name: dict[str, list[FunctionInfo]] = {}
        for function in functions:
            self.by_name.setdefault(function.name, []).append(function)

    def resolve(self, name: str) -> list[FunctionInfo]:
        """Every analyzed function a call to ``name`` may reach."""
        return self.by_name.get(name, [])


def default_paths() -> list[Path]:
    """The source files of the in-scope engine packages."""
    root = Path(__file__).resolve().parents[2]  # .../src/repro
    return [
        path
        for package in SCOPE_PACKAGES
        for path in sorted((root / package).rglob("*.py"))
    ]


def default_sources() -> dict[str, str]:
    """module name -> source text for the in-scope engine packages."""
    return sources_from_paths(default_paths())


def sources_from_paths(paths: Iterable[str | Path]) -> dict[str, str]:
    """Explicit file list -> source mapping (for ``--paths`` / tests)."""
    return {
        module_name(Path(path)): Path(path).read_text(encoding="utf-8")
        for path in paths
    }


def module_name(path: Path) -> str:
    """The dotted import name of a source file: its stem, prefixed by
    every enclosing directory that is a package (has ``__init__.py``),
    however the path was spelled."""
    path = path.resolve()
    parts = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts))


def module_name_for_key(key: str) -> str:
    """Normalize a sources-mapping key ("pkg/mod.py") to a module."""
    name = key[:-3] if key.endswith(".py") else key
    return name.replace("/", ".").replace("\\", ".")


def build_call_graph(
    sources: Mapping[str, str],
) -> tuple[CallGraph, list[tuple[str, str]]]:
    """Parse every source; returns (graph, unparseable (module, error))."""
    functions: list[FunctionInfo] = []
    failures: list[tuple[str, str]] = []
    for key, text in sources.items():
        module = module_name_for_key(key)
        try:
            tree = ast.parse(text)
        except SyntaxError as exc:
            failures.append((module, str(exc)))
            continue
        _collect(module, tree, None, None, functions)
    return CallGraph(functions), failures


def _collect(
    module: str,
    node: ast.AST,
    class_name: str | None,
    parent_qual: str | None,
    out: list[FunctionInfo],
) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _collect(module, child, child.name, None, out)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = child.name
            if parent_qual is not None:
                qual = f"{parent_qual}.{qual}"
            if class_name is not None:
                qual = f"{class_name}.{qual}"
            out.append(
                FunctionInfo(
                    module=module,
                    qualname=qual,
                    name=child.name,
                    class_name=class_name,
                    node=child,
                )
            )
            # nested defs become their own FunctionInfo entries
            _collect(module, child, class_name, qual, out)

