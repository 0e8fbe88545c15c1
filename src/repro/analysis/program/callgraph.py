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
from dataclasses import dataclass, field
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
    #: bare names of every call made in the body, in source order
    calls: list[str] = field(default_factory=list)

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


def default_sources() -> dict[str, str]:
    """module name -> source text for the in-scope engine packages."""
    root = Path(__file__).resolve().parents[2]  # .../src/repro
    sources: dict[str, str] = {}
    for package in SCOPE_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            rel = path.relative_to(root.parent)
            module = ".".join(rel.with_suffix("").parts)
            if module.endswith(".__init__"):
                module = module[: -len(".__init__")]
            sources[module] = path.read_text(encoding="utf-8")
    return sources


def sources_from_paths(paths: Iterable[str | Path]) -> dict[str, str]:
    """Explicit file list -> source mapping (for ``--paths`` / tests)."""
    sources: dict[str, str] = {}
    for path in paths:
        p = Path(path)
        module = ".".join(p.with_suffix("").parts).lstrip(".")
        sources[module] = p.read_text(encoding="utf-8")
    return sources


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
            info = FunctionInfo(
                module=module,
                qualname=qual,
                name=child.name,
                class_name=class_name,
                node=child,
            )
            info.calls = _call_names(child)
            out.append(info)
            # nested defs become their own FunctionInfo entries
            _collect(module, child, class_name, qual, out)


def _call_names(function: ast.AST) -> list[str]:
    """Bare callee names in ``function``, skipping nested defs.

    Lambdas are treated as part of the enclosing function: an undo
    closure registered with ``txn.on_abort(lambda: ...)`` may run while
    the transaction's locks are still held, so its calls belong to the
    caller's behavior.
    """
    names: list[str] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            if isinstance(child, ast.Call):
                name = _callee_name(child)
                if name is not None:
                    names.append(name)
            visit(child)

    visit(function)
    return names


def _callee_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None
