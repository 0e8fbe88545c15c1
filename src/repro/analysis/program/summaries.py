"""Per-function fact extraction for the whole-program passes.

Each analyzed function is reduced to a :class:`FunctionSummary`: the
ordered stream of events the passes care about (lock/transaction
acquisitions, calls, blocking-I/O sites), plus the names its ``return``
statements mention (ownership transfer).

The extraction is purely syntactic and over-approximating: branches are
flattened in source order.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.program.callgraph import CallGraph, FunctionInfo

#: blocking lock-acquisition methods (try_acquire fails instead of
#: waiting and cannot leak a granted-then-lost resource silently)
ACQUIRE_ATTRS = {"acquire", "acquire_many"}

#: a call to any of these ends the held-lock region of a transaction
#: ("release" is the snapshot-release verb: the timestamp oracle pairs
#: begin()/release() the way the lock manager pairs acquire/release_all)
RELEASE_NAMES = {"commit", "abort", "release_all", "release"}


@dataclass
class Event:
    """One ordered event in a function body."""

    kind: str  # "acquire" | "call" | "io"
    line: int
    #: acquire: the lock-resource expression text (None for
    #: acquire_many bundles and plain txn begins)
    token: str | None = None
    #: acquire: "lock" | "txn"; io: "wal-fsync" | "gremlin-submit" | ...
    detail: str | None = None
    #: acquire: unparsed first (txn-id) argument of the acquire call
    txn_arg: str | None = None
    #: call: bare callee name
    callee: str | None = None
    #: the local name the call result was assigned to, if any
    bound: str | None = None


@dataclass
class FunctionSummary:
    info: FunctionInfo
    events: list[Event] = field(default_factory=list)
    #: names appearing in `return` expressions
    returns_names: set[str] = field(default_factory=set)

    @property
    def ref(self) -> str:
        return self.info.ref

    def acquire_events(self) -> list[Event]:
        return [e for e in self.events if e.kind == "acquire"]


def summarize(graph: CallGraph) -> dict[str, FunctionSummary]:
    """ref -> summary for every function in the call graph."""
    return {
        info.ref: _summarize_function(info) for info in graph.functions
    }


def _summarize_function(info: FunctionInfo) -> FunctionSummary:
    summary = FunctionSummary(info)
    walker = _Walker(summary)
    for stmt in info.node.body:
        walker.visit_stmt(stmt)
    return summary


class _Walker:
    """Single-pass, order-preserving extraction over one function."""

    def __init__(self, summary: FunctionSummary) -> None:
        self.summary = summary

    # -- statements ---------------------------------------------------------

    def visit_stmt(self, node: ast.stmt) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested defs are summarized separately
        if isinstance(node, ast.Assign):
            target = node.targets[0] if len(node.targets) == 1 else None
            bound = target.id if isinstance(target, ast.Name) else None
            self.visit_expr(node.value, bound=bound)
            return
        if isinstance(node, ast.Return) and node.value is not None:
            for name in ast.walk(node.value):
                if isinstance(name, ast.Name):
                    self.summary.returns_names.add(name.id)
        # walk expressions and sub-statements in source order
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self.visit_stmt(child)
            elif isinstance(child, ast.expr):
                self.visit_expr(child)
            elif isinstance(child, ast.withitem):
                self.visit_expr(child.context_expr)
            elif isinstance(child, ast.excepthandler):
                for stmt in child.body:
                    self.visit_stmt(stmt)

    # -- expressions ---------------------------------------------------------

    def visit_expr(self, node: ast.expr, bound: str | None = None) -> None:
        if isinstance(node, ast.Call):
            self._visit_call(node, bound)
            return
        if isinstance(node, ast.Lambda):
            self.visit_expr(node.body)
            return
        if isinstance(
            node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)
        ):
            # generators are not expr children: visit their sources and
            # guards explicitly so calls inside them are still events
            for generator in node.generators:
                self.visit_expr(generator.iter)
                for guard in generator.ifs:
                    self.visit_expr(guard)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.visit_expr(child)

    def _visit_call(self, node: ast.Call, bound: str | None) -> None:
        name = _callee_name(node)
        # arguments first: inner calls happen before the outer one
        for arg in node.args:
            self.visit_expr(arg)
        for keyword in node.keywords:
            self.visit_expr(keyword.value)
        if isinstance(node.func, ast.Attribute):
            self.visit_expr(node.func.value)
        if name is None:
            return
        events = self.summary.events
        if name in ACQUIRE_ATTRS and isinstance(node.func, ast.Attribute):
            events.append(
                Event(
                    kind="acquire",
                    line=node.lineno,
                    token=_resource_token(node),
                    detail="lock",
                    txn_arg=(
                        ast.unparse(node.args[0]) if node.args else None
                    ),
                    bound=bound,
                )
            )
            return
        if name == "begin" and isinstance(node.func, ast.Attribute):
            events.append(
                Event(
                    kind="acquire",
                    line=node.lineno,
                    detail="txn",
                    bound=bound,
                )
            )
            return
        io_kind = _io_kind(node)
        if io_kind is not None:
            events.append(Event(kind="io", line=node.lineno, detail=io_kind))
        events.append(
            Event(kind="call", line=node.lineno, callee=name, bound=bound)
        )


def _callee_name(call: ast.expr) -> str | None:
    if not isinstance(call, ast.Call):
        return None
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _resource_token(call: ast.Call) -> str | None:
    """The lock-resource expression QA801 orders (textually).

    ``acquire(txn_id, resource, mode)`` -> the second argument;
    ``acquire_many`` bundles sort internally and contribute no single
    resource token (None).
    """
    func = call.func
    assert isinstance(func, ast.Attribute)
    if func.attr == "acquire_many":
        return None
    if len(call.args) >= 2:
        return ast.unparse(call.args[1])
    if len(call.args) == 1:
        return ast.unparse(call.args[0])
    return ast.unparse(func.value)


def _io_kind(call: ast.Call) -> str | None:
    """Classify a call as simulated blocking I/O, if it is one."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "commit":
        receiver = ast.unparse(func.value).lower()
        if "wal" in receiver:
            return "wal-fsync"
        return None
    if func.attr == "submit":
        return "gremlin-submit"
    if func.attr == "checkpoint":
        return "checkpoint"
    return None
