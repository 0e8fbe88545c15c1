"""Per-function fact extraction for the whole-program passes.

Each analyzed function is reduced to a :class:`FunctionSummary`: the
ordered stream of events the passes care about (lock/transaction
acquisitions, calls, blocking-I/O sites), plus function-level facts
(does it release in an exception handler, does it emit a sanitizer
trace event, which ``self`` attributes does it mutate, which caches
does it define/write/invalidate).

The extraction is purely syntactic and over-approximating: branches are
flattened in source order, and a local alias ``cache = self._cache``
is resolved one level deep so ``cache.put(...)`` still counts as a
write to ``self._cache``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.analysis.program.callgraph import CallGraph, FunctionInfo

#: blocking lock-acquisition methods (try_acquire fails instead of
#: waiting and cannot leak a granted-then-lost resource silently)
ACQUIRE_ATTRS = {"acquire", "acquire_many"}

#: a call to any of these ends the held-lock region of a transaction
#: ("release" is the snapshot-release verb: the timestamp oracle pairs
#: begin()/release() the way the lock manager pairs acquire/release_all)
RELEASE_NAMES = {"commit", "abort", "release_all", "release"}

#: context-manager factories that release on exit (safe `with` blocks)
RELEASING_MANAGERS = {"transaction"}

#: self-attribute method calls that mutate the receiver's state
MUTATOR_ATTRS = {
    "add",
    "append",
    "clear",
    "delete",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "put",
    "remove",
    "setdefault",
    "store",
    "update",
}

#: cache classes whose writes QA805 audits
CACHE_CLASSES = {"LRUCache", "EpochKeyedCache"}

#: operations that count as invalidating a cache attribute (``pop``
#: evicts one entry of a dict memo)
INVALIDATION_ATTRS = {
    "bump_epoch",
    "clear",
    "invalidate",
    "invalidate_all",
    "pop",
}

#: ``charge(...)`` kinds that mark a record/page-level storage mutation
MUTATION_CHARGES = {"record_write", "page_write"}

#: constructors whose instances hold *record* data (the effect passes
#: treat attrs initialized to these — or to plain container literals —
#: as versioned storage once the class owns a :class:`VersionStore`)
STORAGE_CLASSES = {
    "HeapFile",
    "ColumnTable",
    "BPlusTree",
    "LSMTree",
    "BDBStore",
}


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
    #: inside a `with <releasing manager>()` block
    with_safe: bool = False


@dataclass
class FunctionSummary:
    info: FunctionInfo
    events: list[Event] = field(default_factory=list)
    #: a Try handler or finally block calls abort/release_all
    has_release_handler: bool = False
    #: emits runtime.TRACE.write(...) somewhere in the body
    trace_write: bool = False
    #: string literals passed to charge(...)
    charges: set[str] = field(default_factory=set)
    #: self attributes mutated in place (aug-assign, subscript
    #: assignment, or a mutator-method call on `self.<attr>`)
    self_mutations: set[str] = field(default_factory=set)
    #: names appearing in `return` expressions
    returns_names: set[str] = field(default_factory=set)
    #: self attr -> cache class name, for `self.x = LRUCache(...)`
    cache_defs: dict[str, str] = field(default_factory=dict)
    #: host memos: self attrs named ``*_cache`` initialized to ``{}``,
    #: annotated or not — QA805 audits them as it does cache_defs
    memo_defs: set[str] = field(default_factory=set)
    #: self attrs written through .put()/.store() or a subscript store
    cache_writes: set[str] = field(default_factory=set)
    #: self attrs invalidated (bump_epoch/invalidate*/clear/pop)
    cache_invalidations: set[str] = field(default_factory=set)
    #: self attr -> on_reclaim callback attr, for
    #: ``self.x = VersionStore(..., on_reclaim=self._cb)`` (None when
    #: the store is built without a reclaim callback)
    version_store_defs: dict[str, str | None] = field(
        default_factory=dict
    )
    #: self attrs initialized to container literals ({}/[]/set()) or
    #: storage-class constructors — candidate record containers
    container_defs: set[str] = field(default_factory=set)
    #: self attr (or alias root) -> method names called on it
    attr_calls: dict[str, set[str]] = field(default_factory=dict)
    #: self attrs read through a subscript load (``self._rows[k]``)
    attr_subscript_loads: set[str] = field(default_factory=set)
    #: self attrs iterated (for-loop or comprehension source)
    attr_iterations: set[str] = field(default_factory=set)

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


def class_cache_attrs(
    members: Iterable[FunctionSummary], candidates: Iterable[str]
) -> set[str]:
    """The cache attrs of the class ``members`` make up: its typed cache
    defs, plus those of ``candidates`` named ``*_cache``.  Filling or
    evicting a cache derives state; it does not write storage."""
    typed = {attr for member in members for attr in member.cache_defs}
    return typed | {a for a in candidates if a.endswith("_cache")}


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
        self.with_depth = 0
        #: local name -> self attribute it aliases
        self.aliases: dict[str, str] = {}
        #: local name -> self attribute *rooting* the value it was
        #: assigned from (``index = self._indexes.get(c)`` roots at
        #: ``_indexes``); used only by the effect facts so the looser
        #: resolution cannot disturb the QA805 cache accounting
        self.root_aliases: dict[str, str] = {}

    # -- statements ---------------------------------------------------------

    def visit_stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are summarized separately
        if isinstance(node, ast.ClassDef):
            return
        if isinstance(node, ast.Assign):
            self._visit_assign(node)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._record_cache_def(node.target, node.value)
                self.visit_expr(node.value)
            return
        if isinstance(node, ast.AugAssign):
            attr = _self_attr_root(node.target)
            if attr is not None:
                self.summary.self_mutations.add(attr)
            self.visit_expr(node.value)
            return
        if isinstance(node, ast.Return):
            if node.value is not None:
                for name in ast.walk(node.value):
                    if isinstance(name, ast.Name):
                        self.summary.returns_names.add(name.id)
                self.visit_expr(node.value)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._record_iteration(node.iter)
            root = _self_attr_root(node.iter)
            if root is not None:
                for target in ast.walk(node.target):
                    if isinstance(target, ast.Name):
                        self.root_aliases[target.id] = root
            self.visit_expr(node.iter)
            for stmt in node.body:
                self.visit_stmt(stmt)
            for stmt in node.orelse:
                self.visit_stmt(stmt)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            safe = any(
                isinstance(item.context_expr, ast.Call)
                and _callee_name(item.context_expr)
                in RELEASING_MANAGERS
                for item in node.items
            )
            for item in node.items:
                self.visit_expr(item.context_expr)
            if safe:
                self.with_depth += 1
            for stmt in node.body:
                self.visit_stmt(stmt)
            if safe:
                self.with_depth -= 1
            return
        if isinstance(node, ast.Try):
            for stmt in node.body:
                self.visit_stmt(stmt)
            for handler in node.handlers:
                if _contains_release_call(handler.body):
                    self.summary.has_release_handler = True
                for stmt in handler.body:
                    self.visit_stmt(stmt)
            for stmt in node.orelse:
                self.visit_stmt(stmt)
            if _contains_release_call(node.finalbody):
                self.summary.has_release_handler = True
            for stmt in node.finalbody:
                self.visit_stmt(stmt)
            return
        # generic statement: walk expressions first, then sub-statements
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self.visit_stmt(child)
            elif isinstance(child, ast.expr):
                self.visit_expr(child)
            elif isinstance(child, ast.excepthandler):
                for stmt in child.body:
                    self.visit_stmt(stmt)

    def _visit_assign(self, node: ast.Assign) -> None:
        bound: str | None = None
        if len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                bound = target.id
                alias = _self_attr_of(node.value)
                if alias is not None:
                    self.aliases[target.id] = alias
                root = _self_attr_root(node.value)
                if root is not None:
                    self.root_aliases[target.id] = root
            elif isinstance(target, ast.Subscript):
                attr = _self_attr_root(target)
                if attr is not None:
                    self.summary.self_mutations.add(attr)
                filled = self._receiver_attr(target.value)
                if filled is not None:
                    self.summary.cache_writes.add(filled)
            self._record_cache_def(target, node.value)
            self._record_storage_def(target, node.value)
        else:
            for target in node.targets:
                attr = _self_attr_root(target)
                if attr is not None and isinstance(target, ast.Subscript):
                    self.summary.self_mutations.add(attr)
        self.visit_expr(node.value, bound=bound)

    def _record_cache_def(
        self, target: ast.expr, value: ast.expr
    ) -> None:
        attr = _self_attr_of(target)
        if attr is None:
            return
        cls = _callee_name(value)
        if cls in CACHE_CLASSES:
            assert cls is not None
            self.summary.cache_defs[attr] = cls
        elif (
            attr.endswith("_cache")
            and isinstance(value, ast.Dict)
            and not value.keys
        ):
            self.summary.memo_defs.add(attr)

    def _record_storage_def(
        self, target: ast.expr, value: ast.expr
    ) -> None:
        """Classify ``self.X = <container/VersionStore/storage ctor>``.

        Derived metadata built by comprehensions is deliberately *not* a
        record container: it never carries versioned record state.
        """
        attr = _self_attr_of(target)
        if attr is None:
            return
        summary = self.summary
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            summary.container_defs.add(attr)
            return
        if not isinstance(value, ast.Call):
            return
        cls = _callee_name(value)
        if cls in ("dict", "list", "set") and not value.args:
            summary.container_defs.add(attr)
        elif cls in STORAGE_CLASSES:
            summary.container_defs.add(attr)
        elif cls == "VersionStore":
            callback: str | None = None
            for keyword in value.keywords:
                if keyword.arg == "on_reclaim":
                    callback = _self_attr_of(keyword.value)
            summary.version_store_defs[attr] = callback

    # -- expressions ---------------------------------------------------------

    def visit_expr(self, node: ast.expr, bound: str | None = None) -> None:
        if isinstance(node, ast.Call):
            self._visit_call(node, bound)
            return
        if isinstance(node, ast.Lambda):
            self.visit_expr(node.body)
            return
        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, ast.Load
        ):
            attr = _self_attr_root(node)
            if attr is not None:
                self.summary.attr_subscript_loads.add(attr)
        if isinstance(
            node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)
        ):
            # generators are not expr children: visit their sources and
            # guards explicitly so calls inside them are still events
            for generator in node.generators:
                self._record_iteration(generator.iter)
                self.visit_expr(generator.iter)
                for guard in generator.ifs:
                    self.visit_expr(guard)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.visit_expr(child)

    def _record_iteration(self, node: ast.expr) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                attr = _self_attr_of(sub)
                if attr is not None:
                    self.summary.attr_iterations.add(attr)
            elif isinstance(sub, ast.Name):
                root = self.root_aliases.get(sub.id)
                if root is not None:
                    self.summary.attr_iterations.add(root)

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
        summary = self.summary
        safe = self.with_depth > 0
        if name in ACQUIRE_ATTRS and isinstance(node.func, ast.Attribute):
            summary.events.append(
                Event(
                    kind="acquire",
                    line=node.lineno,
                    token=_resource_token(node),
                    detail="lock",
                    txn_arg=(
                        ast.unparse(node.args[0]) if node.args else None
                    ),
                    bound=bound,
                    with_safe=safe,
                )
            )
            return
        if name == "begin" and isinstance(node.func, ast.Attribute):
            summary.events.append(
                Event(
                    kind="acquire",
                    line=node.lineno,
                    detail="txn",
                    bound=bound,
                    with_safe=safe,
                )
            )
            return
        if name == "charge" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                summary.charges.add(first.value)
        if name == "write" and isinstance(node.func, ast.Attribute):
            receiver = ast.unparse(node.func.value)
            if receiver.endswith("TRACE"):
                summary.trace_write = True
        io_kind = _io_kind(node)
        if io_kind is not None:
            summary.events.append(
                Event(kind="io", line=node.lineno, detail=io_kind)
            )
        self._record_mutation(node, name)
        self._record_cache_op(node, name)
        self._record_attr_call(node, name)
        summary.events.append(
            Event(
                kind="call",
                line=node.lineno,
                callee=name,
                bound=bound,
                with_safe=safe,
            )
        )

    def _record_mutation(self, node: ast.Call, name: str) -> None:
        if name not in MUTATOR_ATTRS:
            return
        if not isinstance(node.func, ast.Attribute):
            return
        attr = _self_attr_root(node.func.value)
        if attr is not None:
            self.summary.self_mutations.add(attr)

    def _record_attr_call(self, node: ast.Call, name: str) -> None:
        """``self.X.m(...)`` (or via a local alias) -> attr_calls[X] += m."""
        if not isinstance(node.func, ast.Attribute):
            return
        receiver = node.func.value
        attr: str | None = None
        if isinstance(receiver, ast.Name):
            attr = self.root_aliases.get(
                receiver.id, self.aliases.get(receiver.id)
            )
        else:
            attr = _self_attr_root(receiver)
        if attr is not None:
            self.summary.attr_calls.setdefault(attr, set()).add(name)

    def _record_cache_op(self, node: ast.Call, name: str) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        attr = self._receiver_attr(node.func.value)
        if attr is None:
            return
        if name in ("put", "store"):
            self.summary.cache_writes.add(attr)
        elif name in INVALIDATION_ATTRS:
            self.summary.cache_invalidations.add(attr)

    def _receiver_attr(self, receiver: ast.expr) -> str | None:
        """``self.X`` or a local alias of it -> ``"X"``."""
        if isinstance(receiver, ast.Name):
            return self.aliases.get(receiver.id)
        return _self_attr_of(receiver)


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
    """The lock-resource expression QA502 and QA801 order (textually).

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


def _self_attr_of(node: ast.expr) -> str | None:
    """``self.X`` -> ``"X"``; anything else -> None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _self_attr_root(node: ast.expr) -> str | None:
    """The first attribute of a ``self.X...`` chain, skipping through
    calls and subscripts (``self.X.setdefault(k, set()).add(v)`` and
    ``self.X[k]`` both root at ``X``)."""
    current: ast.expr = node
    while True:
        if isinstance(current, ast.Call):
            current = current.func
        elif isinstance(current, ast.Subscript):
            current = current.value
        else:
            break
    chain: list[str] = []
    while isinstance(current, ast.Attribute):
        chain.append(current.attr)
        inner = current.value
        if isinstance(inner, (ast.Call, ast.Subscript)):
            while isinstance(inner, (ast.Call, ast.Subscript)):
                inner = (
                    inner.func
                    if isinstance(inner, ast.Call)
                    else inner.value
                )
        current = inner
    if isinstance(current, ast.Name) and current.id == "self" and chain:
        return chain[-1]
    return None


def _contains_release_call(statements: list[ast.stmt]) -> bool:
    for stmt in statements:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = _callee_name(node)
                if name in ("abort", "release_all", "release"):
                    return True
    return False
