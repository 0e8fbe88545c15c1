"""The QA801 and QA803 interprocedural passes over summaries.

========  ============================================================
QA801     lock-order inversion: per-function acquisition sequences are
          composed across the call graph; a strongly connected
          component in the global resource-order graph is a potential
          AB/BA deadlock, whether one function or a call chain
          exhibits it.
QA803     blocking I/O (WAL fsync, Gremlin submit, checkpoint) is
          reachable while a lock is held.  Release operations
          (commit/abort/release_all) end the held region and are not
          traversed: forcing the log *inside* commit is the 2PL
          protocol, not a hazard.  Functions that *transfer ownership*
          (return the transaction, or lock on behalf of an externally
          managed transaction) start a held region in their callers.
========  ============================================================

Every interprocedural fact — lock tokens, ownership transfer, reachable
I/O — comes from one fixpoint driver, :meth:`Program.propagate`.

Every pass emits on the shared :class:`~repro.analysis.diagnostics.
Diagnostic` model with ``dialect="python"`` and
``operation="module:Class.method"`` so findings are addressable by the
baseline file.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Mapping
from functools import cached_property
from typing import TypeVar

from repro.analysis.diagnostics import Diagnostic, SourceLocation, make
from repro.analysis.program.callgraph import CallGraph
from repro.analysis.program.summaries import (
    RELEASE_NAMES,
    Event,
    FunctionSummary,
)

#: modules implementing the locking mechanism itself: their internal
#: re-dispatch (`acquire_many` -> `self.acquire`) is not client code
#: and must not contribute resource tokens or discipline obligations
FRAMEWORK_MODULES = {"repro.txn.locks", "repro.txn.manager"}

PASS_NAMES = ("QA801", "QA803")

T = TypeVar("T")


class Program:
    """The call graph plus every function summary, shared by passes."""

    def __init__(
        self, graph: CallGraph, summaries: dict[str, FunctionSummary]
    ) -> None:
        self.graph = graph
        self.summaries = summaries

    def resolve(self, name: str) -> list[FunctionSummary]:
        return [self.summaries[i.ref] for i in self.graph.resolve(name)]

    @cached_property
    def callers(self) -> dict[str, list[tuple[FunctionSummary, Event]]]:
        """callee ref -> (caller, call event) for every resolved call."""
        out: dict[str, list[tuple[FunctionSummary, Event]]] = {}
        for summary in self.summaries.values():
            for event in summary.events:
                if event.kind != "call":
                    continue
                for callee in self.resolve(event.callee or ""):
                    out.setdefault(callee.ref, []).append((summary, event))
        return out

    # -- the one fixpoint driver -----------------------------------------

    def propagate(
        self,
        seeds: Mapping[str, set[T]],
        skip: Callable[[FunctionSummary], bool] | None = None,
        edge: Callable[[FunctionSummary, Event], bool] | None = None,
    ) -> dict[str, set[T]]:
        """Push each function's facts up the call graph to a fixpoint.

        A caller inherits every fact of each callee it reaches through
        a call event ``edge`` accepts (all calls by default); ``skip``
        functions neither hold nor pass on facts.  Sets only grow over
        a finite function set, so the worklist terminates on recursive
        graphs too.  Returns ref -> facts for every function with any.
        """
        facts = {
            ref: set(seed)
            for ref, seed in seeds.items()
            if seed and not (skip and skip(self.summaries[ref]))
        }
        work = list(facts)
        while work:
            callee = work.pop()
            inherited = facts[callee]
            for caller, event in self.callers.get(callee, ()):
                if skip and skip(caller):
                    continue
                if edge and not edge(caller, event):
                    continue
                held = facts.setdefault(caller.ref, set())
                if not inherited <= held:
                    held |= inherited
                    work.append(caller.ref)
        return facts

    def reaching(
        self,
        seeds: Iterable[str],
        edge: Callable[[FunctionSummary, Event], bool] | None = None,
    ) -> set[str]:
        """``seeds`` plus every function that calls into them."""
        return set(
            self.propagate({ref: {True} for ref in seeds}, edge=edge)
        )

    # -- shared interprocedural facts ------------------------------------

    @cached_property
    def transfer(self) -> set[str]:
        """Functions that hand an acquired resource to their caller.

        Either the function returns a name bound from ``begin()`` (or
        from a call to another transfer function), or it acquires locks
        on behalf of an externally managed transaction (the acquire's
        txn-id argument is rooted at ``self.``).
        """
        return self.reaching(
            (
                ref
                for ref, summary in self.summaries.items()
                if _transfers_directly(summary)
            ),
            edge=lambda caller, event: event.bound in caller.returns_names,
        )


def _transfers_directly(summary: FunctionSummary) -> bool:
    return any(
        event.bound in summary.returns_names
        # delegated: the owning transaction lives elsewhere
        or (
            event.detail == "lock"
            and (event.txn_arg or "").startswith("self.")
        )
        for event in summary.acquire_events()
    )


def run_passes(
    program: Program, selected: set[str] | None = None
) -> list[Diagnostic]:
    """Run the chosen passes (all of ``PASS_NAMES`` by default), sorted
    stably."""
    wanted = set(PASS_NAMES) if selected is None else selected
    passes = {"QA801": pass_lock_order, "QA803": pass_blocking_io}
    diagnostics = [
        diagnostic
        for code, run in passes.items()
        if code in wanted
        for diagnostic in run(program)
    ]
    diagnostics.sort(
        key=lambda d: (d.code, d.location.operation, d.message)
    )
    return diagnostics


def location(ref: str) -> SourceLocation:
    return SourceLocation("python", ref)


def _is_framework(summary: FunctionSummary) -> bool:
    return summary.info.module in FRAMEWORK_MODULES


# -- QA801: composed lock order ------------------------------------------


def pass_lock_order(program: Program) -> list[Diagnostic]:
    tokens = program.propagate(
        {
            ref: {
                e.token
                for e in summary.acquire_events()
                if e.token is not None
            }
            for ref, summary in program.summaries.items()
        },
        skip=_is_framework,
    )

    # attribute each order edge to the functions that create it
    edges: dict[tuple[str, str], set[str]] = {}
    for ref, summary in program.summaries.items():
        if _is_framework(summary):
            continue
        held: set[str] = set()
        for event in summary.events:
            if event.kind == "acquire" and event.token is not None:
                batches: list[Iterable[str]] = [(event.token,)]
            elif event.kind == "call":
                batches = [
                    tokens.get(callee.ref, ())
                    for callee in program.resolve(event.callee or "")
                ]
            else:
                continue
            for acquired in batches:
                for h in held:
                    for t in acquired:
                        if h != t:
                            edges.setdefault((h, t), set()).add(ref)
                held.update(acquired)

    graph: dict[str, set[str]] = {}
    for earlier, later in edges:
        graph.setdefault(earlier, set()).add(later)
        graph.setdefault(later, set())
    out: list[Diagnostic] = []
    for component in _sccs(graph):
        if len(component) < 2:
            continue
        members = sorted(component)
        witnesses = sorted(
            {
                witness
                for (earlier, later), refs in edges.items()
                if earlier in component and later in component
                for witness in refs
            }
        )
        out.append(
            make(
                "QA801",
                f"lock resources {members} are acquired in "
                f"conflicting orders across call chains; witnesses: "
                f"{witnesses}",
                location(witnesses[0] if witnesses else "?"),
            )
        )
    return out


def _sccs(graph: Mapping[str, set[str]]) -> list[set[str]]:
    """Tarjan's strongly connected components, iteratively."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    components: list[set[str]] = []

    for root in graph:
        if root in index:
            continue
        work: list[tuple[str, Iterable[str]]] = [
            (root, iter(graph[root]))
        ]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


# -- QA803: blocking I/O under a lock ------------------------------------


def pass_blocking_io(program: Program) -> list[Diagnostic]:
    reach = _io_reachability(program)
    # transfer functions that (transitively) acquire a lock: calling
    # one starts a held region in the caller
    lock_transfer = program.transfer & program.reaching(
        ref
        for ref, summary in program.summaries.items()
        if any(e.detail == "lock" for e in summary.acquire_events())
    )
    out: list[Diagnostic] = []
    for ref, summary in program.summaries.items():
        held = False
        reported: set[str] = set()
        for event in summary.events:
            if event.kind == "acquire" and event.detail == "lock":
                held = True
            elif event.kind == "call":
                callee = event.callee or ""
                if callee in RELEASE_NAMES:
                    held = False
                    continue
                callee_refs = [s.ref for s in program.resolve(callee)]
                if held:
                    for callee_ref in callee_refs:
                        for kind in sorted(reach.get(callee_ref, ())):
                            if kind in reported:
                                continue
                            reported.add(kind)
                            path = _io_path(
                                program, reach, callee_ref, kind
                            )
                            out.append(
                                make(
                                    "QA803",
                                    f"{ref} holds a lock while "
                                    f"{kind} is reachable via "
                                    f"{' -> '.join(path)}",
                                    location(ref),
                                )
                            )
                if any(r in lock_transfer for r in callee_refs):
                    held = True
            elif event.kind == "io" and held:
                if event.detail not in reported:
                    reported.add(event.detail or "io")
                    out.append(
                        make(
                            "QA803",
                            f"{ref} performs blocking "
                            f"{event.detail} at line {event.line} "
                            f"while holding a lock",
                            location(ref),
                        )
                    )
    return out


def _io_reachability(program: Program) -> dict[str, set[str]]:
    """ref -> blocking-io kinds transitively reachable from it.

    Traversal never follows a release-named call (commit/abort/
    release_all): the fsync inside the commit protocol ends the held
    region rather than extending it.
    """
    return program.propagate(
        {
            ref: {
                e.detail
                for e in summary.events
                if e.kind == "io" and e.detail is not None
            }
            for ref, summary in program.summaries.items()
        },
        skip=lambda summary: summary.info.name in RELEASE_NAMES,
    )


def _io_path(
    program: Program,
    reach: dict[str, set[str]],
    start: str,
    kind: str,
) -> list[str]:
    """A witness call chain from ``start`` to a direct ``kind`` site."""
    parents: dict[str, str | None] = {start: None}
    queue: deque[str] = deque([start])
    while queue:
        current = queue.popleft()
        summary = program.summaries[current]
        direct = {
            e.detail for e in summary.events if e.kind == "io"
        }
        if kind in direct:
            path = [current]
            while parents[path[-1]] is not None:
                parent = parents[path[-1]]
                assert parent is not None
                path.append(parent)
            return list(reversed(path))
        for event in summary.events:
            if event.kind != "call":
                continue
            callee = event.callee or ""
            if callee in RELEASE_NAMES:
                continue
            for callee_summary in program.resolve(callee):
                nxt = callee_summary.ref
                if nxt in parents:
                    continue
                if kind not in reach.get(nxt, set()):
                    continue
                parents[nxt] = current
                queue.append(nxt)
    return [start]
