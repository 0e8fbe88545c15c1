"""The QA8xx interprocedural passes over function summaries.

========  ============================================================
QA801     lock-order inversion: per-function acquisition sequences are
          composed across the call graph; a strongly connected
          component in the global resource-order graph is a potential
          AB/BA deadlock no single function exhibits on its own.
QA802     a lock or transaction is acquired on a path with no
          dominating release: no enclosing releasing context manager,
          and no try handler/finally that aborts or releases.
          Functions that *transfer ownership* (return the transaction,
          or lock on behalf of an externally managed transaction)
          shift the obligation to their callers.
QA803     blocking I/O (WAL fsync, Gremlin submit, checkpoint) is
          reachable while a lock is held.  Release operations
          (commit/abort/release_all) end the held region and are not
          traversed: forcing the log *inside* commit is the 2PL
          protocol, not a hazard.
QA804     a storage-mutation function emits no sanitizer trace event.
          Mutation means: a record/page-level ``charge``, or mutating
          the same ``self`` attributes a traced sibling method of the
          class mutates, its cache attributes excepted.  This keeps
          the sanitizer's runtime hooks from rotting silently as the
          engines grow.
QA805     a cache attribute is written (``put``/``store``) but no code
          path in its class ever registers an invalidation
          (``bump_epoch``/``invalidate*``/``clear``).  A dict memo
          named ``*_cache`` counts too: filled by ``memo[k] = v``,
          invalidated by ``pop``/``clear``.
========  ============================================================

The MVCC-effect passes QA806–QA810 live in
:mod:`repro.analysis.program.effects` and run through the same
:func:`run_passes` entry point.

Every pass emits on the shared :class:`~repro.analysis.diagnostics.
Diagnostic` model with ``dialect="python"`` and
``operation="module:Class.method"`` so findings are addressable by the
baseline file.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.diagnostics import Diagnostic, SourceLocation, make
from repro.analysis.lockorder import _sccs
from repro.analysis.program.callgraph import CallGraph
from repro.analysis.program.summaries import (
    MUTATION_CHARGES,
    RELEASE_NAMES,
    FunctionSummary,
    class_cache_attrs,
)

#: modules implementing the locking mechanism itself: their internal
#: re-dispatch (`acquire_many` -> `self.acquire`) is not client code
#: and must not contribute resource tokens or discipline obligations
FRAMEWORK_MODULES = {"repro.txn.locks", "repro.txn.manager"}

PASS_NAMES = (
    "QA801",
    "QA802",
    "QA803",
    "QA804",
    "QA805",
    "QA806",
    "QA807",
    "QA808",
    "QA809",
    "QA810",
)


class Program:
    """The call graph plus every function summary, shared by passes."""

    def __init__(
        self, graph: CallGraph, summaries: dict[str, FunctionSummary]
    ) -> None:
        self.graph = graph
        self.summaries = summaries
        self._transfer: set[str] | None = None
        self._lock_transitive: set[str] | None = None

    def resolve(self, name: str) -> list[FunctionSummary]:
        return [
            self.summaries[info.ref]
            for info in self.graph.resolve(name)
            if info.ref in self.summaries
        ]

    # -- shared interprocedural facts ------------------------------------

    def transfer_functions(self) -> set[str]:
        """Functions that hand an acquired resource to their caller.

        Either the function returns a name bound from ``begin()`` (or
        from a call to another transfer function), or it acquires locks
        on behalf of an externally managed transaction (the acquire's
        txn-id argument is rooted at ``self.``).
        """
        if self._transfer is not None:
            return self._transfer
        transfer: set[str] = set()
        changed = True
        while changed:
            changed = False
            for ref, summary in self.summaries.items():
                if ref in transfer:
                    continue
                if self._transfers(summary, transfer):
                    transfer.add(ref)
                    changed = True
        self._transfer = transfer
        return transfer

    def _transfers(
        self, summary: FunctionSummary, transfer: set[str]
    ) -> bool:
        bound: set[str] = set()
        for event in summary.events:
            if event.kind == "acquire":
                if (
                    event.detail == "lock"
                    and event.txn_arg is not None
                    and event.txn_arg.startswith("self.")
                ):
                    return True  # delegated: owner lives elsewhere
                if event.bound is not None:
                    bound.add(event.bound)
            elif event.kind == "call" and event.bound is not None:
                if any(
                    callee.ref in transfer
                    and callee.ref != summary.ref
                    for callee in self.resolve(event.callee or "")
                ):
                    bound.add(event.bound)
        return bool(bound & summary.returns_names)

    def lock_transitive(self) -> set[str]:
        """Functions that (transitively) perform a lock acquisition."""
        if self._lock_transitive is not None:
            return self._lock_transitive
        result = {
            ref
            for ref, summary in self.summaries.items()
            if any(
                e.kind == "acquire" and e.detail == "lock"
                for e in summary.events
            )
        }
        changed = True
        while changed:
            changed = False
            for ref, summary in self.summaries.items():
                if ref in result:
                    continue
                for event in summary.events:
                    if event.kind != "call":
                        continue
                    if any(
                        callee.ref in result
                        for callee in self.resolve(event.callee or "")
                    ):
                        result.add(ref)
                        changed = True
                        break
        self._lock_transitive = result
        return result


def run_passes(
    program: Program, selected: set[str] | None = None
) -> list[Diagnostic]:
    """Run the chosen passes (all of ``PASS_NAMES`` by default), sorted
    stably."""
    wanted = set(PASS_NAMES) if selected is None else selected
    diagnostics: list[Diagnostic] = []
    if "QA801" in wanted:
        diagnostics += pass_lock_order(program)
    if "QA802" in wanted:
        diagnostics += pass_release_discipline(program)
    if "QA803" in wanted:
        diagnostics += pass_blocking_io(program)
    if "QA804" in wanted:
        diagnostics += pass_trace_coverage(program)
    if "QA805" in wanted:
        diagnostics += pass_cache_invalidation(program)
    # imported here: effects.py uses Program, defined in this module
    from repro.analysis.program.effects import run_effect_passes

    diagnostics += run_effect_passes(program, wanted)
    diagnostics.sort(
        key=lambda d: (d.code, d.location.operation, d.message)
    )
    return diagnostics


def _location(ref: str) -> SourceLocation:
    return SourceLocation("python", ref)


# -- QA801: composed lock order ------------------------------------------


def pass_lock_order(program: Program) -> list[Diagnostic]:
    tokens_all: dict[str, set[str]] = {}
    pairs: dict[str, set[tuple[str, str]]] = {}
    summaries = {
        ref: s
        for ref, s in program.summaries.items()
        if s.info.module not in FRAMEWORK_MODULES
    }
    for ref in summaries:
        tokens_all[ref] = set()
        pairs[ref] = set()

    def resolve(name: str) -> list[str]:
        return [
            s.ref for s in program.resolve(name) if s.ref in summaries
        ]

    changed = True
    while changed:
        changed = False
        for ref, summary in summaries.items():
            held: set[str] = set()
            new_tokens: set[str] = set()
            new_pairs: set[tuple[str, str]] = set()
            for event in summary.events:
                if event.kind == "acquire" and event.token is not None:
                    token = event.token
                    new_pairs |= {
                        (h, token) for h in held if h != token
                    }
                    held.add(token)
                    new_tokens.add(token)
                elif event.kind == "call":
                    for callee_ref in resolve(event.callee or ""):
                        callee_tokens = tokens_all[callee_ref]
                        new_pairs |= pairs[callee_ref]
                        new_pairs |= {
                            (h, t)
                            for h in held
                            for t in callee_tokens
                            if h != t
                        }
                        held |= callee_tokens
                        new_tokens |= callee_tokens
            if not new_pairs <= pairs[ref] or not (
                new_tokens <= tokens_all[ref]
            ):
                pairs[ref] |= new_pairs
                tokens_all[ref] |= new_tokens
                changed = True

    # second walk: attribute each edge to the functions that create it
    edges: dict[tuple[str, str], set[str]] = {}
    for ref, summary in summaries.items():
        held = set()
        for event in summary.events:
            if event.kind == "acquire" and event.token is not None:
                for h in held:
                    if h != event.token:
                        edges.setdefault((h, event.token), set()).add(
                            ref
                        )
                held.add(event.token)
            elif event.kind == "call":
                for callee_ref in resolve(event.callee or ""):
                    for h in held:
                        for t in tokens_all[callee_ref]:
                            if h != t:
                                edges.setdefault((h, t), set()).add(ref)
                    held |= tokens_all[callee_ref]

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
                _location(witnesses[0] if witnesses else "?"),
            )
        )
    return out


# -- QA802: release discipline -------------------------------------------


def pass_release_discipline(program: Program) -> list[Diagnostic]:
    transfer = program.transfer_functions()
    out: list[Diagnostic] = []
    for ref, summary in program.summaries.items():
        if summary.info.module in FRAMEWORK_MODULES:
            continue
        unsafe: list[str] = []
        for event in summary.events:
            if event.with_safe:
                continue
            if event.kind == "acquire":
                unsafe.append(
                    f"{event.detail} acquisition at line {event.line}"
                )
            elif event.kind == "call":
                holders = [
                    callee.ref
                    for callee in program.resolve(event.callee or "")
                    if callee.ref in transfer and callee.ref != ref
                ]
                if holders:
                    unsafe.append(
                        f"call to {event.callee} (acquires on the "
                        f"caller's behalf) at line {event.line}"
                    )
        if not unsafe:
            continue
        if ref in transfer:
            continue  # the caller carries the obligation
        if summary.has_release_handler:
            continue
        out.append(
            make(
                "QA802",
                f"{ref} acquires a resource with no dominating "
                f"release on the exception path ({unsafe[0]}); an "
                f"exception leaks the lock/transaction — wrap in "
                f"try/except with abort()/release_all(), or use a "
                f"releasing context manager",
                _location(ref),
            )
        )
    return out


# -- QA803: blocking I/O under a lock ------------------------------------


def pass_blocking_io(program: Program) -> list[Diagnostic]:
    reach = _io_reachability(program)
    transfer = program.transfer_functions()
    lock_transitive = program.lock_transitive()
    lock_transfer = transfer & lock_transitive
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
                callee_refs = [
                    s.ref for s in program.resolve(callee)
                ]
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
                                    _location(ref),
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
                            _location(ref),
                        )
                    )
    return out


def _io_reachability(program: Program) -> dict[str, set[str]]:
    """ref -> blocking-io kinds transitively reachable from it.

    Traversal never follows a release-named call (commit/abort/
    release_all): the fsync inside the commit protocol ends the held
    region rather than extending it.
    """
    reach: dict[str, set[str]] = {
        ref: {
            e.detail
            for e in summary.events
            if e.kind == "io" and e.detail is not None
        }
        for ref, summary in program.summaries.items()
        if summary.info.name not in RELEASE_NAMES
    }
    for ref in program.summaries:
        reach.setdefault(ref, set())
    changed = True
    while changed:
        changed = False
        for ref, summary in program.summaries.items():
            if summary.info.name in RELEASE_NAMES:
                continue
            acc = reach[ref]
            before = len(acc)
            for event in summary.events:
                if event.kind != "call":
                    continue
                callee = event.callee or ""
                if callee in RELEASE_NAMES:
                    continue
                for callee_summary in program.resolve(callee):
                    acc |= reach.get(callee_summary.ref, set())
            if len(acc) != before:
                changed = True
    return reach


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


# -- QA804: sanitizer trace coverage -------------------------------------


def pass_trace_coverage(program: Program) -> list[Diagnostic]:
    by_class: dict[
        tuple[str, str], list[FunctionSummary]
    ] = {}
    out: list[Diagnostic] = []
    for summary in program.summaries.values():
        cls = summary.info.class_name
        if cls is not None:
            by_class.setdefault(
                (summary.info.module, cls), []
            ).append(summary)
        elif _charges_mutation(summary):
            out.append(_qa804(summary, via="charge"))
    for members in by_class.values():
        traced_attrs: set[str] = set()
        for member in members:
            if member.trace_write:
                traced_attrs |= member.self_mutations
        # a traced writer that also evicts a cache does not make every
        # fill of that cache a storage write
        traced_attrs -= class_cache_attrs(members, traced_attrs)
        for member in members:
            if member.trace_write or member.info.name == "__init__":
                continue
            if _charges_mutation(member):
                out.append(_qa804(member, via="charge"))
            elif member.self_mutations & traced_attrs:
                shared = sorted(member.self_mutations & traced_attrs)
                out.append(_qa804(member, via=f"attrs {shared}"))
    return out


def _charges_mutation(summary: FunctionSummary) -> bool:
    return bool(summary.charges & MUTATION_CHARGES)


def _qa804(summary: FunctionSummary, via: str) -> Diagnostic:
    return make(
        "QA804",
        f"{summary.ref} mutates storage ({via}) but never emits a "
        f"runtime.TRACE.write event; the dynamic sanitizer cannot see "
        f"these writes — add the trace hook or baseline it as a "
        f"sub-record primitive",
        _location(summary.ref),
    )


# -- QA805: cache invalidation coverage ----------------------------------


def pass_cache_invalidation(program: Program) -> list[Diagnostic]:
    defs: dict[tuple[str, str, str], str] = {}
    writes: dict[tuple[str, str], set[str]] = {}
    invalidations: dict[tuple[str, str], set[str]] = {}
    first_writer: dict[tuple[str, str, str], str] = {}
    for summary in program.summaries.values():
        cls = summary.info.class_name
        if cls is None:
            continue
        key = (summary.info.module, cls)
        for attr, cache_cls in summary.cache_defs.items():
            defs[(*key, attr)] = cache_cls
        for attr in summary.memo_defs:
            defs[(*key, attr)] = "dict"
        for attr in summary.cache_writes:
            writes.setdefault(key, set()).add(attr)
            first_writer.setdefault((*key, attr), summary.ref)
        invalidations.setdefault(key, set()).update(
            summary.cache_invalidations
        )
    out: list[Diagnostic] = []
    for (module, cls, attr), cache_cls in sorted(defs.items()):
        key = (module, cls)
        if attr not in writes.get(key, set()):
            continue
        if attr in invalidations.get(key, set()):
            continue
        writer = first_writer.get((module, cls, attr), "?")
        out.append(
            make(
                "QA805",
                f"{module}:{cls}.{attr} ({cache_cls}) is written by "
                f"{writer} but no code path in {cls} ever registers "
                f"an invalidation (bump_epoch/invalidate*/clear/pop); "
                f"stale entries will outlive the truth they cache",
                _location(f"{module}:{cls}.{attr}"),
            )
        )
    return out
