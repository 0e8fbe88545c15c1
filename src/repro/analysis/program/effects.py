"""The QA806–QA810 interprocedural MVCC-effect passes.

Where the PR 6 passes reason about *resources* (locks, transactions,
I/O), these reason about *versions*: every function in a class that
owns a :class:`~repro.storage.mvcc.VersionStore` is abstracted to a
point in a small effect lattice over its storage objects —

* reads: RAW (subscript/iteration/probe of a record container with no
  visibility consultation) < VERSIONED (a ``visible``/``filter_visible``
  /``read``/``stale`` call dominates, possibly in a callee);
* index probes: UNFIXED (index hits served as-is) < FIXED (the probe
  transitively reaches ``stale_keys``, the re-check discipline for
  unversioned index entries);
* writes: UNSTAMPED < STAMPED (``stamp``/``record_update``/
  ``record_delete``/... reachable);
* cache ops: UNGATED < GATED (``stale_reads``/``stale`` consulted);
* reclaim: OUTSIDE < INSIDE the ``on_reclaim`` watermark closure.

Facts are seeded per function from the syntactic summaries and
propagated *up* the call graph to fixpoint by
:meth:`~repro.analysis.program.passes.Program.reaching` (a caller
inherits its callees' consultations), so a helper can carry the
discipline for the methods that use it.  Each pass then reports
members stuck at the lattice bottom.

========  ============================================================
QA806     snapshot-bypassing raw read on a versioned store: a pure
          reader touches record containers (or probes a secondary
          index without the ``stale_keys`` fixup — index entries are
          unversioned, DESIGN §13) outside the visibility layer.
QA807     mutation without version stamping: a record container is
          mutated on a path that never reaches a version write, so
          snapshot readers would observe the change mid-flight.
QA808     cache fill/hit not gated on snapshot staleness: a stale
          snapshot could read — or poison — entries derived from
          state newer than its read timestamp.
QA809     physical reclaim outside the watermark path: record data is
          removed by a function that is neither inside the
          ``on_reclaim`` closure nor consulting ``record_delete``/
          ``undelete`` (the deferred-delete decision).
QA810     side effects in ``repro.exec.*``: compiled closures are
          read-only batch kernels; lock acquisition, trace writes,
          mutation charges, and storage/cache write verbs are all
          hazards there.
========  ============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic, make
from repro.analysis.program.passes import Program, location
from repro.analysis.program.summaries import (
    MUTATION_CHARGES,
    MUTATOR_ATTRS,
    FunctionSummary,
    class_cache_attrs,
)

#: read-side VersionStore methods: calling any of these (on the class's
#: store attr) means the function consults the visibility layer
VERSION_READ_METHODS = {
    "visible",
    "filter_visible",
    "read",
    "stale",
    "stale_keys",
}

#: write-side VersionStore methods: the function records its mutation
VERSION_WRITE_METHODS = {
    "stamp",
    "record_update",
    "record_delete",
    "record_recreate",
    "undelete",
    "move",
}

#: VersionStore methods that consult the deferred-delete decision —
#: the caller-side licence for physical removal (QA809)
DELETE_CONSULT_METHODS = {"record_delete", "undelete", "record_recreate"}

#: bare callee names that gate a cache op on snapshot staleness
STALE_GATE_NAMES = {"stale", "stale_reads", "stale_keys"}

#: accessor methods that read record data out of a container raw
READ_ACCESSORS = {
    "get",
    "scan",
    "search",
    "range_scan",
    "fetch",
    "read_row",
    "read_batch",
    "read_values",
    "items",
    "values",
    "keys",
}

#: index-probe accessors (rule B of QA806): their results come from
#: *unversioned* index entries and need the ``stale_keys`` fixup
PROBE_ACCESSORS = {"search", "range_scan"}

#: cache operations that must be staleness-gated (fills and hits);
#: evictions (``pop``/``clear``/``invalidate*``) are always safe
CACHE_OP_NAMES = {"get", "put", "store", "setdefault"}

#: callee names that are storage/cache *writes* when they appear in a
#: compiled-execution module.  Deliberately excludes the generic
#: local-collection verbs (``append``/``add``/``update``/``pop``/
#: ``setdefault``) the kernels use on their own batch state.
EXEC_EFFECT_CALLS = {
    "stamp",
    "record_update",
    "record_delete",
    "record_recreate",
    "undelete",
    "bump_epoch",
    "invalidate",
    "invalidate_all",
    "create_node",
    "create_rel",
    "create_vertex",
    "create_edge",
    "set_node_prop",
    "set_vertex_prop",
    "apply_update_batch",
    "put",
    "store",
    "insert",
    "submit",
    "delete",
    "remove",
}

#: module prefix whose functions must be read-only batch kernels
EXEC_MODULE_PREFIX = "repro.exec"

EFFECT_PASS_NAMES = ("QA806", "QA807", "QA808", "QA809", "QA810")


@dataclass
class StoreClassFacts:
    """Effect-relevant facts about one VersionStore-owning class."""

    module: str
    class_name: str
    members: list[FunctionSummary] = field(default_factory=list)
    #: self attrs holding the VersionStore(s)
    store_attrs: set[str] = field(default_factory=set)
    #: record containers: container-initialized attrs that some member
    #: mutates; excludes caches and index structures
    containers: set[str] = field(default_factory=set)
    #: index structures (attr name contains "index"): rule B territory
    index_attrs: set[str] = field(default_factory=set)
    #: cache attrs: typed cache defs plus ``*_cache`` containers
    cache_attrs: set[str] = field(default_factory=set)
    #: the on_reclaim callback and its same-class call closure — the
    #: sanctioned watermark reclaim path
    sanctioned: set[str] = field(default_factory=set)
    #: just the registered on_reclaim callback names (the QA809 entry
    #: points; the rest of the closure also serves ordinary paths)
    reclaim_callbacks: set[str] = field(default_factory=set)

    def key(self) -> tuple[str, str]:
        return (self.module, self.class_name)


def collect_store_classes(
    program: Program,
) -> dict[tuple[str, str], StoreClassFacts]:
    """Facts for every class that owns a VersionStore."""
    out: dict[tuple[str, str], StoreClassFacts] = {}
    for (module, cls), members in program.classes.items():
        store_attrs: set[str] = set()
        callbacks: set[str] = set()
        container_defs: set[str] = set()
        mutated: set[str] = set()
        for member in members:
            for attr, callback in member.version_store_defs.items():
                store_attrs.add(attr)
                if callback is not None:
                    callbacks.add(callback)
            container_defs |= member.container_defs
            mutated |= member.self_mutations
            for attr, calls in member.attr_calls.items():
                if calls & MUTATOR_ATTRS:
                    mutated.add(attr)
        if not store_attrs:
            continue
        cache_attrs = class_cache_attrs(members, container_defs)
        index_attrs = {
            a
            for a in container_defs | mutated
            if "index" in a and a not in cache_attrs
        }
        facts = StoreClassFacts(
            module=module,
            class_name=cls,
            members=members,
            store_attrs=store_attrs,
            containers={
                a
                for a in container_defs & mutated
                if a not in cache_attrs
                and a not in index_attrs
                and a not in store_attrs
            },
            index_attrs=index_attrs,
            cache_attrs=cache_attrs,
        )
        facts.reclaim_callbacks = set(callbacks)
        facts.sanctioned = _reclaim_closure(facts, callbacks)
        out[(module, cls)] = facts
    return out


def _reclaim_closure(
    facts: StoreClassFacts, callbacks: set[str]
) -> set[str]:
    """The on_reclaim callback plus its same-class call closure."""
    by_name = {m.info.name: m for m in facts.members}
    todo = [by_name[c] for c in callbacks if c in by_name]
    closure: set[str] = set()
    while todo:
        member = todo.pop()
        if member.ref in closure:
            continue
        closure.add(member.ref)
        for event in member.events:
            if event.kind != "call":
                continue
            callee = by_name.get(event.callee or "")
            if callee is not None and callee.ref not in closure:
                todo.append(callee)
    return closure


def _store_method_calls(
    summary: FunctionSummary, facts: StoreClassFacts
) -> set[str]:
    """Names of VersionStore methods this function calls directly."""
    calls: set[str] = set()
    for attr in facts.store_attrs:
        calls |= summary.attr_calls.get(attr, set())
    return calls


def _store_callers(
    facts: dict[tuple[str, str], StoreClassFacts], methods: set[str]
) -> set[str]:
    """Store-class members that call one of ``methods`` on the store."""
    return {
        member.ref
        for cf in facts.values()
        for member in cf.members
        if _store_method_calls(member, cf) & methods
    }


def _calling(program: Program, names: set[str]) -> set[str]:
    """Functions that call one of ``names`` directly."""
    return {
        ref
        for ref, summary in program.summaries.items()
        if any(e.kind == "call" and e.callee in names for e in summary.events)
    }


def _is_writer(
    summary: FunctionSummary, facts: StoreClassFacts
) -> bool:
    """Does the function mutate storage (it may then read it raw)?"""
    if _store_method_calls(summary, facts) & VERSION_WRITE_METHODS:
        return True
    touched = facts.containers | facts.index_attrs
    if summary.self_mutations & touched:
        return True
    return any(
        summary.attr_calls.get(attr, set()) & MUTATOR_ATTRS
        for attr in touched
    )


def run_effect_passes(
    program: Program, wanted: set[str]
) -> list[Diagnostic]:
    if not wanted & set(EFFECT_PASS_NAMES):
        return []
    facts = collect_store_classes(program)
    out: list[Diagnostic] = []
    if "QA806" in wanted:
        out += pass_snapshot_bypass(program, facts)
    if "QA807" in wanted:
        out += pass_unversioned_mutation(program, facts)
    if "QA808" in wanted:
        out += pass_ungated_cache(program, facts)
    if "QA809" in wanted:
        out += pass_reclaim_discipline(program, facts)
    if "QA810" in wanted:
        out += pass_exec_effects(program)
    return out


# -- QA806: snapshot-bypassing raw reads ---------------------------------


def _is_lookup_name(name: str) -> bool:
    return (
        name == "lookup"
        or name.startswith("lookup_")
        or name.endswith("_lookup")
    )


def pass_snapshot_bypass(
    program: Program, facts: dict[tuple[str, str], StoreClassFacts]
) -> list[Diagnostic]:
    version_checked = program.reaching(
        _store_callers(facts, VERSION_READ_METHODS)
    )
    index_fixed = program.reaching(_calling(program, {"stale_keys"}))
    out: list[Diagnostic] = []
    for cf in facts.values():
        for member in cf.members:
            name = member.info.name
            if name == "__init__" or member.ref in cf.sanctioned:
                continue
            if _is_writer(member, cf):
                continue
            probes = _is_lookup_name(name) or any(
                member.attr_calls.get(attr, set()) & PROBE_ACCESSORS
                for attr in cf.index_attrs
            )
            if probes and member.ref not in index_fixed:
                out.append(
                    make(
                        "QA806",
                        f"{member.ref} serves results from an "
                        f"unversioned secondary index without the "
                        f"stale_keys() fixup; under a held snapshot, "
                        f"entries re-filed by later writers make the "
                        f"probe miss rows the snapshot must see (and "
                        f"surface rows it must not) — re-check stale "
                        f"keys against the snapshot-visible value, or "
                        f"fall back to a scan",
                        location(member.ref),
                    )
                )
                continue
            raw = (
                member.attr_subscript_loads | member.attr_iterations
            ) & cf.containers
            raw |= {
                attr
                for attr in cf.containers
                if member.attr_calls.get(attr, set()) & READ_ACCESSORS
            }
            if raw and member.ref not in version_checked:
                touched = ", ".join(sorted(raw))
                out.append(
                    make(
                        "QA806",
                        f"{member.ref} reads record container(s) "
                        f"{touched} raw — no visible()/filter_visible"
                        f"()/read()/stale() on {cf.class_name}'s "
                        f"version store dominates the access, so a "
                        f"snapshot reader would observe "
                        f"latest-committed state instead of its own "
                        f"view",
                        location(member.ref),
                    )
                )
    return out


# -- QA807: mutation without version stamping ----------------------------


def pass_unversioned_mutation(
    program: Program, facts: dict[tuple[str, str], StoreClassFacts]
) -> list[Diagnostic]:
    stamped = program.reaching(
        _store_callers(facts, VERSION_WRITE_METHODS)
    )
    out: list[Diagnostic] = []
    for cf in facts.values():
        for member in cf.members:
            if (
                member.info.name == "__init__"
                or member.ref in cf.sanctioned
            ):
                continue
            mutated = member.self_mutations & cf.containers
            mutated |= {
                attr
                for attr in cf.containers
                if member.attr_calls.get(attr, set()) & MUTATOR_ATTRS
            }
            if mutated and member.ref not in stamped:
                touched = ", ".join(sorted(mutated))
                out.append(
                    make(
                        "QA807",
                        f"{member.ref} mutates record container(s) "
                        f"{touched} without reaching a version write "
                        f"(stamp/record_update/record_delete/...); "
                        f"active snapshots would see the new value "
                        f"mid-transaction instead of their own "
                        f"version",
                        location(member.ref),
                    )
                )
    return out


# -- QA808: cache ops not gated on snapshot staleness --------------------


def pass_ungated_cache(
    program: Program, facts: dict[tuple[str, str], StoreClassFacts]
) -> list[Diagnostic]:
    gated = program.reaching(_calling(program, STALE_GATE_NAMES))
    out: list[Diagnostic] = []
    for cf in facts.values():
        for member in cf.members:
            if member.info.name == "__init__":
                continue
            ops = {
                attr
                for attr in cf.cache_attrs
                if member.attr_calls.get(attr, set()) & CACHE_OP_NAMES
            }
            # fills and hits only: an eviction is always safe
            ops |= (
                member.attr_subscript_loads | member.cache_writes
            ) & cf.cache_attrs
            if ops and member.ref not in gated:
                touched = ", ".join(sorted(ops))
                out.append(
                    make(
                        "QA808",
                        f"{member.ref} fills or reads cache(s) "
                        f"{touched} without consulting snapshot "
                        f"staleness (oracle.stale_reads() or "
                        f"mvcc.stale()); a stale snapshot could be "
                        f"served — or poison — entries derived from "
                        f"state newer than its read timestamp",
                        location(member.ref),
                    )
                )
    return out


# -- QA809: physical reclaim outside the watermark path ------------------


def pass_reclaim_discipline(
    program: Program, facts: dict[tuple[str, str], StoreClassFacts]
) -> list[Diagnostic]:
    consults = program.reaching(
        _store_callers(facts, DELETE_CONSULT_METHODS)
    )
    out: list[Diagnostic] = []
    for cf in facts.values():
        if not cf.sanctioned:
            continue
        # only the registered callbacks are hazardous to call directly:
        # the helpers in their closure (raw fetch, index unlink) also
        # serve ordinary read/write paths
        sanctioned_names = cf.reclaim_callbacks
        for member in cf.members:
            if (
                member.info.name == "__init__"
                or member.ref in cf.sanctioned
            ):
                continue
            reclaim_calls = sorted(
                {
                    event.callee
                    for event in member.events
                    if event.kind == "call"
                    and event.callee in sanctioned_names
                }
            )
            if reclaim_calls and member.ref not in consults:
                out.append(
                    make(
                        "QA809",
                        f"{member.ref} calls the physical-reclaim "
                        f"path ({', '.join(reclaim_calls)}) without "
                        f"consulting record_delete()/undelete(); "
                        f"outside the GC watermark discipline this "
                        f"removes data an active snapshot may still "
                        f"need",
                        location(member.ref),
                    )
                )
    return out


# -- QA810: side effects in compiled execution ---------------------------


def pass_exec_effects(program: Program) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for ref, summary in program.summaries.items():
        if not summary.info.module.startswith(EXEC_MODULE_PREFIX):
            continue
        hazards: list[str] = []
        acquires = summary.acquire_events()
        if acquires:
            hazards.append(
                f"{acquires[0].detail} acquisition at line "
                f"{acquires[0].line}"
            )
        if summary.trace_write:
            hazards.append("a runtime.TRACE.write event")
        mutation_charges = sorted(summary.charges & MUTATION_CHARGES)
        if mutation_charges:
            hazards.append(
                f"mutation charge(s) {', '.join(mutation_charges)}"
            )
        effect_calls = sorted(
            {
                event.callee
                for event in summary.events
                if event.kind == "call"
                and event.callee in EXEC_EFFECT_CALLS
            }
        )
        if effect_calls:
            hazards.append(
                f"storage/cache write call(s) "
                f"{', '.join(effect_calls)}"
            )
        if hazards:
            out.append(
                make(
                    "QA810",
                    f"{ref} is compiled-execution code but has side "
                    f"effects ({'; '.join(hazards)}); closures in "
                    f"{EXEC_MODULE_PREFIX}.* must be read-only batch "
                    f"kernels — move the effect behind the engine "
                    f"write path",
                    location(ref),
                )
            )
    return out
