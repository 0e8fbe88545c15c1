"""Runtime/static cross-checks: QA8xx vs the PR 5 fault matrix.

The dynamic sanitizer and the whole-program analyzer claim to police
the same disciplines from opposite sides.  These tests pin that down:
each lock-discipline fault the runtime detector catches from an
injected trace is *also* caught statically when the same behaviour is
written down as source code — and the trace itself is the generator,
so the two views can never drift apart silently.
"""

import pytest

from repro.analysis.program import analyze_program_sources
from repro.relational.engine import Database
from repro.sanitizer import runtime
from repro.sanitizer.faults import FAULTS, _INJECTORS
from repro.sanitizer.race import analyze_trace


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE person (id BIGINT PRIMARY KEY, name TEXT)"
    )
    database.execute(
        "CREATE TABLE person_email (personid BIGINT, email TEXT)"
    )
    database.execute("INSERT INTO person VALUES (?, ?)", (1, "alice"))
    return database


def _traced(db, mode):
    with runtime.tracing() as collector:
        _INJECTORS[(mode, "sql")](db)
    return collector.events


def _acquire_lines(events, indent="    "):
    """Each injected acquire, replayed verbatim as a source line.

    ``Event.resource`` stores ``repr(resource)``, which for the
    injectors' tuple keys is itself a valid Python expression — the
    trace double-checks the twin.
    """
    by_txn = {}
    for ev in events:
        if ev.kind == "acquire" and "sanitize" in ev.resource:
            by_txn.setdefault(ev.txn_id, []).append(
                f"{indent}locks.acquire(txn_id, {ev.resource}, 'S')"
            )
    return by_txn


class TestUnsortedLocks:
    """unsorted-locks -> runtime QA501/QA502, static QA801."""

    def test_runtime_detector_sees_the_injected_cycle(self, db):
        events = _traced(db, "unsorted-locks")
        codes = {d.code for d in analyze_trace(events)}
        assert codes == FAULTS["unsorted-locks"].expected
        assert codes == {"QA501", "QA502"}

    def test_static_twin_is_flagged_by_qa801(self, db):
        events = _traced(db, "unsorted-locks")
        by_txn = _acquire_lines(events)
        assert len(by_txn) == 2, "the injector overlaps two txns"
        functions = []
        for txn_id, lines in sorted(by_txn.items()):
            functions.append(
                f"def replay_txn_{txn_id}(locks, txn_id):\n"
                + "\n".join(lines)
            )
        source = "\n\n".join(functions) + "\n"
        diags = analyze_program_sources(
            {"twin.py": source}, passes={"QA801"}
        )
        assert [d.code for d in diags] == ["QA801"]
        for resource in ("('sanitize', 'a')", "('sanitize', 'b')"):
            assert resource in diags[0].message

    def test_call_split_twin_needs_the_interprocedural_pass(self, db):
        # same trace, but each second acquire hidden behind a helper:
        # every function acquires one lock, so no single function
        # orders two; only summary composition closes the AB/BA cycle
        events = _traced(db, "unsorted-locks")
        by_txn = _acquire_lines(events, indent="")
        functions = []
        for txn_id, lines in sorted(by_txn.items()):
            first, second = lines
            functions.append(
                f"def replay_txn_{txn_id}(locks, txn_id):\n"
                f"    {first}\n"
                f"    helper_{txn_id}(locks, txn_id)\n\n"
                f"def helper_{txn_id}(locks, txn_id):\n"
                f"    {second}"
            )
        source = "\n\n".join(functions) + "\n"
        diags = analyze_program_sources(
            {"twin.py": source}, passes={"QA801"}
        )
        assert [d.code for d in diags] == ["QA801"]


class TestLockAcrossCommit:
    """lock-across-commit -> runtime QA602, static QA802."""

    def test_runtime_detector_sees_the_leak(self, db):
        events = _traced(db, "lock-across-commit")
        codes = {d.code for d in analyze_trace(events)}
        assert codes == FAULTS["lock-across-commit"].expected
        assert codes == {"QA602"}

    def test_static_twin_is_flagged_by_qa802(self, db):
        events = _traced(db, "lock-across-commit")
        lines = ["def replay(manager):", "    txn = manager.begin()"]
        for ev in events:
            if ev.kind == "commit":
                lines.append("    txn.commit()")
            elif ev.kind == "acquire" and "sanitize" in ev.resource:
                lines.append(
                    f"    manager.locks.acquire("
                    f"txn.txn_id, {ev.resource}, 'X')"
                )
        source = "\n".join(lines) + "\n"
        diags = analyze_program_sources(
            {"twin.py": source}, passes={"QA802"}
        )
        assert [d.code for d in diags] == ["QA802"]


class TestUnlockedWriteCoverage:
    """unlocked-write -> runtime QA601 presupposes the write is
    *traced*; QA804 is the static guarantee that it stays traced."""

    def test_runtime_detector_needs_the_trace_hook(self, db):
        # QA601 only fires because the engine's write path emits a
        # trace event; two concurrent untraced writes are invisible
        events = _traced(db, "unlocked-write")
        codes = {d.code for d in analyze_trace(events)}
        assert codes == FAULTS["unlocked-write"].expected
        assert "QA601" in codes
        assert any(e.kind == "write" for e in events)

    def test_traced_write_path_passes_qa804(self):
        import repro.rdf.triples as triples_mod

        source = _module_source(triples_mod)
        diags = analyze_program_sources(
            {"triples.py": source}, passes={"QA804"}
        )
        # the one survivor is the MVCC physical-reclaim primitive: its
        # logical delete was traced at the remove() site, so it stays
        # in the committed baseline rather than double-counting
        assert [d.location.operation for d in diags] == [
            "triples:TripleStore._delete_physical"
        ]

    def test_stripping_the_hook_is_caught_statically(self):
        # delete the runtime.TRACE blocks from the real module: the
        # exact regression QA804 exists to catch before runtime
        import repro.rdf.triples as triples_mod

        source = _module_source(triples_mod)
        hook = (
            "        if runtime.TRACE is not None:\n"
            '            runtime.TRACE.write(("rdf-subject", s))\n'
        )
        recreate_hook = (
            "            if runtime.TRACE is not None:\n"
            '                runtime.TRACE.write(("rdf-subject", s))\n'
        )
        assert source.count(hook) == 2
        assert source.count(recreate_hook) == 1
        stripped = source.replace(hook, "").replace(recreate_hook, "")
        diags = analyze_program_sources(
            {"triples.py": stripped}, passes={"QA804"}
        )
        assert sorted(d.location.operation for d in diags) == [
            "triples:TripleStore.add",
            "triples:TripleStore.remove",
        ]
        assert all(d.code == "QA804" for d in diags)


def _module_source(module):
    from pathlib import Path

    return Path(module.__file__).read_text()
