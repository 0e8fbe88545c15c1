"""The whole-program analyzer: seeded violations, clean run, schema.

Three layers, per the analyzer's contract:

* each QA502 and QA801-QA805 pass catches its seeded-violation fixture
  and stays silent on the repaired twin of the same code;
* the real engine tree is clean under the committed baseline, and the
  baseline carries no stale entries;
* the ``--format json`` schema and the CLI gate (exit 1 on any
  non-baselined finding) are pinned.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.program import (
    DEFAULT_BASELINE_PATH,
    analyze_program,
    analyze_program_sources,
    apply_baseline,
    load_baseline,
)
from repro.cli import main


def codes(diagnostics):
    return [d.code for d in diagnostics]


# -- QA801: composed lock-order inversion --------------------------------

QA801_BAD = '''
class Service:
    def path_one(self, locks, txn_id):
        locks.acquire(txn_id, "res_a", "X")
        self.helper_b(locks, txn_id)

    def helper_b(self, locks, txn_id):
        locks.acquire(txn_id, "res_b", "X")

    def path_two(self, locks, txn_id):
        locks.acquire(txn_id, "res_b", "X")
        self.helper_a(locks, txn_id)

    def helper_a(self, locks, txn_id):
        locks.acquire(txn_id, "res_a", "X")
'''

QA801_OK = QA801_BAD.replace(
    'def path_two(self, locks, txn_id):\n        '
    'locks.acquire(txn_id, "res_b", "X")\n        '
    'self.helper_a(locks, txn_id)',
    'def path_two(self, locks, txn_id):\n        '
    'locks.acquire(txn_id, "res_a", "X")\n        '
    'self.helper_b(locks, txn_id)',
)


class TestLockOrderPass:
    def test_seeded_inversion_across_calls(self):
        diags = analyze_program_sources(
            {"fixture.py": QA801_BAD}, passes={"QA801"}
        )
        assert codes(diags) == ["QA801"]
        assert "res_a" in diags[0].message
        assert "res_b" in diags[0].message

    def test_consistent_order_is_silent(self):
        assert (
            analyze_program_sources(
                {"fixture.py": QA801_OK}, passes={"QA801"}
            )
            == []
        )

    def test_intra_function_pass_cannot_see_it(self):
        # the seeded inversion spans a call: each function acquires one
        # lock, so the per-function QA502 pass has nothing to order —
        # only the composed summaries close the cycle
        assert (
            analyze_program_sources(
                {"fixture.py": QA801_BAD}, passes={"QA502"}
            )
            == []
        )


X = "LockMode.EXCLUSIVE"


def lock_sequences(**functions):
    """One module of free functions, each acquiring its resources on
    ``m`` in the given order."""
    return "".join(
        f"def {name}(m, t):\n"
        + "".join(f"    m.acquire(t, '{r}', {X})\n" for r in resources)
        for name, resources in functions.items()
    )


class TestSingleFunctionLockOrder:
    """Inversions with no call in between are QA801 cycles as well."""

    def test_two_way_cycle(self):
        diags = analyze_program_sources({
            "a.py": lock_sequences(path_one="AB"),
            "b.py": lock_sequences(path_two="BA"),
        }, passes={"QA801"})
        assert codes(diags) == ["QA801"]
        message = diags[0].message
        assert "a:path_one" in message and "b:path_two" in message
        assert "'A'" in message and "'B'" in message

    def test_three_way_cycle(self):
        diags = analyze_program_sources(
            {"c.py": lock_sequences(f1="AB", f2="BC", f3="CA")},
            passes={"QA801"},
        )
        assert codes(diags) == ["QA801"]
        message = diags[0].message
        assert all(f"'{r}'" in message for r in "ABC")
        assert all(f"c:{f}" in message for f in ("f1", "f2", "f3"))

    def test_consistent_order_is_clean(self):
        assert analyze_program_sources(
            {"d.py": lock_sequences(f1="AB", f2="AC")}, passes={"QA801"}
        ) == []

    def test_try_acquire_cannot_deadlock(self):
        source = (
            "def f1(m, t):\n"
            f"    m.acquire(t, 'A', {X})\n"
            f"    m.try_acquire(t, 'B', {X})\n"
            "def f2(m, t):\n"
            f"    m.acquire(t, 'B', {X})\n"
            f"    m.try_acquire(t, 'A', {X})\n"
        )
        assert analyze_program_sources(
            {"e.py": source}, passes={"QA801"}
        ) == []

    def test_reacquiring_the_same_resource_is_not_a_cycle(self):
        assert analyze_program_sources(
            {"f.py": lock_sequences(f1="AA")}, passes={"QA801"}
        ) == []


# -- QA502: sorted acquisition within one function -----------------------


class TestSortedAcquisitionPass:
    def test_unsorted_pair_in_one_function_warns(self):
        diags = analyze_program_sources(
            {"g.py": lock_sequences(backwards="BA")}, passes={"QA502"}
        )
        assert codes(diags) == ["QA502"]
        assert diags[0].location.operation == "g:backwards"
        assert "acquire_many" in diags[0].message

    def test_sorted_acquisition_is_clean(self):
        assert analyze_program_sources(
            {"h.py": lock_sequences(forwards="ABC")}, passes={"QA502"}
        ) == []

    def test_single_lock_is_clean(self):
        assert analyze_program_sources(
            {"i.py": lock_sequences(single="Z")}, passes={"QA502"}
        ) == []

    def test_reacquisition_does_not_count_as_unsorted(self):
        # A .. B .. A: the trailing A is a re-entrant no-op, not a
        # second (out-of-order) acquisition.
        assert analyze_program_sources(
            {"j.py": lock_sequences(reentrant="ABA")}, passes={"QA502"}
        ) == []

    def test_qa801_selection_excludes_it(self):
        source = {"g.py": lock_sequences(backwards="BA")}
        assert analyze_program_sources(source, passes={"QA801"}) == []


# -- QA802: release discipline -------------------------------------------

QA802_BAD = '''
def risky(manager, table, key, values):
    txn = manager.begin()
    manager.locks.acquire(txn.txn_id, (table, key), "X")
    table.insert(values)
    txn.commit()
'''

QA802_OK = '''
def careful(manager, table, key, values):
    txn = manager.begin()
    manager.locks.acquire(txn.txn_id, (table, key), "X")
    try:
        table.insert(values)
    except BaseException:
        txn.abort()
        raise
    txn.commit()
'''

QA802_WITH = '''
class Engine:
    def managed(self, values):
        with self.transaction() as txn:
            self.locks.acquire(txn.txn_id, "row", "X")
            self.apply(values)
'''

QA802_TRANSFER = '''
class Engine:
    def boundary(self, key):
        txn = self.txns.begin()
        self.txns.locks.acquire(txn.txn_id, key, "X")
        return txn

    def caller_without_discipline(self, key, values):
        txn = self.boundary(key)
        self.apply(values)
        txn.commit()
'''


class TestReleaseDisciplinePass:
    def test_exception_path_leaks_the_lock(self):
        diags = analyze_program_sources(
            {"fixture.py": QA802_BAD}, passes={"QA802"}
        )
        assert codes(diags) == ["QA802"]

    def test_abort_in_handler_is_enough(self):
        assert (
            analyze_program_sources(
                {"fixture.py": QA802_OK}, passes={"QA802"}
            )
            == []
        )

    def test_releasing_context_manager_is_enough(self):
        assert (
            analyze_program_sources(
                {"fixture.py": QA802_WITH}, passes={"QA802"}
            )
            == []
        )

    def test_ownership_transfer_moves_the_obligation(self):
        # boundary() returns the txn it began: the *caller* must hold
        # the release discipline, and this caller does not
        diags = analyze_program_sources(
            {"fixture.py": QA802_TRANSFER}, passes={"QA802"}
        )
        assert codes(diags) == ["QA802"]
        assert "caller_without_discipline" in diags[0].location.operation


# -- QA803: blocking I/O under a lock ------------------------------------

QA803_BAD = '''
class Engine:
    def flush_with_lock(self, txn_id):
        self.locks.acquire(txn_id, "row", "X")
        self.wal.commit()
        self.locks.release_all(txn_id)
'''

QA803_INDIRECT = '''
class Remote:
    def locked_submit(self, txn_id, script):
        self.locks.acquire(txn_id, "row", "X")
        self.forward(script)
        self.locks.release_all(txn_id)

    def forward(self, script):
        return self.server.submit(script)
'''

QA803_OK = '''
class Engine:
    def flush_after_release(self, txn_id):
        self.locks.acquire(txn_id, "row", "X")
        self.locks.release_all(txn_id)
        self.wal.commit()
'''


class TestBlockingIoPass:
    def test_direct_fsync_under_lock(self):
        diags = analyze_program_sources(
            {"fixture.py": QA803_BAD}, passes={"QA803"}
        )
        assert codes(diags) == ["QA803"]
        assert "wal-fsync" in diags[0].message

    def test_submit_reached_through_a_helper(self):
        diags = analyze_program_sources(
            {"fixture.py": QA803_INDIRECT}, passes={"QA803"}
        )
        assert codes(diags) == ["QA803"]
        assert "gremlin-submit" in diags[0].message
        assert "forward" in diags[0].message  # the witness path

    def test_io_after_release_is_fine(self):
        assert (
            analyze_program_sources(
                {"fixture.py": QA803_OK}, passes={"QA803"}
            )
            == []
        )


# -- QA804: sanitizer trace coverage -------------------------------------

QA804_BAD = '''
class Store:
    def create(self, key, value):
        charge("record_write")
        self._rows[key] = value
        if runtime.TRACE is not None:
            runtime.TRACE.write(("row", key))

    def wipe(self, key):
        self._rows.pop(key)
'''

QA804_FREE = '''
def flush_page(buffer):
    charge("page_write")
    buffer.sync()
'''

QA804_OK = '''
class Store:
    def create(self, key, value):
        charge("record_write")
        self._rows[key] = value
        if runtime.TRACE is not None:
            runtime.TRACE.write(("row", key))

    def wipe(self, key):
        self._rows.pop(key)
        if runtime.TRACE is not None:
            runtime.TRACE.write(("row", key))
'''

# a traced writer evicts the memo a plain reader fills: the fill derives
# state and writes no storage, as long as the attr is named a cache
QA804_MEMO = '''
class Store:
    def update(self, key, value):
        self._row_cache.pop(key, None)
        self._rows[key] = value
        if runtime.TRACE is not None:
            runtime.TRACE.write(("row", key))

    def fetch(self, key):
        row = self._row_cache.get(key)
        if row is None:
            row = self._rows[key]
            self._row_cache[key] = row
        return row
'''


class TestTraceCoveragePass:
    def test_untraced_sibling_mutation(self):
        diags = analyze_program_sources(
            {"fixture.py": QA804_BAD}, passes={"QA804"}
        )
        assert codes(diags) == ["QA804"]
        assert "wipe" in diags[0].location.operation

    def test_mutation_charge_without_trace(self):
        diags = analyze_program_sources(
            {"fixture.py": QA804_FREE}, passes={"QA804"}
        )
        assert codes(diags) == ["QA804"]

    def test_traced_twin_is_silent(self):
        assert (
            analyze_program_sources(
                {"fixture.py": QA804_OK}, passes={"QA804"}
            )
            == []
        )

    def test_cache_fill_beside_a_traced_eviction_is_silent(self):
        assert (
            analyze_program_sources(
                {"fixture.py": QA804_MEMO}, passes={"QA804"}
            )
            == []
        )

    def test_same_fill_under_a_non_cache_name_fires(self):
        source = QA804_MEMO.replace("_row_cache", "_row_seen")
        diags = analyze_program_sources(
            {"fixture.py": source}, passes={"QA804"}
        )
        assert codes(diags) == ["QA804"]
        assert "fetch" in diags[0].location.operation
        assert "_row_seen" in diags[0].message


# -- QA805: cache invalidation coverage ----------------------------------

QA805_BAD = '''
class Engine:
    def __init__(self):
        self._plans = EpochKeyedCache(64, name="plans")

    def plan(self, query):
        cached = self._plans.lookup(query)
        if cached is None:
            cached = compile_plan(query)
            self._plans.store(query, cached)
        return cached
'''

QA805_OK = QA805_BAD + '''
    def invalidate(self):
        self._plans.bump_epoch()
'''

QA805_ALIAS = '''
class Engine:
    def __init__(self):
        self._memo = LRUCache(16, name="memo")

    def get(self, key):
        cache = self._memo
        value = cache.get(key)
        if value is None:
            value = expensive(key)
            cache.put(key, value)
        return value
'''

# a plain dict memo, annotated as ``Table._row_cache`` is: filled on a
# miss, evicted by the writer
QA805_MEMO = '''
class Table:
    def __init__(self):
        self._rows = {}
        self._row_cache: dict[int, tuple] = {}

    def update(self, key, row):
        self._row_cache.pop(key, None)
        self._rows[key] = row

    def fetch(self, key):
        row = self._row_cache.get(key)
        if row is None:
            row = decode(self._rows[key])
            self._row_cache[key] = row
        return row
'''


class TestCacheInvalidationPass:
    def test_store_without_epoch_bump(self):
        diags = analyze_program_sources(
            {"fixture.py": QA805_BAD}, passes={"QA805"}
        )
        assert codes(diags) == ["QA805"]
        assert "_plans" in diags[0].location.operation

    def test_bump_anywhere_in_class_is_enough(self):
        assert (
            analyze_program_sources(
                {"fixture.py": QA805_OK}, passes={"QA805"}
            )
            == []
        )

    def test_write_through_local_alias_is_still_seen(self):
        diags = analyze_program_sources(
            {"fixture.py": QA805_ALIAS}, passes={"QA805"}
        )
        assert codes(diags) == ["QA805"]

    def test_annotated_dict_memo_without_eviction(self):
        source = QA805_MEMO.replace(
            "        self._row_cache.pop(key, None)\n", ""
        )
        diags = analyze_program_sources(
            {"fixture.py": source}, passes={"QA805"}
        )
        assert codes(diags) == ["QA805"]
        assert "_row_cache" in diags[0].location.operation
        assert "(dict)" in diags[0].message

    @pytest.mark.parametrize(
        "evict", ["self._row_cache.pop(key, None)", "self._row_cache.clear()"]
    )
    def test_dict_memo_eviction_anywhere_in_class(self, evict):
        source = QA805_MEMO.replace("self._row_cache.pop(key, None)", evict)
        assert (
            analyze_program_sources(
                {"fixture.py": source}, passes={"QA805"}
            )
            == []
        )

    def test_memo_is_a_cache_only_by_name(self):
        source = QA805_MEMO.replace(
            "        self._row_cache.pop(key, None)\n", ""
        ).replace("_row_cache", "_row_seen")
        assert (
            analyze_program_sources(
                {"fixture.py": source}, passes={"QA805"}
            )
            == []
        )


# -- the real tree -------------------------------------------------------


class TestRealTree:
    def test_clean_under_committed_baseline(self):
        assert analyze_program() == []

    def test_baseline_entries_all_used_and_justified(self):
        entries = load_baseline(DEFAULT_BASELINE_PATH)
        assert entries, "the committed baseline documents the tree"
        raw = analyze_program(baseline=None)
        kept, suppressed, stale = apply_baseline(raw, entries)
        assert kept == []
        assert stale == [], "stale baseline entries must be deleted"
        assert suppressed == len(raw)

    def test_every_pass_runs_on_the_real_tree(self):
        # the no-baseline run must stay confined to the QA8xx family
        raw = analyze_program(baseline=None)
        assert raw, "justified findings exist (they are baselined)"
        assert all(d.code.startswith("QA8") for d in raw)

    def test_the_package_has_no_conflicting_lock_orders(self):
        raw = analyze_program(baseline=None, passes={"QA801"})
        assert raw == [], [str(d) for d in raw]

    def test_the_package_acquires_multi_locks_in_sorted_order(self):
        raw = analyze_program(baseline=None, passes={"QA502"})
        assert raw == [], [str(d) for d in raw]

    def test_qa805_sees_the_compiled_closure_caches(self):
        """Every dialect engine owns an epoch-keyed compiled-closure
        cache, written on compile and invalidated in lockstep with the
        plan cache — QA805 must observe all three facts (a dropped
        ``bump_epoch`` would otherwise serve stale closures after DDL
        or ANALYZE without any diagnostic)."""
        from repro.analysis.program import build_program
        from repro.analysis.program.callgraph import default_sources

        program = build_program(default_sources())
        owners = {
            ("repro.graphdb.engine", "GraphDatabase"),
            ("repro.relational.engine", "Database"),
            ("repro.rdf.engine", "RdfDatabase"),
            ("repro.tinkerpop.server", "GremlinServer"),
        }
        for module, cls in sorted(owners):
            defined = written = invalidated = False
            for summary in program.summaries.values():
                info = summary.info
                if (info.module, info.class_name) != (module, cls):
                    continue
                if (
                    summary.cache_defs.get("_closure_cache")
                    == "EpochKeyedCache"
                ):
                    defined = True
                if "_closure_cache" in summary.cache_writes:
                    written = True
                if "_closure_cache" in summary.cache_invalidations:
                    invalidated = True
            assert defined, f"{module}:{cls} closure cache not tracked"
            assert written, f"{module}:{cls} closure-cache write unseen"
            assert invalidated, (
                f"{module}:{cls} has no closure-cache invalidation path"
            )

    def test_qa805_sees_the_row_memo(self):
        """``Table._row_cache`` is a plain dict: QA805 must still see it
        defined, filled and evicted, so dropping its evictions fires."""
        from repro.analysis.program import build_program
        from repro.analysis.program.callgraph import default_sources

        program = build_program(default_sources())
        members = [
            summary
            for summary in program.summaries.values()
            if (summary.info.module, summary.info.class_name)
            == ("repro.relational.table", "Table")
        ]
        assert any("_row_cache" in m.memo_defs for m in members)
        filled = {
            m.info.name for m in members if "_row_cache" in m.cache_writes
        }
        evicted = {
            m.info.name
            for m in members
            if "_row_cache" in m.cache_invalidations
        }
        assert filled == {"_fetch_raw"}
        assert evicted == {"update", "_remove_physical"}


# -- CLI: gate + JSON schema ---------------------------------------------


@pytest.fixture
def empty_baseline(tmp_path):
    path = tmp_path / "empty_baseline.json"
    path.write_text(json.dumps({"version": 1, "entries": []}))
    return str(path)


class TestCli:
    def test_program_lint_is_green(self, capsys):
        assert main(["lint", "--program"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_program_json_mode_emits_nothing_when_clean(self, capsys):
        assert main(["lint", "--program", "--format", "json"]) == 0
        assert capsys.readouterr().out == ""

    def test_gate_fails_on_seeded_inversion(
        self, tmp_path, empty_baseline, capsys
    ):
        bad = tmp_path / "inversion.py"
        bad.write_text(QA801_BAD)
        exit_code = main([
            "lint", "--program",
            "--paths", str(bad),
            "--baseline", empty_baseline,
        ])
        assert exit_code == 1
        assert "QA801" in capsys.readouterr().out

    def test_json_schema_is_pinned(
        self, tmp_path, empty_baseline, capsys
    ):
        bad = tmp_path / "fixture.py"
        bad.write_text(QA805_BAD)
        exit_code = main([
            "lint", "--program", "--format", "json",
            "--paths", str(bad),
            "--baseline", empty_baseline,
        ])
        assert exit_code == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            row = json.loads(line)
            assert set(row) == {
                "code",
                "name",
                "severity",
                "dialect",
                "operation",
                "query_index",
                "message",
            }
            assert row["dialect"] == "python"
            assert row["severity"] == "error"
            assert row["code"].startswith("QA8")

    @pytest.mark.parametrize("absolute", [False, True])
    def test_paths_name_modules_as_the_tree_does(
        self, absolute, monkeypatch, capsys
    ):
        # a baselined finding analyzed through --paths must still match
        # its baseline entry, however the path is spelled
        import repro

        root = Path(repro.__file__).resolve().parents[2]
        monkeypatch.chdir(root)
        path = Path("src/repro/relational/table.py")
        exit_code = main([
            "lint", "--program",
            "--paths", str(root / path if absolute else path),
            "--baseline", "--diff",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0, out
        assert "0 new diagnostic(s)" in out

    def test_paths_inside_a_package_reach_package_rules(
        self, tmp_path, empty_baseline, capsys
    ):
        # QA810 applies to modules named repro.exec.*: a file under a
        # package tree is named from its package, not from the path
        package = tmp_path / "repro" / "exec"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        kernel = package / "k.py"
        kernel.write_text(
            "def kernel(cache, key, rows):\n"
            "    cache.put(key, rows)\n"
            "    return rows\n"
        )
        exit_code = main([
            "lint", "--program",
            "--paths", str(kernel),
            "--baseline", empty_baseline,
        ])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "QA810" in out
        assert "repro.exec.k:kernel" in out

    def test_custom_baseline_suppresses(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "fixture.py"
        bad.write_text(QA805_BAD)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "code": "QA805",
                "location": "*Engine._plans",
                "justification": "fixture: exercised by the tests",
            }],
        }))
        exit_code = main([
            "lint", "--program",
            "--paths", str(bad),
            "--baseline", str(baseline),
        ])
        capsys.readouterr()
        assert exit_code == 0

    def test_baseline_requires_justification(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "code": "QA805",
                "location": "*",
                "justification": "  ",
            }],
        }))
        with pytest.raises(ValueError, match="justification"):
            load_baseline(baseline)
