"""The whole-program analyzer: seeded violations, clean run, schema.

Three layers, per the analyzer's contract:

* the QA801 and QA803 passes each catch their seeded-violation fixture
  and stay silent on the repaired twin of the same code;
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


# -- the real tree -------------------------------------------------------


class TestRealTree:
    def test_clean_under_committed_baseline(self):
        assert analyze_program() == []

    def test_baseline_entries_all_used_and_justified(self):
        entries = load_baseline(DEFAULT_BASELINE_PATH)
        raw = analyze_program(baseline=None)
        kept, suppressed, stale = apply_baseline(raw, entries)
        assert kept == []
        assert stale == [], "stale baseline entries must be deleted"
        assert suppressed == len(raw)

    def test_the_package_has_no_conflicting_lock_orders(self):
        raw = analyze_program(baseline=None, passes={"QA801"})
        assert raw == [], [str(d) for d in raw]


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
        bad.write_text(QA801_BAD)
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

    def test_custom_baseline_suppresses(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "fixture.py"
        bad.write_text(QA801_BAD)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "code": "QA801",
                "location": "*Service.*",
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
                "code": "QA801",
                "location": "*",
                "justification": "  ",
            }],
        }))
        with pytest.raises(ValueError, match="justification"):
            load_baseline(baseline)
