"""SARIF 2.1.0 output, the --diff gate, and baseline hygiene.

The schema URI and version are pinned here: CI uploads the log to code
scanning, and a silent bump would break every consumer at once.
"""

import json

import pytest

from repro.analysis.diagnostics import SourceLocation, make
from repro.analysis.program.callgraph import (
    module_name_for_key,
    sources_from_paths,
)
from repro.analysis.sarif import (
    SARIF_SCHEMA,
    SARIF_VERSION,
    dumps,
    to_sarif,
)
from repro.cli import main
from repro.storage import wal

QA803_BAD = '''
class Store:
    def insert(self, locks, txn_id, key):
        locks.acquire(txn_id, key, "X")
        self.wal.commit()
'''


@pytest.fixture
def empty_baseline(tmp_path):
    path = tmp_path / "empty_baseline.json"
    path.write_text(json.dumps({"version": 1, "entries": []}))
    return str(path)


def program_diag():
    return make(
        "QA803",
        "fsync under a lock",
        SourceLocation("python", "repro.graphdb.store:GraphStore.x"),
    )


def catalog_diag():
    return make(
        "QA302",
        "non-sargable",
        SourceLocation("cypher", "person_profile", 0),
    )


class TestSarifShape:
    def test_schema_and_version_are_pinned(self):
        log = to_sarif([])
        assert log["$schema"] == SARIF_SCHEMA
        assert (
            log["$schema"]
            == "https://json.schemastore.org/sarif-2.1.0.json"
        )
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert len(log["runs"]) == 1

    def test_result_carries_rule_level_and_locations(self):
        run = to_sarif([program_diag()])["runs"][0]
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
            "QA803"
        ]
        (result,) = run["results"]
        assert result["ruleId"] == "QA803"
        assert result["level"] == "error"
        location = result["locations"][0]
        assert (
            location["logicalLocations"][0]["fullyQualifiedName"]
            == "python:repro.graphdb.store:GraphStore.x[0]"
        )
        assert (
            location["physicalLocation"]["artifactLocation"]["uri"]
            == "src/repro/graphdb/store.py"
        )

    def test_catalog_findings_get_no_physical_location(self):
        run = to_sarif([catalog_diag()])["runs"][0]
        (result,) = run["results"]
        assert result["level"] == "warning"
        assert "physicalLocation" not in result["locations"][0]

    def test_dumps_is_valid_json(self):
        parsed = json.loads(dumps([program_diag(), catalog_diag()]))
        assert len(parsed["runs"][0]["results"]) == 2


class TestCliSarif:
    def test_program_sarif_mode_emits_one_log(
        self, tmp_path, empty_baseline, capsys
    ):
        bad = tmp_path / "bad.py"
        bad.write_text(QA803_BAD)
        exit_code = main([
            "lint", "--program", "--format", "sarif",
            "--paths", str(bad),
            "--baseline", empty_baseline,
        ])
        assert exit_code == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        results = log["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["QA803"]

    def test_catalog_sarif_mode_parses(self, capsys):
        main(["lint", "--format", "sarif"])
        log = json.loads(capsys.readouterr().out)
        assert log["$schema"] == SARIF_SCHEMA


class TestDiffAndHygiene:
    def stale_baseline(self, tmp_path, location):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "code": "QA803",
                "location": location,
                "justification": "left over from deleted code",
            }],
        }))
        return str(path)

    def test_unresolvable_entry_fails_the_plain_gate(
        self, tmp_path, capsys
    ):
        clean = tmp_path / "clean.py"
        clean.write_text("def free():\n    return 1\n")
        baseline = self.stale_baseline(
            tmp_path, "repro.gone:Ghost.method"
        )
        exit_code = main([
            "lint", "--program",
            "--paths", str(clean),
            "--baseline", baseline,
        ])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert "no longer resolves" in err
        assert "prune it" in err

    def test_stale_entry_that_still_resolves_also_fails(
        self, tmp_path, capsys
    ):
        fixed = tmp_path / "fixed.py"
        fixed.write_text(QA803_BAD.replace("        self.wal.commit()\n", ""))
        module = module_name_for_key(
            next(iter(sources_from_paths([str(fixed)])))
        )
        baseline = self.stale_baseline(
            tmp_path, f"{module}:Store.insert"
        )
        exit_code = main([
            "lint", "--program",
            "--paths", str(fixed),
            "--baseline", baseline,
        ])
        assert exit_code == 1
        assert "matched no diagnostic" in capsys.readouterr().err

    def test_diff_mode_tolerates_stale_entries(
        self, tmp_path, capsys
    ):
        clean = tmp_path / "clean.py"
        clean.write_text("def free():\n    return 1\n")
        baseline = self.stale_baseline(
            tmp_path, "repro.gone:Ghost.method"
        )
        exit_code = main([
            "lint", "--program", "--diff",
            "--paths", str(clean),
            "--baseline", baseline,
        ])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "note:" in captured.err
        assert "new diagnostic(s) vs. baseline" in captured.out

    def test_partial_run_leaves_entries_of_unanalysed_modules_alone(
        self, tmp_path, capsys
    ):
        # the entry names a live function of a module the run skipped:
        # only the whole-tree run can say whether it is stale
        baseline = self.stale_baseline(
            tmp_path, "repro.rdf.triples:TripleStore.lookup_term"
        )
        for mode in ([], ["--diff"]):
            exit_code = main([
                "lint", "--program", *mode,
                "--paths", wal.__file__,
                "--baseline", baseline,
            ])
            assert exit_code == 0
            assert capsys.readouterr().err == ""

    def test_diff_mode_still_fails_on_new_findings(
        self, tmp_path, empty_baseline, capsys
    ):
        bad = tmp_path / "bad.py"
        bad.write_text(QA803_BAD)
        exit_code = main([
            "lint", "--program", "--diff",
            "--paths", str(bad),
            "--baseline", empty_baseline,
        ])
        assert exit_code == 1
        assert "QA803" in capsys.readouterr().out

    def test_suppressed_finding_never_refails_in_diff_mode(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.py"
        bad.write_text(QA803_BAD)
        module = module_name_for_key(
            next(iter(sources_from_paths([str(bad)])))
        )
        baseline = tmp_path / "justified.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "code": "QA803",
                "location": f"{module}:Store.insert",
                "justification": "judged and accepted",
            }],
        }))
        exit_code = main([
            "lint", "--program", "--diff",
            "--paths", str(bad),
            "--baseline", str(baseline),
        ])
        assert exit_code == 0
        assert "0 new diagnostic(s)" in capsys.readouterr().out

    def test_bare_baseline_flag_uses_the_committed_default(
        self, capsys
    ):
        assert main([
            "lint", "--program", "--baseline", "--diff"
        ]) == 0
        assert (
            "0 new diagnostic(s)" in capsys.readouterr().out
        )
