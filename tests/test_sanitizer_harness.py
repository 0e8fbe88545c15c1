"""End-to-end tests for ``repro sanitize``.

Two halves of the acceptance criterion:

* clean runs are *silent* — every connector, at write batch 1 and 16,
  produces zero integrity diagnostics;
* every seeded fault is *caught* — each ``--inject`` mode yields
  exactly the codes its registry entry promises, nothing else.
"""

import json

import pytest

from repro.cli import main
from repro.core import SUT_KEYS
from repro.sanitizer.faults import FAULTS
from repro.sanitizer.harness import run_sanitize
from repro.snb import GeneratorConfig, generate

SMALL = ["--scale-factor", "3", "--scale-divisor", "10000", "--seed", "3"]

CONFIG = GeneratorConfig(scale_factor=3, scale_divisor=10000, seed=3)


@pytest.fixture(scope="module")
def dataset():
    return generate(CONFIG)


def _run(dataset, system, **kwargs):
    kwargs.setdefault("readers", 2)
    kwargs.setdefault("duration_ms", 100.0)
    return run_sanitize(system, dataset, **kwargs)


class TestCleanRunsAreSilent:
    @pytest.mark.parametrize("system", SUT_KEYS)
    def test_batch_1(self, dataset, system):
        report = _run(dataset, system)
        assert report.diagnostics == [], [
            str(d) for d in report.diagnostics
        ]
        assert report.ok
        assert report.updates_applied > 0

    @pytest.mark.parametrize("system", ["postgres-sql", "neo4j-cypher"])
    def test_batch_16(self, dataset, system):
        report = _run(dataset, system, write_batch_size=16)
        assert report.diagnostics == [], [
            str(d) for d in report.diagnostics
        ]
        assert report.write_batch_size == 16


#: one representative system per (mode, target kind) dispatch path
MATRIX = [
    ("dangling-edge", "neo4j-cypher"),
    ("dangling-edge", "postgres-sql"),
    ("dangling-edge", "titan-c"),
    ("index-skew", "virtuoso-sparql"),
    ("index-skew", "neo4j-gremlin"),
    ("skip-fsync", "neo4j-cypher"),
    ("skip-fsync", "virtuoso-sql"),
]


class TestInjectedFaultsAreCaught:
    @pytest.mark.parametrize("mode,system", MATRIX)
    def test_exactly_the_expected_codes(self, dataset, mode, system):
        report = _run(dataset, system, inject_mode=mode)
        assert report.observed_codes == FAULTS[mode].expected, [
            str(d) for d in report.diagnostics
        ]
        assert report.ok

    def test_unknown_mode_is_rejected(self, dataset):
        with pytest.raises(ValueError, match="unknown fault mode"):
            _run(dataset, "postgres-sql", inject_mode="melt-the-disk")

    def test_inapplicable_mode_is_rejected(self, dataset):
        # the in-memory gremlin connector has no WAL to lose writes from
        with pytest.raises(ValueError, match="not applicable"):
            _run(dataset, "neo4j-gremlin", inject_mode="skip-fsync")


class TestCli:
    def test_clean_run_exits_zero(self, capsys):
        assert main(
            ["sanitize", *SMALL, "--systems", "postgres-sql",
             "--readers", "2", "--duration-ms", "100"]
        ) == 0
        out = capsys.readouterr().out
        assert "postgres-sql: ok" in out

    def test_injected_run_reports_and_exits_zero(self, capsys):
        assert main(
            ["sanitize", *SMALL, "--systems", "neo4j-cypher",
             "--readers", "2", "--duration-ms", "100",
             "--inject", "dangling-edge"]
        ) == 0
        out = capsys.readouterr().out
        assert "QA701" in out
        assert "neo4j-cypher: ok" in out

    def test_inapplicable_inject_is_skipped_and_fails(self, capsys):
        assert main(
            ["sanitize", *SMALL, "--systems", "neo4j-gremlin",
             "--readers", "2", "--duration-ms", "100",
             "--inject", "skip-fsync"]
        ) == 1
        assert "not applicable" in capsys.readouterr().out

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["sanitize", *SMALL, "--systems", "oracle"])


class TestJsonSchema:
    """The JSON line format is an interface: CI parses it."""

    #: exactly the keys ``Diagnostic.to_dict`` promises — additions or
    #: renames must be deliberate (update CI consumers alongside this)
    KEYS = {
        "code", "name", "severity", "dialect", "operation",
        "query_index", "message",
    }

    def test_to_dict_keys_are_pinned(self):
        from repro.analysis.diagnostics import (
            CODES,
            SourceLocation,
            make,
        )

        diagnostic = make(
            "QA702", "skew", SourceLocation("runtime", "integrity:pos")
        )
        record = diagnostic.to_dict()
        assert set(record) == self.KEYS
        assert record["code"] in CODES
        assert isinstance(record["severity"], str)
        assert isinstance(record["query_index"], int)

    def test_lint_json_mode_emits_nothing_when_clean(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_sanitize_json_rows_add_the_system_key(self, capsys):
        assert main(
            ["sanitize", *SMALL, "--systems", "virtuoso-sparql",
             "--readers", "2", "--duration-ms", "100",
             "--inject", "index-skew", "--format", "json"]
        ) == 0
        out = capsys.readouterr().out
        rows = [
            json.loads(line)
            for line in out.splitlines()
            if line.startswith("{")
        ]
        assert rows, out
        for row in rows:
            assert set(row) == self.KEYS | {"system"}
            assert row["system"] == "virtuoso-sparql"
        assert any(row["code"] == "QA702" for row in rows)
