"""Tests for the command-line interface."""

import pytest

from repro.cli import main

SMALL = ["--scale-factor", "3", "--scale-divisor", "10000", "--seed", "3"]


class TestSystems:
    def test_lists_all_eight(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        for key in ("neo4j-cypher", "titan-c", "postgres-sql",
                    "virtuoso-sparql"):
            assert key in out


class TestGenerate:
    def test_writes_csvs(self, tmp_path, capsys):
        assert main(["generate", *SMALL, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "CSV files" in out
        assert (tmp_path / "person.csv").exists()
        assert (tmp_path / "person_knows_person.csv").exists()


class TestLatency:
    def test_single_system(self, capsys):
        assert main(
            ["latency", *SMALL, "--systems", "postgres-sql", "--reps", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "postgres-sql" in out
        assert "point lookup" in out

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["latency", *SMALL, "--systems", "oracle"])


class TestInteractive:
    def test_runs_small_workload(self, capsys):
        assert main(
            ["interactive", *SMALL, "--system", "postgres-sql",
             "--readers", "4", "--duration-ms", "100"]
        ) == 0
        out = capsys.readouterr().out
        assert "reads/s" in out
        assert "writes/s" in out


class TestLoad:
    def test_sequential(self, capsys):
        assert main(
            ["load", *SMALL, "--system", "titan-b", "--loaders", "1"]
        ) == 0
        assert "edges/s" in capsys.readouterr().out

    def test_concurrent(self, capsys):
        assert main(
            ["load", *SMALL, "--system", "titan-c", "--loaders", "4"]
        ) == 0
        assert "edges/s" in capsys.readouterr().out

    def test_neo4j_gremlin_concurrent_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["load", *SMALL, "--system", "neo4j-gremlin",
                 "--loaders", "4"]
            )

    def test_non_tinkerpop_rejected(self):
        with pytest.raises(SystemExit):
            main(["load", *SMALL, "--system", "postgres-sql"])


class TestValidate:
    def test_cross_check_passes(self, capsys):
        assert main(
            ["validate", *SMALL, "--systems",
             "postgres-sql,virtuoso-sql,neo4j-cypher", "--checks", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "0 mismatches" in out

    def test_needs_two_systems(self):
        with pytest.raises(SystemExit):
            main(["validate", *SMALL, "--systems", "postgres-sql"])

