"""Smoke tests: every shipped example must run cleanly."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "Generated SNB" in out
    assert "Results stay consistent: True" in out


def test_social_app():
    out = run_example("social_app.py")
    assert "ada's timeline:" in out
    assert "hops apart" in out
    assert "suggested follows" in out


def test_gremlin_overhead():
    out = run_example("gremlin_overhead.py")
    assert "via server" in out
    for backend in ("neo4j-gremlin", "titan-c", "titan-b", "sqlg"):
        assert backend in out


def test_realtime_feed():
    out = run_example("realtime_feed.py", "postgres-sql", "100")
    assert "for 100 ms simulated" in out
    assert "reads/s" in out
    assert "writes/s" in out


def test_realtime_feed_rejects_unknown_system():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "realtime_feed.py"), "oracle"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0


@pytest.mark.slow
def test_system_comparison():
    out = run_example("system_comparison.py", "8000")
    assert "point lookup" in out
    assert "virtuoso-sparql" in out
