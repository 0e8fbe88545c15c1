"""A sanitizer trace does not depend on the process's hash seed.

The same small traced run — a load, then a few dozen updates — is
recorded in two fresh interpreters under different ``PYTHONHASHSEED``
values, on SQL and graph systems.  The event sequences must be
identical: lock releases, in particular, follow acquisition order, not
the hash order of the resources (``hash(None)`` differs between
processes, so ``('post_tag', None)`` used to move).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: postgres-sql and sqlg take row locks on the update stream;
#: neo4j-cypher's trace is its store reads and writes
SYSTEMS = ("postgres-sql", "sqlg", "neo4j-cypher")

RECORD = """
import sys
from repro.core import make_connector
from repro.sanitizer import runtime
from repro.snb import GeneratorConfig, generate

dataset = generate(
    GeneratorConfig(scale_factor=3, scale_divisor=16000, seed=13)
)
for system in sys.argv[1:]:
    connector = make_connector(system)
    connector.load(dataset)
    with runtime.tracing() as trace:
        for event in dataset.updates[:40]:
            connector.apply_update(event)
    print("system", system)
    for e in trace.events:
        print(e.seq, e.kind, e.worker, e.txn_id, e.resource, e.mode)
"""


def _trace(hash_seed: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", RECORD, *SYSTEMS],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return out.splitlines()


def test_trace_is_the_same_under_two_hash_seeds():
    first = _trace("0")
    assert sum(line.startswith("system") for line in first) == len(SYSTEMS)
    assert any(" release " in line for line in first)
    assert _trace("777") == first
