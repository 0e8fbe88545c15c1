"""Pinned output of the Figure 3 runner: the simulation must not drift.

Each case runs :class:`InteractiveWorkloadRunner` over a tiny dataset and
compares every simulated number of its :class:`InteractiveResult` with
values recorded from the runner: the counts, the ``float.hex`` of the
lock-wait and latency sums (so a change in the last bit shows), and both
throughput series (ops/s per 25 ms window).  A refactor of the driver or
of the update stream must leave all of them equal; a change that moves
the simulation on purpose re-records them.

The cases cover every SUT through the per-event writer, the three
``apply_update_batch`` overrides through the batched writer, both
writers under ``read-committed`` (reader lock waits), a batched stream
that ends in a one-event poll, and a Gremlin Server crash.
"""

from dataclasses import dataclass

import pytest

from repro.core import make_connector
from repro.driver import InteractiveConfig, InteractiveWorkloadRunner
from repro.snb import GeneratorConfig, generate

DATASET = GeneratorConfig(scale_factor=3, scale_divisor=16000, seed=13)
BASE = dict(readers=4, duration_ms=100.0, window_ms=25.0, seed=5)


@pytest.fixture(scope="module")
def dataset():
    return generate(DATASET)


@dataclass(frozen=True)
class Pin:
    updates_applied: int
    read_failures: int
    server_crashed: bool
    reader_lock_waits: int
    reader_lock_wait_us: str
    reads: int
    read_ms: str
    writes: int
    write_ms: str
    read_windows: list[int]
    write_windows: list[int]


def observe(result) -> Pin:
    return Pin(
        result.updates_applied,
        result.read_failures,
        result.server_crashed,
        result.reader_lock_waits,
        float.hex(result.reader_lock_wait_us),
        result.read_latency.count,
        float.hex(sum(result.read_latency.samples_ms, 0.0)),
        result.write_latency.count,
        float.hex(sum(result.write_latency.samples_ms, 0.0)),
        [rate for _, rate in result.read_windows.series()],
        [rate for _, rate in result.write_windows.series()],
    )


def case(key, overrides, *, pin, queue_limit=None):
    label = "-".join(
        [key, *(f"{name}={value}" for name, value in overrides.items())]
    )
    if queue_limit is not None:
        label += f"-queue_limit={queue_limit}"
    return pytest.param(key, overrides, queue_limit, pin, id=label)


CASES = [
    case(
        "neo4j-cypher", dict(write_batch_size=1),
        pin=Pin(
            27, 0, False, 0, "0x0.0p+0",
            1626, "0x1.906b3eff19524p+8", 27, "0x1.97253b8e4b87cp+6",
            [15480, 16440, 16600, 16360, 160],
            [160, 320, 240, 320, 40],
        ),
    ),
    case(
        "neo4j-gremlin", dict(write_batch_size=1),
        pin=Pin(
            1, 0, False, 0, "0x0.0p+0",
            136, "0x1.a31c299d883bcp+8", 1, "0x1.479a3ad18d25ep+7",
            [240, 1240, 1720, 2080, 160],
            [0, 0, 0, 0, 0, 0, 40],
        ),
    ),
    case(
        "titan-c", dict(write_batch_size=1),
        pin=Pin(
            1, 0, False, 0, "0x0.0p+0",
            64, "0x1.95048a9bcfd51p+8", 1, "0x1.53bdd1a21ea35p+7",
            [200, 520, 880, 800, 160],
            [0, 0, 0, 0, 0, 0, 40],
        ),
    ),
    case(
        "titan-b", dict(write_batch_size=1),
        pin=Pin(
            1, 0, False, 0, "0x0.0p+0",
            4, "0x1.dc13dd97f62b6p+5", 1, "0x1.47fa5657fb699p+7",
            [40, 40, 80],
            [0, 0, 0, 0, 0, 0, 0, 0, 40],
        ),
    ),
    case(
        "sqlg", dict(write_batch_size=1),
        pin=Pin(
            1, 0, False, 0, "0x0.0p+0",
            29, "0x1.b0d97635e7429p+8", 1, "0x1.54aed3d859c8cp+7",
            [80, 320, 280, 320, 160],
            [0, 0, 0, 0, 0, 0, 40],
        ),
    ),
    case(
        "postgres-sql", dict(write_batch_size=1),
        pin=Pin(
            198, 0, False, 0, "0x0.0p+0",
            1224, "0x1.9160ba1f4b1e9p+8", 198, "0x1.905c432ca57b5p+6",
            [11680, 12320, 12240, 12560, 160],
            [1960, 2000, 1960, 1960, 40],
        ),
    ),
    case(
        "virtuoso-sql", dict(write_batch_size=1),
        pin=Pin(
            123, 0, False, 0, "0x0.0p+0",
            1093, "0x1.90f5ec80c73b1p+8", 123, "0x1.908b780346dd1p+6",
            [10400, 11200, 11000, 10960, 160],
            [1240, 1240, 1200, 1200, 40],
        ),
    ),
    case(
        "virtuoso-sparql", dict(write_batch_size=1),
        pin=Pin(
            53, 0, False, 0, "0x0.0p+0",
            1160, "0x1.908c816f0069ep+8", 53, "0x1.918cbfb15b56fp+6",
            [10800, 11800, 11640, 12000, 160],
            [520, 520, 560, 480, 40],
        ),
    ),
    case(
        "postgres-sql", dict(write_batch_size=4),
        pin=Pin(
            488, 0, False, 0, "0x0.0p+0",
            1216, "0x1.90e659f2ba9d6p+8", 488, "0x1.92b16872b021fp+6",
            [11680, 12320, 12120, 12360, 160],
            [4800, 4800, 4800, 4960, 160],
        ),
    ),
    case(
        "neo4j-cypher", dict(write_batch_size=4),
        pin=Pin(
            32, 0, False, 0, "0x0.0p+0",
            1626, "0x1.90793be22e5fep+8", 32, "0x1.a40a2877ee4e1p+6",
            [15480, 16440, 16600, 16360, 160],
            [160, 320, 320, 320, 160],
        ),
    ),
    case(
        "virtuoso-sparql", dict(write_batch_size=4),
        pin=Pin(
            60, 0, False, 0, "0x0.0p+0",
            1159, "0x1.906cadff822cbp+8", 60, "0x1.94428240b7807p+6",
            [10800, 11800, 11640, 11960, 160],
            [480, 640, 640, 480, 160],
        ),
    ),
    case(
        "postgres-sql",
        dict(write_batch_size=1, isolation_level="read-committed"),
        pin=Pin(
            53, 0, False, 387, "0x1.0a11728f5c28ep+18",
            393, "0x1.060458cd20af9p+7", 53, "0x1.ae51eb851eb84p+4",
            [3800, 3560, 4080, 4120, 160],
            [480, 520, 520, 560, 40],
        ),
    ),
    case(
        "postgres-sql",
        dict(write_batch_size=4, isolation_level="read-committed"),
        pin=Pin(
            180, 0, False, 328, "0x1.1c99da3d70a40p+18",
            334, "0x1.c3f6262cba72ep+6", 180, "0x1.287be76c8b43cp+5",
            [3320, 3160, 3440, 3280, 160],
            [1600, 1760, 1920, 1760, 160],
        ),
    ),
    case(
        "neo4j-cypher", dict(write_batch_size=4, max_update_events=9),
        pin=Pin(
            9, 0, False, 0, "0x0.0p+0",
            1626, "0x1.9053bc2b94db8p+8", 9, "0x1.1ff4b72c5197ap+5",
            [15480, 16440, 16600, 16360, 160],
            [160, 200],
        ),
    ),
    case(
        "neo4j-gremlin", dict(write_batch_size=1, readers=16), queue_limit=2,
        pin=Pin(
            0, 775, True, 0, "0x0.0p+0",
            0, "0x0.0p+0", 0, "0x0.0p+0",
            [],
            [],
        ),
    ),
]


@pytest.mark.parametrize("key, overrides, queue_limit, pin", CASES)
def test_interactive_result_is_pinned(
    dataset, key, overrides, queue_limit, pin
):
    connector = make_connector(key)
    connector.load(dataset)
    if queue_limit is not None:
        connector.server.queue_limit = queue_limit
    config = InteractiveConfig(**{**BASE, **overrides})
    result = InteractiveWorkloadRunner(connector, dataset, config).run()
    assert observe(result) == pin
