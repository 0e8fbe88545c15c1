"""Further interactive-runner coverage: configs, mixes, per-system traits."""

import pytest

from repro.core import make_connector
from repro.driver import InteractiveConfig, InteractiveWorkloadRunner
from repro.driver.workload import FULL_MIX
from repro.snb import GeneratorConfig, generate

CONFIG = GeneratorConfig(scale_factor=3, scale_divisor=8000, seed=13)


@pytest.fixture(scope="module")
def dataset():
    return generate(CONFIG)


def run(key, dataset, **overrides):
    connector = make_connector(key)
    connector.load(dataset)
    defaults = dict(readers=4, duration_ms=200.0, window_ms=50.0, seed=5)
    defaults.update(overrides)
    config = InteractiveConfig(**defaults)
    return InteractiveWorkloadRunner(connector, dataset, config).run()


class TestConfiguration:
    def test_max_update_events_caps_writer(self, dataset):
        result = run("postgres-sql", dataset, max_update_events=5)
        assert result.updates_applied <= 5

    def test_write_batch_size_must_be_positive(self):
        # a zero-event poll would end the writer before its first update
        with pytest.raises(ValueError):
            InteractiveConfig(write_batch_size=0)

    def test_duration_respected(self, dataset):
        result = run("postgres-sql", dataset, duration_ms=150.0)
        series = result.read_windows.series()
        # in-flight operations may complete one window past the deadline
        assert series[-1][0] <= 150.0 + 50.0

    def test_more_readers_more_reads(self, dataset):
        few = run("postgres-sql", dataset, readers=2)
        many = run("postgres-sql", dataset, readers=8)
        assert many.read_windows.total() > few.read_windows.total()

    def test_custom_mix(self, dataset):
        result = run("postgres-sql", dataset, mix=[("person_profile", 1)])
        assert result.read_windows.total() > 0

    def test_full_mix_runs_on_sql_systems(self, dataset):
        # the full LDBC mix is fine for native engines (Section 4.4 only
        # breaks the Gremlin Server)
        result = run("postgres-sql", dataset, mix=FULL_MIX)
        assert result.read_failures == 0
        assert not result.server_crashed


class TestPerSystemTraits:
    def test_virtuoso_sparql_writes_slower_than_sql(self, dataset):
        sql = run("virtuoso-sql", dataset, duration_ms=300.0)
        sparql = run("virtuoso-sparql", dataset, duration_ms=300.0)
        assert sql.write_latency.mean() < sparql.write_latency.mean()

    def test_postgres_writes_faster_than_virtuoso(self, dataset):
        pg = run("postgres-sql", dataset, duration_ms=300.0)
        virt = run("virtuoso-sql", dataset, duration_ms=300.0)
        assert pg.write_latency.mean() < virt.write_latency.mean()

    def test_result_metadata(self, dataset):
        result = run("titan-c", dataset)
        assert result.system == "titan-c"
        assert result.readers == 4
        assert result.read_latency.percentile(50) > 0

    def test_writer_consumes_kafka_in_order(self, dataset):
        # the applied updates are exactly a prefix of the dependency-sorted
        # stream, each applied once and in order, on the per-event writer
        # and on the batched one (which reaches apply_update through
        # apply_update_batch)
        for key in ("postgres-sql", "neo4j-cypher"):
            for batch_size in (1, 4):
                connector = make_connector(key)
                connector.load(dataset)
                seen = []
                apply_update = connector.apply_update

                def recorded(event, _apply=apply_update, _seen=seen):
                    _seen.append(event)
                    return _apply(event)

                connector.apply_update = recorded
                config = InteractiveConfig(
                    readers=4, duration_ms=100.0, window_ms=50.0, seed=5,
                    write_batch_size=batch_size,
                )
                result = InteractiveWorkloadRunner(
                    connector, dataset, config
                ).run()
                n = result.updates_applied
                assert n > 0, (key, batch_size)
                assert seen == dataset.updates[:n], (key, batch_size)
