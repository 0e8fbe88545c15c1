"""The embedded Gremlin loader against the traversal loop it replaces.

``EmbeddedLoader`` calls the provider SPI directly and charges the
interpreted steps of the ``addV``/``addE`` traversals it no longer
builds.  The reference below is that traversal loop: loading through
either must leave the same ledger, the same store and the same answers.
"""

import pytest

from repro.core import make_connector
from repro.core.benchmark import WorkloadParams
from repro.core.connectors import gremlin
from repro.core.connectors.gremlin import (
    GremlinConnector,
    _q_add_vertex,
    iter_edge_specs,
    iter_vertex_specs,
)
from repro.simclock import meter
from repro.snb import GeneratorConfig, generate
from repro.tinkerpop import Graph
from repro.tinkerpop.traversal import Step, charge_step

SYSTEMS = ("neo4j-gremlin", "titan-c", "titan-b", "sqlg")


@pytest.fixture(scope="module")
def dataset():
    return generate(
        GeneratorConfig(scale_factor=3, scale_divisor=16000, seed=13)
    )


@pytest.fixture(scope="module")
def params(dataset):
    return WorkloadParams.curate(dataset, count=3, seed=3)


def _reference_load(connector, dataset) -> None:
    """One ``addV`` or ``V(id).addE().to()`` traversal built and
    interpreted per element, then the connector's backend flush."""
    g = Graph(connector.provider).traversal()
    vertex = {}
    for label, props in iter_vertex_specs(dataset):
        vertex[props["id"]] = _q_add_vertex(g, label, props).next()
    for label, out_id, in_id, props in iter_edge_specs(dataset):
        t = g.V(vertex[out_id].id).addE(label).to(vertex[in_id])
        for key, value in props.items():
            t.property(key, value)
        t.iterate()
    connector._flush_backend()


def _reads(connector, params):
    """``(answer, ledger)`` of a few reads, each under its own meter."""
    calls = [("point_lookup", (pid,)) for pid in params.person_ids]
    calls += [("one_hop", (pid,)) for pid in params.person_ids]
    calls += [("shortest_path", pair) for pair in params.path_pairs]
    out = []
    for op, args in calls:
        with meter() as ledger:
            answer = getattr(connector, op)(*args)
        out.append((op, args, answer, ledger.snapshot()))
    return out


@pytest.mark.parametrize("system", SYSTEMS)
def test_loader_matches_the_traversal_loop(system, dataset, params):
    runs = []
    # GremlinConnector.load runs EmbeddedLoader
    for load in (_reference_load, GremlinConnector.load):
        connector = make_connector(system)
        with meter() as ledger:
            load(connector, dataset)
        runs.append((
            ledger.snapshot(), connector.size_bytes(),
            _reads(connector, params),
        ))
    (ref_ledger, ref_size, ref_reads), (ledger, size, reads) = runs
    assert ledger == ref_ledger
    assert ledger["step_eval"] == (
        dataset.vertex_count() + 2 * sum(1 for _ in iter_edge_specs(dataset))
    )
    assert size == ref_size
    assert reads == ref_reads
    # the reads found something, so equal answers say something
    assert all(answer not in (None, (), []) for _, _, answer, _ in reads)


def test_loader_and_interpreter_charge_through_one_helper():
    assert Step._tick is charge_step
    assert gremlin.charge_step is charge_step
