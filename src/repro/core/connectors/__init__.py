"""Connector registry: the eight system/language combinations.

+------------------+-----------+----------+--------------------------------+
| key              | system    | language | backend                        |
+==================+===========+==========+================================+
| neo4j-cypher     | Neo4j     | Cypher   | native graph store             |
| neo4j-gremlin    | Neo4j     | Gremlin  | native graph store + server    |
| titan-c          | Titan-C   | Gremlin  | LSM KV (Cassandra) + server    |
| titan-b          | Titan-B   | Gremlin  | embedded B-tree KV + server    |
| sqlg             | Sqlg      | Gremlin  | row-store RDBMS + server       |
| postgres-sql     | Postgres  | SQL      | row-store RDBMS                |
| virtuoso-sql     | Virtuoso  | SQL      | column-store RDBMS             |
| virtuoso-sparql  | Virtuoso  | SPARQL   | indexed triple table           |
+------------------+-----------+----------+--------------------------------+
"""

from repro.core.connectors.base import Connector, OperationFailed
from repro.core.connectors.cypher import CypherConnector
from repro.core.connectors.gremlin import (
    GremlinConnector,
    Neo4jGremlinConnector,
    SqlgConnector,
    TitanBerkeleyConnector,
    TitanCassandraConnector,
    load_dataset_into_provider,
)
from repro.core.connectors.sparql import VirtuosoSparqlConnector
from repro.core.connectors.sql import (
    PostgresConnector,
    SqlConnector,
    VirtuosoSqlConnector,
)
from repro.options import EngineOptions

_REGISTRY: dict[str, type[Connector]] = {
    cls.key: cls
    for cls in (
        CypherConnector,
        Neo4jGremlinConnector,
        TitanCassandraConnector,
        TitanBerkeleyConnector,
        SqlgConnector,
        PostgresConnector,
        VirtuosoSqlConnector,
        VirtuosoSparqlConnector,
    )
}

#: all registry keys in the paper's table order
SUT_KEYS = [
    "neo4j-cypher",
    "neo4j-gremlin",
    "titan-c",
    "titan-b",
    "sqlg",
    "postgres-sql",
    "virtuoso-sql",
    "virtuoso-sparql",
]


def make_connector(
    key: str, options: EngineOptions | None = None
) -> Connector:
    """Instantiate a fresh (empty) connector by registry key.

    ``options`` is the :class:`EngineOptions` the connector and all its
    engines will share; by default it gets its own.
    """
    try:
        cls = _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown SUT {key!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return cls(options=options)


__all__ = [
    "Connector",
    "OperationFailed",
    "make_connector",
    "SUT_KEYS",
    "CypherConnector",
    "GremlinConnector",
    "Neo4jGremlinConnector",
    "TitanCassandraConnector",
    "TitanBerkeleyConnector",
    "SqlgConnector",
    "SqlConnector",
    "PostgresConnector",
    "VirtuosoSqlConnector",
    "VirtuosoSparqlConnector",
    "load_dataset_into_provider",
]
