"""RDF database facade (Virtuoso-RDF configuration)."""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from repro.cache import CacheStats, EpochKeyedCache, LRUCache
from repro.exec.errors import CompileError
from repro.options import EngineOptions
from repro.rdf.sparql.executor import SparqlExecutor
from repro.rdf.sparql.parser import parse
from repro.rdf.triples import TripleStore
from repro.simclock.ledger import charge
from repro.storage.wal import WriteAheadLog
from repro.txn import oracle

#: closure-cache sentinel: this statement cannot be compiled — skip
#: straight to the interpreter on every run
_INTERPRET = object()


class RdfDatabase:
    """SPARQL over a single indexed triple table."""

    def __init__(
        self,
        name: str = "virtuoso-rdf",
        options: EngineOptions | None = None,
    ) -> None:
        self.name = name
        self.options = options or EngineOptions()
        self.store = TripleStore(name)
        self.wal = WriteAheadLog(f"{name}-wal")
        self.executor = SparqlExecutor(self.store)
        #: parse+translate depends only on the query text, never stale;
        #: join *ordering* happens at run time from the executor's stats
        self._stmt_cache = LRUCache(4096, name="sparql-statements")
        #: (order_mode, sparql) -> compiled closure (or the interpreter
        #: sentinel); the closure bakes in the pattern order chosen from
        #: the statistics snapshot, so ANALYZE bumps the epoch
        self._closure_cache = EpochKeyedCache(4096, name="sparql-closures")
        self.statements_executed = 0

    def execute(
        self, sparql: str, params: dict[str, Any] | None = None
    ) -> list[tuple]:
        """Run one SPARQL SELECT; returns result rows."""
        self.statements_executed += 1
        if self.options.execution_mode == "compiled":
            # deferred: repro.exec.sparqlc imports this package's parser,
            # so a top-level import would be circular
            from repro.exec.sparqlc import compile_query

            key = (self.executor.order_mode, sparql)
            fn = self._closure_cache.lookup(key)
            if fn is None:
                query = self._parse_cached(sparql)
                charge("closure_compile")
                try:
                    fn = compile_query(query, self.store, self.executor)
                except CompileError:
                    fn = _INTERPRET
                self._closure_cache.store(key, fn)
            if fn is not _INTERPRET:
                charge("compiled_exec")
                with oracle.read_view(self.options.isolation_level):
                    # type ignores: the closure cache stores `object`
                    return fn(params)  # type: ignore[no-any-return, operator]
        charge("sql_exec")  # the translated plan still runs as SQL
        query = self._parse_cached(sparql)
        with oracle.read_view(self.options.isolation_level):
            return self.executor.run(query, params)

    def _parse_cached(self, sparql: str) -> Any:
        query = self._stmt_cache.get(sparql)
        if query is None:
            charge("sparql_parse")
            charge("sparql_translate")
            query = parse(sparql)
            self._stmt_cache.put(sparql, query)
        return query

    def analyze(self) -> None:
        """Refresh triple statistics and switch to stats-based ordering."""
        charge("sparql_analyze")
        self.executor.stats = self.store.collect_statistics()
        self.executor.order_mode = "stats"
        # compiled closures bake in the pattern order chosen from the
        # replaced statistics snapshot
        self._closure_cache.bump_epoch()

    def cache_stats(self) -> list[CacheStats]:
        """Uniform cache counters (shared facade across all dialects)."""
        return [
            self._stmt_cache.stats(),
            self._closure_cache.stats(),
            self.executor.estimate_cache.stats(),
        ]

    # -- updates (SPARQL UPDATE is out of scope; the API mirrors what the
    # LDBC connectors do: batches of triple inserts per entity) -------------

    def insert_triples(
        self, triples: Iterable[tuple[Any, Any, Any]]
    ) -> int:
        """Insert a batch of triples atomically; returns how many were new.

        Stands in for a SPARQL UPDATE statement: the request is parsed and
        translated like any other.
        """
        charge("sparql_parse")
        charge("sparql_translate")
        added = 0
        for s, p, o in triples:
            if self.store.add(s, p, o):
                self.wal.append(b"t")
                added += 1
        self.wal.commit()
        return added

    def size_bytes(self) -> int:
        return self.store.size_bytes()

    @property
    def triple_count(self) -> int:
        return self.store.triple_count
