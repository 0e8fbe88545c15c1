"""The Neo4j-like database facade: Cypher in, rows out.

Adds the operational envelope around the store + executor:

* statement cache (parse once per query text; ``cypher_parse`` /
  ``cypher_plan`` charged on miss).  The cached object bundles the plan,
  which depends on indexes and statistics, so the cache is epoch-keyed:
  ``create_index`` / ``analyze`` bump the epoch and force a re-plan,
* WAL appends per write + group-commit fsync per statement (or per
  batch, under ``wal.group()``),
* a dirty-record counter consumed by the periodic checkpointer — the
  Figure 3 harness turns each checkpoint into a write stall, reproducing
  the paper's "sudden drops due to checkpointing".
"""

from __future__ import annotations

from typing import Any

from repro.cache import CacheStats, EpochKeyedCache
from repro.exec.errors import CompileError
from repro.graphdb.cypher import ast
from repro.graphdb.cypher.executor import CypherExecutor, WriteSummary
from repro.graphdb.cypher.parser import parse
from repro.graphdb.store import GraphStore
from repro.options import EngineOptions
from repro.simclock.ledger import charge
from repro.storage.wal import WriteAheadLog
from repro.txn import oracle

#: closure-cache sentinel: this statement cannot be compiled (a write,
#: shortestPath, ...) — skip straight to the interpreter on every run
_INTERPRET = object()


def _is_read_only(query: Any) -> bool:
    """Whether the parsed query carries no write clauses."""
    return not any(
        isinstance(clause, (ast.CreateClause, ast.SetClause))
        for clause in query.clauses
    )


class GraphDatabase:
    def __init__(
        self, name: str = "neo4j", options: EngineOptions | None = None
    ) -> None:
        self.name = name
        self.options = options or EngineOptions()
        self.store = GraphStore(name)
        self.wal = WriteAheadLog(f"{name}-wal")
        self.executor = CypherExecutor(self.store)
        #: cypher text -> (epoch, parsed+planned query); the plan half
        #: depends on indexes + stats, so DDL/ANALYZE bump the epoch
        self._stmt_cache = EpochKeyedCache(4096, name="cypher-plans")
        #: cypher text -> compiled closure (or the interpreter sentinel);
        #: invalidated in lockstep with the statement cache
        self._closure_cache = EpochKeyedCache(4096, name="cypher-closures")
        self.dirty_records = 0
        self.checkpoint_count = 0
        self.statements_executed = 0

    # -- Cypher ------------------------------------------------------------------

    def execute(
        self, cypher: str, params: dict[str, Any] | None = None
    ) -> list[tuple]:
        """Run one Cypher statement; returns result rows (empty for writes)."""
        self.statements_executed += 1
        if self.options.execution_mode == "compiled":
            # deferred: repro.exec.cypherc imports this package's AST,
            # so a top-level import would be circular
            from repro.exec.cypherc import compile_query

            fn = self._closure_cache.lookup(cypher)
            if fn is None:
                query = self._parse_cached(cypher)
                charge("closure_compile")
                try:
                    fn = compile_query(query, self.store, self.executor.stats)
                except CompileError:
                    fn = _INTERPRET
                self._closure_cache.store(cypher, fn)
            if fn is not _INTERPRET:
                # compiled closures are read-only by construction (write
                # clauses fall back to the interpreter), so every run
                # gets a snapshot view
                charge("compiled_exec")
                with oracle.read_view(self.options.isolation_level):
                    rows, _summary = fn(params)
                return rows
        charge("cypher_exec")
        query = self._parse_cached(cypher)
        if _is_read_only(query):
            with oracle.read_view(self.options.isolation_level):
                rows, summary = self.executor.run(query, params)
        else:
            rows, summary = self.executor.run(query, params)
        self._log_writes(summary)
        return rows

    def _parse_cached(self, cypher: str) -> Any:
        query = self._stmt_cache.lookup(cypher)
        if query is None:
            charge("cypher_parse")
            charge("cypher_plan")
            query = parse(cypher)
            self._stmt_cache.store(cypher, query)
        return query

    def _log_writes(self, summary: WriteSummary) -> None:
        writes = (
            summary.nodes_created
            + summary.relationships_created
            + summary.properties_set
        )
        if not writes:
            return
        for _ in range(writes):
            self.wal.append(b"w")
        self.wal.commit()  # group commit: one fsync per statement
        self.dirty_records += writes

    # -- operations -----------------------------------------------------------------

    def create_index(self, label: str, prop: str) -> None:
        self.store.create_index(label, prop)
        self._stmt_cache.bump_epoch()  # cached plans may prefer the new index
        self._closure_cache.bump_epoch()  # compiled anchors likewise
        if self.executor.stats is not None:
            # keep index cardinalities in sync with the new access path
            self.analyze()

    def analyze(self) -> None:
        """Refresh graph statistics used by MATCH anchor/order selection."""
        charge("graph_analyze")
        self.executor.stats = self.store.collect_statistics()
        self._stmt_cache.bump_epoch()
        self._closure_cache.bump_epoch()

    def checkpoint(self) -> int:
        """Flush dirty records; returns how many were written back."""
        flushed = self.dirty_records
        charge("page_write", max(1, flushed // 100))
        self.dirty_records = 0
        self.checkpoint_count += 1
        return flushed

    def cache_stats(self) -> list[CacheStats]:
        """Uniform cache counters (shared facade across all dialects)."""
        return [self._stmt_cache.stats(), self._closure_cache.stats()]

    def size_bytes(self) -> int:
        return self.store.size_bytes()
