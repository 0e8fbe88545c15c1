"""Compiled + vectorized query execution (batch-at-a-time kernels).

Every dialect's warm path used to re-walk an AST or a plan tree one
tuple at a time.  This package provides the alternative the engines now
default to:

* :mod:`repro.exec.batch` — the batch-at-a-time calling convention
  (pull-based iterators over bounded row batches) and its cost
  accounting (``vector_setup`` per dispatched batch, ``tuple_vec`` per
  item instead of ``tuple_cpu`` / ``cypher_row`` / ``step_eval``).
* :mod:`repro.exec.kernels` — the vectorized operator kernel library:
  scan, index probe, hash join, expand (neighbor lookup), filter,
  project, aggregate.  Kernels pull column batches through the storage
  layer's batch read APIs (`fetch_batch`, `lookup_batch`,
  `neighbors_batch`, ...), deduplicating repeated storage accesses
  within a batch.
* :mod:`repro.exec.sqlc`, :mod:`repro.exec.cypherc`,
  :mod:`repro.exec.gremlinc`, :mod:`repro.exec.sparqlc` — per-dialect
  plan-to-closure compilers.  Each takes an already-cached, optimized
  plan and emits one specialized closure chaining kernels with
  constants, offsets and accessors pre-bound; the warm path never
  touches the AST again.

What an operator *means* — a join's stitch, a fixpoint, an aggregate,
a FILTER, a Gremlin step, a Cypher RETURN — is defined once, beside its
interpreter, and imported here; this package holds only what prices or
batches (the interpreted path never runs a frame from it).

Compilation units are the engines' plan caches: compiled closures live
in epoch-keyed caches bumped by exactly the events that evict plans
(DDL, ANALYZE, planner reconfiguration), so a stale closure can never
run.  A compiler that cannot preserve a query's exact interpreted
semantics raises :class:`CompileError` and the engine falls back to the
interpreter for that statement (writes, variable-length paths, repeat
traversals).
"""

from repro.exec.batch import batched, charge_batch
from repro.exec.errors import CompileError

__all__ = ["CompileError", "batched", "charge_batch"]
