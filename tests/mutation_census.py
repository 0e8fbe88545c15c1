"""The mutation census of the QA codes (DESIGN.md §14, last table).

A QA code earns its place only if it catches a defect the tier-1 suite
misses.  Each mutant below is one defect of a code's class, planted in
the real engine tree as a plain text replacement: ``old`` occurs
exactly once in ``path`` (``tests/test_mutation_census.py`` keeps that
true at HEAD).  The mutants of deleted codes stay in the list: tier-1
alone must keep killing them.  For each mutant the script records two
bits:

tier-1
    whether ``pytest -x`` fails on the mutant: first on the test files
    that name the mutated package, then, if those pass, on the whole
    suite.  The QA codes' own test files (``QA_TESTS``) are left out,
    and the prepare-time catalog check in ``Connector._validate_queries``
    is switched off, so that the code cannot kill its own mutant at
    connector construction.
code
    the QA codes the mutant makes fire, from every detector: ``repro
    lint --strict`` (the catalog codes), ``repro lint --program`` (QA801,
    QA803; the committed baseline is empty) and ``repro sanitize`` at
    SF3 / 8000, seed 13, on the mutant's systems (the integrity audits
    QA701, QA702, QA704).

Run from the repository root, with a scratch directory for the copies
(one per mutant; about two minutes each when the suite has to run
whole)::

    python tests/mutation_census.py /tmp/census [MUTANT_ID ...]

It prints one JSON object per mutant.  pytest does not collect this
file (it does not match ``test_*.py``).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the QA codes' own tests: left out of the tier-1 bit
QA_TESTS = (
    "tests/test_analysis_consistency.py",
    "tests/test_analysis_cypher.py",
    "tests/test_analysis_gremlin.py",
    "tests/test_analysis_prepare.py",
    "tests/test_analysis_sparql.py",
    "tests/test_analysis_sql.py",
    "tests/test_program_analysis.py",
    "tests/test_program_fixpoint.py",
    "tests/test_sarif.py",
    "tests/test_sanitizer_harness.py",
    "tests/test_mutation_census.py",
)

#: the prepare-time catalog check, switched off in every mutant copy
CATALOG_CHECK = (
    "src/repro/core/connectors/base.py",
    "        ensure_catalog_valid(self.dialect, self.query_catalog)\n",
    "        pass\n",
)

SANITIZE = (
    "sanitize", "--scale-factor", "3", "--scale-divisor", "8000",
    "--seed", "13", "--format", "json",
)


@dataclass(frozen=True)
class Mutant:
    id: str
    #: the code whose defect class the mutant belongs to
    code: str
    defect: str
    path: str
    old: str
    new: str
    #: the SUTs ``repro sanitize`` runs the mutant on
    systems: str


_CY = "src/repro/core/connectors/cypher.py"
_SQL = "src/repro/core/connectors/sql.py"
_SPARQL = "src/repro/core/connectors/sparql.py"
_GREMLIN = "src/repro/core/connectors/gremlin.py"
_ENGINE = "src/repro/relational/engine.py"
_TABLE = "src/repro/relational/table.py"
_STORE = "src/repro/graphdb/store.py"
_MANAGER = "src/repro/txn/manager.py"
_LOCKS = "src/repro/txn/locks.py"

MUTANTS: tuple[Mutant, ...] = (
    # -- catalog codes: one query text of one connector -------------------
    Mutant(
        "cy-profile-prop", "QA103", "renamed property, read",
        _CY, '"p.browserUsed, c.id",', '"p.browserUsd, c.id",',
        "neo4j-cypher",
    ),
    Mutant(
        "cy-add-person-prop", "QA103", "renamed property, write",
        _CY, "locationIP: $ip, browserUsed: $b})",
        "locationIP: $ip, browserUsd: $b})",
        "neo4j-cypher",
    ),
    Mutant(
        "gr-add-person-prop", "QA103",
        "renamed property, write (Gremlin runtime map)",
        _GREMLIN, '"browserUsed": person.browser_used,',
        '"browserUsd": person.browser_used,',
        "neo4j-gremlin",
    ),
    Mutant(
        "cy-content-label", "QA101", "unknown label, read",
        _CY, '"MATCH (m:Message {id: $id}) RETURN m.content',
        '"MATCH (m:Mesage {id: $id}) RETURN m.content',
        "neo4j-cypher",
    ),
    Mutant(
        "cy-add-forum-label", "QA101", "unknown label, write",
        _CY, '"CREATE (f:Forum {id: $id, title: $t, creationDate: $d})"',
        '"CREATE (f:Forun {id: $id, title: $t, creationDate: $d})"',
        "neo4j-cypher",
    ),
    Mutant(
        "cy-add-knows-type", "QA102", "unknown edge type, write",
        _CY, '"CREATE (a)-[:KNOWS {creationDate: $d}]->(b)"',
        '"CREATE (a)-[:KNOWZ {creationDate: $d}]->(b)"',
        "neo4j-cypher",
    ),
    Mutant(
        "cy-add-member-type", "QA102", "unknown edge type, write",
        _CY, '"CREATE (f)-[:HAS_MEMBER {joinDate: $d}]->(p)"',
        '"CREATE (f)-[:HAS_MEMBR {joinDate: $d}]->(p)"',
        "neo4j-cypher",
    ),
    Mutant(
        "gr-add-like-label", "QA102",
        "unknown edge label, write (Gremlin runtime call)",
        _GREMLIN, 'self._add_edge("likes", "person", like.person,',
        'self._add_edge("likez", "person", like.person,',
        "neo4j-gremlin",
    ),
    Mutant(
        "sql-add-like-table", "QA104", "unknown table, write",
        _SQL, '("INSERT INTO likes VALUES (?, ?, ?)",)',
        '("INSERT INTO likez VALUES (?, ?, ?)",)',
        "postgres-sql",
    ),
    Mutant(
        "cy-add-like-parse", "QA105", "query does not parse, write",
        _CY, '"CREATE (p)-[:LIKES {creationDate: $d}]->(m)"',
        '"CREATE (p)-[:LIKES {creationDate: $d}->(m)"',
        "neo4j-cypher",
    ),
    Mutant(
        "sql-member-arity", "QA106", "INSERT arity, write",
        _SQL, '"INSERT INTO forum_member VALUES (?, ?, ?)"',
        '"INSERT INTO forum_member VALUES (?, ?)"',
        "postgres-sql",
    ),
    Mutant(
        "cy-one-hop-unbound", "QA107", "unbound variable, read",
        _CY, '"RETURN f.id AS id ORDER BY id",',
        '"RETURN g.id AS id ORDER BY id",',
        "neo4j-cypher",
    ),
    Mutant(
        "cy-add-post-unbound", "QA107", "unbound variable, write",
        _CY, '"CREATE (m)-[:HAS_TAG]->(t)"', '"CREATE (m)-[:HAS_TAG]->(g)"',
        "neo4j-cypher",
    ),
    Mutant(
        "cy-add-person-literal", "QA201", "wrong-typed literal, write",
        _CY, '"gender: $g, birthday: $bd, creationDate: $cd, "',
        '"gender: 0, birthday: $bd, creationDate: $cd, "',
        "neo4j-cypher",
    ),
    Mutant(
        "cy-add-like-endpoints", "QA202", "edge endpoints swapped, write",
        _CY, '"CREATE (p)-[:LIKES {creationDate: $d}]->(m)"',
        '"CREATE (m)-[:LIKES {creationDate: $d}]->(p)"',
        "neo4j-cypher",
    ),
    Mutant(
        "cy-add-like-target", "QA202", "edge to the wrong label, write",
        _CY, '"MATCH (p:Person {id: $p}), (m:Message {id: $m}) "',
        '"MATCH (p:Person {id: $p}), (m:Person {id: $m}) "',
        "neo4j-cypher",
    ),
    Mutant(
        "cy-member-cartesian", "QA301", "unanchored pattern, write",
        _CY, '"MATCH (f:Forum {id: $f}), (p:Person {id: $p}) "',
        '"MATCH (f:Forum {id: $f}), (p:Person) "',
        "neo4j-cypher",
    ),
    Mutant(
        "cy-friends-cartesian", "QA301", "disconnected pattern, read",
        _CY, '"MATCH (p:Person {id: $id})-[:KNOWS]-(f:Person) "\n'
        '        "RETURN f.id AS id, f.firstName AS fn',
        '"MATCH (p:Person {id: $id}), (f:Person) "\n'
        '        "RETURN f.id AS id, f.firstName AS fn',
        "neo4j-cypher",
    ),
    Mutant(
        "sql-lookup-sargable", "QA302", "non-sargable filter, read",
        _SQL, '"SELECT firstname, lastname, gender FROM person WHERE id = ?"',
        '"SELECT firstname, lastname, gender FROM person WHERE id + 0 = ?"',
        "postgres-sql",
    ),
    Mutant(
        "cy-lookup-unanchored", "QA303", "unanchored scan, read",
        _CY, '"MATCH (m:Message {id: $id})-[:HAS_CREATOR]->(p:Person) "',
        '"MATCH (m:Message)-[:HAS_CREATOR]->(p:Person) WHERE m.id = $id "',
        "neo4j-cypher",
    ),
    Mutant(
        "gr-lookup-unlabelled", "QA303", "unanchored scan, read",
        _GREMLIN, 'return g.V().has("person", "id", person_id).valueMap()',
        'return g.V().has("id", person_id).valueMap()',
        "neo4j-gremlin",
    ),
    Mutant(
        "sp-creator-footprint", "QA401",
        "one dialect reads less than the others, read",
        _SPARQL, '"?m snb:content ?c . ?m snb:hasCreator ?p . ',
        '"?m snb:hasCreator ?p . ',
        "virtuoso-sparql",
    ),
    Mutant(
        "sp-replies-missing", "QA402", "operation missing from a catalog",
        _SPARQL, '"message_replies": (', '"message_replys": (',
        "virtuoso-sparql",
    ),
    Mutant(
        "cy-add-post-footprint", "QA403",
        "insert drops an edge the others write",
        _CY, '(f)-[:CONTAINER_OF]->(m), "\n        "(m)-[:IS_LOCATED_IN]->(c)",',
        '(f)-[:CONTAINER_OF]->(m)",',
        "neo4j-cypher",
    ),
    # -- runtime codes: the engines' write and commit paths ---------------
    Mutant(
        "sql-like-dangling", "QA701", "edge row names a missing endpoint",
        _SQL, "(like.person, like.message, like.creation_date),",
        "(like.message, like.person, like.creation_date),",
        "postgres-sql",
    ),
    Mutant(
        "graph-label-index", "QA702", "index insert dropped",
        _STORE,
        "            self._label_index.setdefault(label, set())"
        ".add(node_id)\n",
        "            pass\n",
        "neo4j-cypher",
    ),
    Mutant(
        "table-index-refile", "QA702", "index not re-filed on a move",
        _TABLE, "            if changed or moved:\n",
        "            if changed:\n",
        "postgres-sql",
    ),
    Mutant(
        "table-wal-insert", "QA704", "WAL append dropped",
        _TABLE,
        '            self.wal.append(wal_record("insert", self.name, row))\n',
        "            pass\n",
        "postgres-sql",
    ),
    Mutant(
        "txn-commit-fsync", "QA704", "commit does not force the log",
        _MANAGER,
        "            if self.wal is not None:\n"
        "                self.wal.commit()\n",
        "",
        "postgres-sql",
    ),
    # -- the deleted codes' defect classes: tier-1 alone must kill these --
    Mutant(
        "insert-abort-dropped", "QA802",
        "autocommit INSERT leaks its txn on a storage error",
        _ENGINE,
        "                # autocommit txn's row lock: abort here or leak it\n"
        "                if autocommit:\n"
        "                    txn.abort()\n",
        "                # autocommit txn's row lock: abort here or leak it\n",
        "postgres-sql",
    ),
    Mutant(
        "update-abort-dropped", "QA802",
        "autocommit UPDATE leaks its txn on a storage error",
        _ENGINE,
        "                            t.update(h, o)\n"
        "                    )\n"
        "            except BaseException:\n"
        "                if auto is not None:\n"
        "                    auto.abort()\n",
        "                            t.update(h, o)\n"
        "                    )\n"
        "            except BaseException:\n",
        "postgres-sql",
    ),
    Mutant(
        "commit-finally-dropped", "QA802",
        "a fault inside commit leaks the locks",
        _MANAGER,
        "        finally:\n"
        "            # a fault inside commit propagates, but must not leave the\n"
        "            # statement's locks held: nothing else would release them\n"
        "            self.locks.release_all(txn.txn_id)\n",
        "        except BaseException:\n"
        "            raise\n"
        "        self.locks.release_all(txn.txn_id)\n",
        "postgres-sql",
    ),
    Mutant(
        "commit-release-dropped", "QA602", "commit keeps its locks",
        _MANAGER,
        "            # statement's locks held: nothing else would release them\n"
        "            self.locks.release_all(txn.txn_id)\n",
        "            # statement's locks held: nothing else would release them\n"
        "            pass\n",
        "postgres-sql",
    ),
    Mutant(
        "lock-rows-unsorted", "QA801",
        "multi-row DML locks in scan order",
        _ENGINE,
        "        self.txns.locks.acquire_many(\n"
        "            self._active_txn.txn_id,\n"
        "            [self._row_lock(table, handle, row) "
        "for handle, row in matches],\n"
        "            LockMode.EXCLUSIVE,\n"
        "        )\n",
        "        for handle, row in matches:\n"
        "            self.txns.locks.acquire(\n"
        "                self._active_txn.txn_id,\n"
        "                self._row_lock(table, handle, row),\n"
        "                LockMode.EXCLUSIVE,\n"
        "            )\n",
        "postgres-sql",
    ),
    Mutant(
        "batch-locks-unsorted", "QA501",
        "a batched writer locks its events in arrival order",
        _SQL,
        "                self.db.txns.locks.acquire_many(\n"
        "                    txn.txn_id,\n"
        "                    [self._event_lock(e) for e in events],\n"
        "                    LockMode.EXCLUSIVE,\n"
        "                )\n",
        "                for e in events:\n"
        "                    self.db.txns.locks.acquire(\n"
        "                        txn.txn_id,\n"
        "                        self._event_lock(e),\n"
        "                        LockMode.EXCLUSIVE,\n"
        "                    )\n",
        "postgres-sql",
    ),
    Mutant(
        "acquire-many-unsorted", "QA502",
        "batched acquisition out of sorted order",
        _LOCKS, "        for key in sorted(unique):\n",
        "        for key in reversed(list(unique)):\n",
        "postgres-sql",
    ),
    Mutant(
        "update-lock-dropped", "QA603",
        "UPDATE writes a row without its row lock",
        _ENGINE,
        "        self.txns.locks.acquire(txn.txn_id, resource, "
        "LockMode.EXCLUSIVE)\n",
        "",
        "postgres-sql",
    ),
    Mutant(
        "reader-read-committed", "QA601",
        "SQL readers skip the snapshot",
        _ENGINE,
        "        with oracle.read_view(self.options.isolation_level):\n"
        "            if self.options.execution_mode == \"compiled\":\n",
        "        with oracle.read_view(\"read-committed\"):\n"
        "            if self.options.execution_mode == \"compiled\":\n",
        "postgres-sql",
    ),
    Mutant(
        "graph-reader-read-committed", "QA604",
        "Cypher readers skip the snapshot",
        "src/repro/graphdb/engine.py",
        "            with oracle.read_view(self.options.isolation_level):\n"
        "                rows, summary = self.executor.run(query, params)\n",
        "            with oracle.read_view(\"read-committed\"):\n"
        "                rows, summary = self.executor.run(query, params)\n",
        "neo4j-cypher",
    ),
    Mutant(
        "update-wal-fsync", "QA803", "fsync while a row lock is held",
        _ENGINE,
        "                new_handle = table.update(handle, changes)\n",
        "                new_handle = table.update(handle, changes)\n"
        "                self.wal.commit()\n",
        "postgres-sql",
    ),
    Mutant(
        "row-cache-evict", "QA805", "row cache not evicted on update",
        _TABLE,
        "        if self.storage == \"row\":\n"
        "            self._row_cache.pop(handle, None)\n"
        "            new_handle = self._heap.update(\n",
        "        if self.storage == \"row\":\n"
        "            new_handle = self._heap.update(\n",
        "postgres-sql",
    ),
    Mutant(
        "plan-cache-epoch", "QA805", "plan cache not invalidated on DDL",
        _ENGINE,
        "    def _invalidate_plans(self) -> None:\n"
        "        self._plan_cache.bump_epoch()\n",
        "    def _invalidate_plans(self) -> None:\n",
        "postgres-sql",
    ),
    Mutant(
        "table-lookup-raw", "QA806", "index probe skips visibility",
        _TABLE,
        "        hits = self.mvcc.filter_visible(index.search(value))\n"
        "        return self._snapshot_index_fixup(",
        "        hits = index.search(value)\n"
        "        return self._snapshot_index_fixup(",
        "postgres-sql",
    ),
    Mutant(
        "graph-lookup-raw", "QA806", "index probe skips visibility",
        _STORE,
        "        hits = self.mvcc.filter_visible(index.search(value))\n"
        "        stale = [k for k",
        "        hits = index.search(value)\n"
        "        stale = [k for k",
        "neo4j-cypher",
    ),
    Mutant(
        "column-fetch-stale", "QA806",
        "columnar projection skips the snapshot check",
        _TABLE,
        '        if self.storage == "row" or self.mvcc.stale(handle):\n',
        '        if self.storage == "row":\n',
        "virtuoso-sql",
    ),
    Mutant(
        "table-stamp", "QA807", "insert not stamped",
        _TABLE,
        "        self.mvcc.stamp(handle)\n"
        "        if self.wal is not None:\n",
        "        if self.wal is not None:\n",
        "postgres-sql",
    ),
    Mutant(
        "graph-stamp", "QA807", "node create not stamped",
        _STORE, "        self.mvcc.stamp(node_id)\n", "",
        "neo4j-cypher",
    ),
    Mutant(
        "table-update-version", "QA807", "update keeps no old version",
        _TABLE, "        self.mvcc.record_update(handle, old_row)\n", "",
        "postgres-sql",
    ),
    Mutant(
        "row-fetch-unversioned", "QA808",
        "row cache served to snapshot readers as-is",
        _TABLE,
        "        if oracle.CURRENT is not None:\n"
        "            return self.mvcc.read(handle, row)\n"
        "        return row\n",
        "        return row\n",
        "postgres-sql",
    ),
    Mutant(
        "graph-delete-reclaim", "QA809",
        "delete reclaims at once, ignoring held snapshots",
        _STORE,
        "        if not self.mvcc.record_delete(node_id):\n"
        "            # no snapshot could still need the record: remove it now;\n"
        "            # otherwise it stays (tombstoned) until GC reclaims it\n"
        "            self._remove_physical(node_id, record)\n",
        "        self._reclaim_tombstone(node_id)\n",
        "neo4j-cypher",
    ),
    Mutant(
        "exec-mutation-charge", "QA810",
        "a compiled kernel charges a write",
        "src/repro/exec/kernels.py",
        '            charge("vector_setup")\n'
        '            charge("hash_probe", len(batch))\n'
        "            out = []\n"
        "            for row in batch:\n"
        "                if row not in seen:\n",
        '            charge("page_write")\n'
        '            charge("hash_probe", len(batch))\n'
        "            out = []\n"
        "            for row in batch:\n"
        "                if row not in seen:\n",
        "postgres-sql",
    ),
)


def replace_once(path: Path, old: str, new: str) -> None:
    """Replace ``old``, which must occur exactly once, in ``path``."""
    text = path.read_text()
    count = text.count(old)
    if count != 1:
        raise ValueError(f"{old!r} occurs {count} times in {path}")
    path.write_text(text.replace(old, new))


def _copy(mutant: Mutant, workdir: Path) -> Path:
    copy = workdir / mutant.id
    if copy.exists():
        shutil.rmtree(copy)
    shutil.copytree(
        ROOT,
        copy,
        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache",
            ".benchmarks", "out",
        ),
    )
    for path, old, new in (
        CATALOG_CHECK,
        (mutant.path, mutant.old, mutant.new),
    ):
        replace_once(copy / path, old, new)
    return copy


def _env(copy: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(copy / "src"))


def _selected(copy: Path, mutant: Mutant) -> list[str]:
    """The test files that name the mutated package."""
    package = "repro." + mutant.path.split("/")[2].removesuffix(".py")
    return sorted(
        f"tests/{path.name}"
        for path in (copy / "tests").glob("test_*.py")
        if f"tests/{path.name}" not in QA_TESTS
        and package in path.read_text()
    )


def _pytest(copy: Path, files: list[str]) -> str | None:
    """The first failing test's node id, or None when all pass."""
    ignore = [f"--ignore={path}" for path in QA_TESTS]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
         "-p", "no:cacheprovider", *ignore, *files],
        cwd=copy, env=_env(copy), capture_output=True, text=True,
    )
    if run.returncode == 0:
        return None
    found = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", run.stdout, re.M)
    return found.group(1) if found else f"exit {run.returncode}"


def _fired(copy: Path, mutant: Mutant) -> list[str]:
    """The QA codes any detector reports on the mutant."""
    codes: set[str] = set()
    for command in (
        ("lint", "--strict", "--format", "json"),
        ("lint", "--program", "--format", "json"),
        (*SANITIZE, "--systems", mutant.systems),
    ):
        run = subprocess.run(
            [sys.executable, "-m", "repro", *command],
            cwd=copy, env=_env(copy), capture_output=True, text=True,
        )
        codes |= {
            json.loads(line)["code"]
            for line in run.stdout.splitlines()
            if line.startswith("{")
        }
        if run.returncode not in (0, 1):
            codes.add(f"{command[0]} crashed: exit {run.returncode}")
    return sorted(codes)


def census(mutant: Mutant, workdir: Path) -> dict[str, object]:
    copy = _copy(mutant, workdir)
    killer = _pytest(copy, _selected(copy, mutant))
    if killer is None:
        killer = _pytest(copy, ["tests"])
    fired = _fired(copy, mutant)
    shutil.rmtree(copy)
    return {
        "id": mutant.id,
        "code": mutant.code,
        "tier1": killer,
        "fired": fired,
    }


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    workdir = Path(argv[0]).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    wanted = set(argv[1:])
    for mutant in MUTANTS:
        if wanted and mutant.id not in wanted:
            continue
        print(json.dumps(census(mutant, workdir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
