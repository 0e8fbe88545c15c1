"""The host memos replay what they skip: the ledger and the answers must
be those of a run that redoes the work.

``Database(cache_statements=False)`` (the Sqlg configuration) models a
server that re-parses, re-plans and re-compiles every statement.  The
host keeps each text's parse tree, plan and closure anyway and, on a
hit, only *charges* ``sql_parse`` / ``sql_plan`` / ``closure_compile``.
A row-storage ``Table`` keeps each decoded heap record and, on a hit,
still makes the page access and charges ``tuple_cpu`` / ``value_cpu``.
These tests pin the invariant by running everything twice — once
normally, once with a memo swapped for a mapping that never hits, so
the work really is redone — and requiring equal per-operation ledgers
and answers.
"""

from contextlib import contextmanager

import pytest

from repro.core import make_connector
from repro.core.benchmark import WorkloadParams
from repro.relational import Database
from repro.relational import engine as engine_module
from repro.relational.sql.planner import Planner
from repro.relational.table import Table
from repro.simclock.ledger import meter
from repro.snb import GeneratorConfig, generate
from repro.storage.codec import RowCodec
from tests.test_exec_differential import _catalog, _normalize

CONFIG = GeneratorConfig(scale_factor=3, scale_divisor=8000, seed=13)


class _NeverHit:
    """Stands in for any host memo — a Database's statement memos or a
    Table's row memo — and remembers nothing."""

    epoch = 0

    def get(self, key, default=None):
        return default

    lookup = get

    def put(self, key, value):
        pass

    store = __setitem__ = put

    def pop(self, key, default=None):
        return default

    def bump_epoch(self):
        pass


def _forget_everything(db):
    for memo in (
        "_stmt_cache", "_plan_cache", "_closure_cache", "_dml_cache"
    ):
        assert hasattr(db, memo)
        setattr(db, memo, _NeverHit())


@contextmanager
def row_memos(*, forget):
    """Counts the heap records decoded in the block; with ``forget``, the
    row memos of tables built in the block never hit."""
    decoded = {"n": 0}
    real_init, real_decode = Table.__init__, RowCodec.decode

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        if forget and self.storage == "row":
            self._row_cache = _NeverHit()

    def counting_decode(self, data):
        decoded["n"] += 1
        return real_decode(self, data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Table, "__init__", init)
        patch.setattr(RowCodec, "decode", counting_decode)
        yield decoded


@pytest.fixture(scope="module")
def dataset():
    return generate(CONFIG)


@pytest.fixture(scope="module")
def params(dataset):
    return WorkloadParams.curate(dataset, count=5, seed=3)


def _metered(label, call):
    with meter() as ledger:
        answer = call()
    return label, _normalize(answer), ledger.snapshot()


def _trace(system, dataset, params, mode, *, forget):
    """load, every read, 256 update events, every read again — one
    ``(label, answer, ledger)`` triple per operation, each operation
    under its own ``meter()``.  ``forget`` names the memo stubbed to
    never hit: ``"statements"`` (the Database's), ``"rows"`` (every
    Table's) or None.  Returns the trace, the Database and the number
    of records decoded."""
    with row_memos(forget=forget == "rows") as decoded:
        connector = make_connector(system)
        db = connector.provider.db if system == "sqlg" else connector.db
        db.options.execution_mode = mode
        if forget == "statements":
            _forget_everything(db)
        reads = _catalog(params)
        assert len({op for op, _args in reads}) == 13

        def read_pass(tag):
            ops = [
                _metered(
                    (tag, op, args), lambda: getattr(connector, op)(*args)
                )
                for op, args in reads
            ]
            if system != "sqlg":
                return ops
            # the catalog probes indexes only, whose estimates do not
            # move with table size; label scans are what springs the
            # drift trap (posts grow 127 -> 140 here: est_rows crosses
            # a batch size)
            provider = connector.provider
            ops += [
                _metered(
                    (tag, "scan", label),
                    lambda: list(provider.vertices(label)),
                )
                for label in ("person", "forum", "post", "comment")
            ]
            return ops

        trace = [_metered("load", lambda: connector.load(dataset))]
        trace += read_pass("before")
        for i, event in enumerate(dataset.updates[:256]):
            trace.append(
                _metered(
                    ("update", i), lambda: connector.apply_update(event)
                )
            )
        trace += read_pass("after")
    return trace, db, decoded["n"]


def _assert_twins(system, memo, dataset, params, mode):
    """Trace ``system`` as is and with ``memo`` stubbed; equal op by op.
    Returns the first run's Database and both runs' decode counts."""
    kept, db, decoded = _trace(
        system, dataset, params, mode, forget=None
    )
    fresh, _, decoded_fresh = _trace(
        system, dataset, params, mode, forget=memo
    )
    assert len(kept) == len(fresh) > 256
    for got, expected in zip(kept, fresh):
        assert got == expected, got[0]
    return db, decoded, decoded_fresh


@pytest.mark.parametrize("mode", ["interpreted", "compiled"])
def test_sqlg_ledgers_match_a_database_that_remembers_nothing(
    dataset, params, mode
):
    db, _, _ = _assert_twins("sqlg", "statements", dataset, params, mode)
    # the comparison is only worth something if the memo was in play
    hits = {s.name: s.hits for s in db.cache_stats()}
    assert hits["sql-statements"] > 1000
    assert hits["sql-plans"] > 100


@pytest.mark.parametrize("mode", ["interpreted", "compiled"])
@pytest.mark.parametrize("system", ["postgres-sql", "sqlg"])
def test_row_ledgers_match_tables_that_remember_nothing(
    system, dataset, params, mode
):
    _, decoded, decoded_fresh = _assert_twins(
        system, "rows", dataset, params, mode
    )
    assert decoded < decoded_fresh


# -- the drift trap: live cardinalities feed est_rows and batch sizes ------


def _small_table(rows, **kwargs):
    db = Database("row", cache_statements=False, **kwargs)
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, grp BIGINT)")
    _grow(db, 0, rows)
    return db


def _grow(db, start, stop):
    for i in range(start, stop):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, i % 7))


def _run(db, sql, params=()):
    with meter() as ledger:
        rows = db.query(sql, params)
    return rows, ledger.snapshot()


def test_plan_prepared_at_10_rows_is_not_replayed_at_300():
    db = _small_table(10)
    _rows, small = _run(db, "SELECT id FROM t")
    assert small["vector_setup"] == 2  # one batch each: scan, project
    _grow(db, 10, 300)
    rows, grown = _run(db, "SELECT id FROM t")
    assert len(rows) == 300
    # est_rows=300 still fits one batch per operator; the closure
    # remembered from the 10-row table has small batches and charges 10
    assert grown["vector_setup"] == 2
    twin = _small_table(300)
    _forget_everything(twin)
    assert _run(twin, "SELECT id FROM t") == (rows, grown)
    # unchanged sizes: the next run replays, charges included
    assert _run(db, "SELECT id FROM t") == (rows, grown)
    assert grown["sql_parse"] == grown["sql_plan"] == 1
    assert grown["closure_compile"] == 1


@pytest.mark.parametrize(
    "change",
    [
        lambda db: db.execute("CREATE INDEX ON t (grp) USING HASH"),
        lambda db: db.set_join_reordering(False),
    ],
    ids=["create-index", "reordering-off"],
)
@pytest.mark.parametrize(
    "sql",
    [
        "SELECT a.id FROM t a JOIN t b ON a.grp = b.id WHERE b.grp = ?",
        "UPDATE t SET grp = grp WHERE grp = ? AND id < 40",
        "DELETE FROM t WHERE grp = ? AND id >= 40",
    ],
    ids=["select", "update", "delete"],
)
def test_epoch_change_between_two_runs_of_one_text(sql, change):
    def both_runs(db):
        with meter() as first:
            before = db.execute(sql, (3,))
        change(db)
        with meter() as second:
            after = db.execute(sql, (3,))
        return before, first.snapshot(), after, second.snapshot()

    twin = _small_table(60)
    _forget_everything(twin)
    assert both_runs(_small_table(60)) == both_runs(twin)


def test_explain_of_a_non_caching_database_shows_live_estimates():
    db = _small_table(10)
    sql = "SELECT id FROM t"

    def fresh():
        return Planner(db.catalog).plan(engine_module.parse(sql)).explain()

    assert db.explain(sql) == fresh()
    assert "est_rows=10]" in db.explain(sql)
    _grow(db, 10, 300)
    assert db.explain(sql) == fresh()
    assert "est_rows=300]" in db.explain(sql)
    with meter() as ledger:
        db.explain(sql)
    assert ledger.snapshot() == {"sql_parse": 1, "sql_plan": 1}


# -- host work: what is charged is no longer executed ----------------------


@pytest.fixture
def host_calls(monkeypatch):
    calls = {"parse": 0, "plan": 0}
    real_parse, real_plan = engine_module.parse, Planner.plan

    def counting_parse(sql):
        calls["parse"] += 1
        return real_parse(sql)

    def counting_plan(self, stmt):
        calls["plan"] += 1
        return real_plan(self, stmt)

    monkeypatch.setattr(engine_module, "parse", counting_parse)
    monkeypatch.setattr(Planner, "plan", counting_plan)
    return calls


def test_sqlg_load_parses_each_text_once(dataset, params, host_calls):
    connector = make_connector("sqlg")
    db = connector.provider.db
    host_calls["parse"] = 0
    executed = db.statements_executed
    with meter() as ledger:
        connector.load(dataset)
    executed = db.statements_executed - executed
    assert executed > 1000
    assert 0 < host_calls["parse"] <= 80
    assert ledger.snapshot()["sql_parse"] == executed

    pid = params.person_ids[0]
    connector.one_hop(pid)  # warm
    host_calls.update(parse=0, plan=0)
    executed = db.statements_executed
    with meter() as ledger:
        connector.one_hop(pid)
    executed = db.statements_executed - executed
    assert host_calls == {"parse": 0, "plan": 0}
    charged = ledger.snapshot()
    assert charged["sql_parse"] == charged["sql_plan"] == executed > 0
    assert charged["closure_compile"] == executed
