"""The QA806–QA810 MVCC-effect passes: seeded fixtures, clean twins,
fixpoint termination, and the real tree.

Layers, mirroring ``test_program_analysis.py``:

* each new code catches its seeded-violation fixture — and *only* that
  code fires from the QA806–QA810 family;
* the repaired twin of every fixture is silent across the entire QA8xx
  family (old passes included);
* the interprocedural closures terminate on mutually recursive call
  graphs and still propagate facts through the cycle;
* the real engine tree is silent for QA806–QA810 modulo the committed
  justified baseline, and QA806 catches the DESIGN §13 pre-fix shape
  (an index lookup with visibility filtering but no ``stale_keys``
  re-check).
"""

from repro.analysis.program import (
    analyze_program,
    analyze_program_sources,
)

EFFECT_PASSES = {"QA806", "QA807", "QA808", "QA809", "QA810"}


def codes(diagnostics):
    return [d.code for d in diagnostics]


def effect_codes(source, key="fixture.py"):
    return codes(
        analyze_program_sources({key: source}, passes=EFFECT_PASSES)
    )


def all_pass_codes(source, key="fixture.py"):
    return codes(analyze_program_sources({key: source}))


# -- QA806: snapshot-bypassing raw read ----------------------------------

QA806_RAW_BAD = '''
class Store:
    def __init__(self):
        self.mvcc = VersionStore("s")
        self._rows = {}

    def insert(self, key, value):
        self.mvcc.stamp(key)
        self._rows[key] = value

    def fetch(self, key):
        return self._rows[key]
'''

QA806_RAW_OK = QA806_RAW_BAD.replace(
    "    def fetch(self, key):\n"
    "        return self._rows[key]",
    "    def fetch(self, key):\n"
    "        if not self.mvcc.visible(key):\n"
    "            return None\n"
    "        return self.mvcc.read(key, self._rows[key])",
)

# the DESIGN §13 shape: the lookup filters hits for visibility but
# never re-checks stale keys, so entries re-filed by later writers
# make a held snapshot's probe miss (or wrongly surface) rows
QA806_INDEX_BAD = '''
class Store:
    def __init__(self):
        self.mvcc = VersionStore("s")
        self._rows = {}
        self._name_index = {}

    def update(self, key, value):
        self.mvcc.record_update(key, self._rows[key])
        self._name_index.pop(self._rows[key], None)
        self._name_index[value] = key
        self._rows[key] = value

    def lookup(self, value):
        hits = self._name_index.get(value, [])
        return self.mvcc.filter_visible(hits)
'''

QA806_INDEX_OK = QA806_INDEX_BAD.replace(
    "        return self.mvcc.filter_visible(hits)",
    "        visible = self.mvcc.filter_visible(hits)\n"
    "        for key in self.mvcc.stale_keys():\n"
    "            visible = self._fixup(key, value, visible)\n"
    "        return visible",
) + '''
    def _fixup(self, key, value, visible):
        row = self.mvcc.read(key, self._rows.get(key))
        if row == value and key not in visible:
            visible.append(key)
        if row != value and key in visible:
            visible.remove(key)
        return visible
'''


class TestSnapshotBypassPass:
    def test_raw_container_read_fires_exactly_qa806(self):
        diags = analyze_program_sources(
            {"fixture.py": QA806_RAW_BAD}, passes=EFFECT_PASSES
        )
        assert codes(diags) == ["QA806"]
        assert "Store.fetch" in diags[0].location.operation
        assert "_rows" in diags[0].message

    def test_version_read_through_mvcc_is_silent(self):
        assert all_pass_codes(QA806_RAW_OK) == []

    def test_design13_index_probe_without_stale_keys_fires(self):
        diags = analyze_program_sources(
            {"fixture.py": QA806_INDEX_BAD}, passes=EFFECT_PASSES
        )
        assert codes(diags) == ["QA806"]
        assert "Store.lookup" in diags[0].location.operation
        assert "stale_keys" in diags[0].message

    def test_stale_keys_fixup_clears_the_probe(self):
        assert all_pass_codes(QA806_INDEX_OK) == []

    def test_writers_may_read_their_own_containers_raw(self):
        # insert/update read _rows raw in both fixtures; as version
        # writers they are exempt (read-your-own-write is their job)
        bad = analyze_program_sources(
            {"fixture.py": QA806_RAW_BAD}, passes=EFFECT_PASSES
        )
        assert all(
            "insert" not in d.location.operation for d in bad
        )


# -- QA807: mutation without version stamping ----------------------------

QA807_BAD = '''
class Store:
    def __init__(self):
        self.mvcc = VersionStore("s")
        self._rows = {}

    def fetch(self, key):
        if not self.mvcc.visible(key):
            return None
        return self.mvcc.read(key, self._rows[key])

    def put_row(self, key, value):
        self._rows[key] = value
'''

QA807_OK = QA807_BAD.replace(
    "    def put_row(self, key, value):\n"
    "        self._rows[key] = value",
    "    def put_row(self, key, value):\n"
    "        self.mvcc.stamp(key)\n"
    "        self._rows[key] = value",
)

# the stamp may live in a helper: the fact must propagate through the
# call graph, not just the mutating function's own body
QA807_HELPER_OK = QA807_BAD.replace(
    "    def put_row(self, key, value):\n"
    "        self._rows[key] = value",
    "    def put_row(self, key, value):\n"
    "        self._note_write(key)\n"
    "        self._rows[key] = value\n"
    "\n"
    "    def _note_write(self, key):\n"
    "        self.mvcc.stamp(key)",
)


class TestUnversionedMutationPass:
    def test_unstamped_container_write_fires_exactly_qa807(self):
        diags = analyze_program_sources(
            {"fixture.py": QA807_BAD}, passes=EFFECT_PASSES
        )
        assert codes(diags) == ["QA807"]
        assert "Store.put_row" in diags[0].location.operation

    def test_stamped_write_is_silent(self):
        assert all_pass_codes(QA807_OK) == []

    def test_stamp_in_a_callee_carries_the_discipline(self):
        assert all_pass_codes(QA807_HELPER_OK) == []


# -- QA808: cache ops not gated on snapshot staleness --------------------

QA808_BAD = '''
class Engine:
    def __init__(self):
        self.mvcc = VersionStore("s")
        self._rows = {}
        self._row_cache = {}

    def insert(self, key, value):
        self.mvcc.stamp(key)
        self._row_cache.pop(key, None)  # an eviction needs no gate
        self._rows[key] = value

    def fetch(self, key):
        if key in self._row_cache:
            return self._row_cache[key]
        value = self.mvcc.read(key, self._rows[key])
        self._row_cache[key] = value
        return value
'''

QA808_OK = QA808_BAD.replace(
    "    def fetch(self, key):\n"
    "        if key in self._row_cache:",
    "    def fetch(self, key):\n"
    "        if self.mvcc.stale(key):\n"
    "            return self.mvcc.read(key, self._rows[key])\n"
    "        if key in self._row_cache:",
)


class TestUngatedCachePass:
    def test_ungated_fill_and_hit_fires_exactly_qa808(self):
        diags = analyze_program_sources(
            {"fixture.py": QA808_BAD}, passes=EFFECT_PASSES
        )
        assert codes(diags) == ["QA808"]
        assert "Engine.fetch" in diags[0].location.operation
        assert "_row_cache" in diags[0].message

    def test_staleness_gate_clears_it(self):
        assert all_pass_codes(QA808_OK) == []


# -- QA809: physical reclaim outside the watermark path ------------------

QA809_BAD = '''
class Store:
    def __init__(self):
        self.mvcc = VersionStore("s", on_reclaim=self._reclaim)
        self._rows = {}

    def _reclaim(self, key):
        self._rows.pop(key, None)

    def delete(self, key):
        if not self.mvcc.record_delete(key):
            self._reclaim(key)

    def evict(self, key):
        self._reclaim(key)
'''

QA809_OK = QA809_BAD.replace(
    "    def evict(self, key):\n"
    "        self._reclaim(key)",
    "    def evict(self, key):\n"
    "        if not self.mvcc.record_delete(key):\n"
    "            self._reclaim(key)",
)


class TestReclaimDisciplinePass:
    def test_reclaim_without_tombstone_consult_fires_qa809(self):
        diags = analyze_program_sources(
            {"fixture.py": QA809_BAD}, passes=EFFECT_PASSES
        )
        assert codes(diags) == ["QA809"]
        assert "Store.evict" in diags[0].location.operation

    def test_record_delete_consult_licenses_the_reclaim(self):
        assert all_pass_codes(QA809_OK) == []

    def test_the_callback_closure_itself_is_sanctioned(self):
        # _reclaim unstamps and mutates _rows with no version write:
        # as the registered on_reclaim callback it is the watermark
        # path, exempt from QA806/QA807 by construction
        diags = analyze_program_sources(
            {"fixture.py": QA809_BAD}, passes=EFFECT_PASSES
        )
        assert all(
            "_reclaim" not in d.location.operation for d in diags
        )


# -- QA810: side effects in compiled execution ---------------------------

QA810_BAD = '''
def compiled_filter(batch, engine):
    out = []
    for row in batch:
        if row.score > 0:
            engine.put(row.key, row)
            out.append(row)
    return out
'''

QA810_OK = '''
def compiled_filter(batch):
    out = []
    for row in batch:
        if row.score > 0:
            out.append(row)
    return out
'''


class TestExecEffectsPass:
    def test_write_verb_in_exec_module_fires_exactly_qa810(self):
        diags = analyze_program_sources(
            {"repro/exec/fixture.py": QA810_BAD},
            passes=EFFECT_PASSES,
        )
        assert codes(diags) == ["QA810"]
        assert "compiled_filter" in diags[0].location.operation
        assert "put" in diags[0].message

    def test_read_only_kernel_is_silent(self):
        assert (
            all_pass_codes(QA810_OK, key="repro/exec/fixture.py")
            == []
        )

    def test_same_code_outside_exec_is_not_qa810(self):
        assert (
            effect_codes(QA810_BAD, key="repro/other/fixture.py")
            == []
        )


# -- fixpoint termination on recursive call graphs -----------------------

RECURSIVE = '''
class Store:
    def __init__(self):
        self.mvcc = VersionStore("s")
        self._rows = {}

    def insert(self, key, value):
        self.mvcc.stamp(key)
        self._rows[key] = value

    def walk(self, key, depth):
        if depth == 0:
            return self.probe(key, depth)
        return self.walk(key, depth - 1)

    def probe(self, key, depth):
        if key not in self._rows:
            return self.walk(key, depth + 1)
        if self.mvcc.visible(key):
            return self.mvcc.read(key, self._rows[key])
        return None
'''

RECURSIVE_BAD = RECURSIVE.replace(
    "        if self.mvcc.visible(key):\n"
    "            return self.mvcc.read(key, self._rows[key])\n"
    "        return None",
    "        return self._rows[key]",
)


class TestFixpointTermination:
    def test_mutually_recursive_cycle_terminates_and_is_clean(self):
        # walk <-> probe form a cycle; the upward closure must reach
        # the fixpoint (both carry probe's version read) and stop
        assert all_pass_codes(RECURSIVE) == []

    def test_cycle_without_a_version_read_still_fires(self):
        diags = analyze_program_sources(
            {"fixture.py": RECURSIVE_BAD}, passes=EFFECT_PASSES
        )
        assert sorted(set(codes(diags))) == ["QA806"]
        flagged = {d.location.operation.split(":")[1] for d in diags}
        assert "Store.probe" in flagged

    def test_self_recursive_function_terminates(self):
        source = RECURSIVE.replace(
            "    def insert(self, key, value):",
            "    def spin(self, key):\n"
            "        return self.spin(key)\n"
            "\n"
            "    def insert(self, key, value):",
        )
        assert all_pass_codes(source) == []


# -- the real tree -------------------------------------------------------


class TestRealTreeEffects:
    def test_effect_passes_clean_under_committed_baseline(self):
        assert (
            analyze_program(passes=EFFECT_PASSES) == []
        )

    def test_unbaselined_effect_findings_are_the_justified_two(self):
        raw = analyze_program(baseline=None, passes=EFFECT_PASSES)
        assert sorted(d.location.operation for d in raw) == [
            "repro.rdf.triples:TripleStore._match_ids_raw",
            "repro.rdf.triples:TripleStore.lookup_term",
        ]
        assert {d.code for d in raw} == {"QA806"}
