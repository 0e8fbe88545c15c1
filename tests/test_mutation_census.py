"""The mutation census stays re-runnable.

``tests/mutation_census.py`` plants each mutant by replacing a text
that must occur exactly once in its file (DESIGN.md §14).  An edit that
moves, duplicates or deletes such a text silently retires the mutant;
this test names it instead, so the census row is updated with the edit.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "mutation_census", ROOT / "tests" / "mutation_census.py"
)
census = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = census  # dataclasses look their module up
_spec.loader.exec_module(census)


@pytest.mark.parametrize("mutant", census.MUTANTS, ids=lambda m: m.id)
def test_old_text_occurs_exactly_once(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.old != mutant.new


def test_the_catalog_check_can_be_switched_off():
    path, old, _ = census.CATALOG_CHECK
    assert (ROOT / path).read_text().count(old) == 1


def test_mutant_ids_are_unique():
    ids = [mutant.id for mutant in census.MUTANTS]
    assert len(ids) == len(set(ids))
