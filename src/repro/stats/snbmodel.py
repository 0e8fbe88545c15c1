"""Closed-form SNB cardinality model for static analysis.

The lint passes run without a loaded database, so they cannot ask live
statistics how big a scan would be.  This model predicts row counts at
paper scale (divisor 1) from the generator's closed-form person count
plus per-person multipliers calibrated against the generator at
SF10/divisor 1000 (seed 42); the generator is linear in the divisor, so
the ratios hold at full scale.  Dimension tables (tags, places,
organisations, tag classes) are effectively constant.
"""

from __future__ import annotations

LINT_SCALE_FACTOR = 10.0

#: rows per person, calibrated against the generator (see module docstring)
_PER_PERSON: dict[str, float] = {
    "person": 1.0,
    "knows": 25.6,  # stored both directions in the SQL schema
    "post": 7.0,
    "comment": 16.4,
    "forum": 1.4,
    "forum_member": 35.4,
    "likes": 55.1,
    "person_speaks": 2.0,
    "person_email": 1.7,
    "person_interest": 12.0,
    "person_studyat": 0.5,
    "person_workat": 0.5,
    "post_tag": 7.0,
    "comment_tag": 8.0,
    "forum_tag": 2.8,
}

#: small dimension tables: near-constant row counts
_CONSTANT: dict[str, int] = {
    "tag": 56,
    "tagclass": 20,
    "place": 101,
    "organisation": 144,
}

#: schema-catalog entity kind -> table carrying it
_ENTITY_TABLE: dict[str, str] = {
    "person": "person",
    "post": "post",
    "comment": "comment",
    "forum": "forum",
    "tag": "tag",
    "tagclass": "tagclass",
    "place": "place",
    "organisation": "organisation",
}


def person_count(scale_factor: float = LINT_SCALE_FACTOR) -> int:
    """The generator's closed-form person count at divisor 1."""
    return max(30, round(250.0 * (scale_factor / 3.0) * 1000.0))


def expected_table_rows(
    table: str, scale_factor: float = LINT_SCALE_FACTOR
) -> int | None:
    """Predicted SQL table rows at paper scale (None when unknown)."""
    name = table.lower()
    if name in _CONSTANT:
        return _CONSTANT[name]
    multiplier = _PER_PERSON.get(name)
    if multiplier is None:
        return None
    return round(multiplier * person_count(scale_factor))


def expected_entity_rows(
    entities: frozenset[str] | set[str],
    scale_factor: float = LINT_SCALE_FACTOR,
) -> int | None:
    """Predicted instances across a set of entity kinds (Cypher/Gremlin)."""
    total = 0
    known = False
    for entity in entities:
        table = _ENTITY_TABLE.get(entity.lower())
        rows = (
            expected_table_rows(table, scale_factor)
            if table is not None
            else None
        )
        if rows is not None:
            total += rows
            known = True
    return total if known else None


def format_rows(rows: int) -> str:
    """Human-scale row count for diagnostics (``~2.1M``, ``~833k``)."""
    if rows >= 1_000_000:
        return f"~{rows / 1_000_000:.1f}M"
    if rows >= 1_000:
        return f"~{rows / 1_000:.0f}k"
    return f"~{rows}"
