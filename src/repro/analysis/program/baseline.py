"""The committed clean-baseline suppression file.

`repro lint --program` must be green on today's tree so CI can fail on
*new* diagnostics only.  Findings that are judged-and-justified design
decisions (e.g. a page-granular write below the record layer's trace
point) are recorded here rather than silenced in code: every entry
carries a justification string, and entries that stop matching
anything are reported so the baseline shrinks as the tree improves.

Format (JSON)::

    {"version": 1,
     "entries": [{"code": "QA804",
                  "location": "repro.storage.buffer:DiskManager.write",
                  "justification": "..."}]}

``location`` is matched with :func:`fnmatch.fnmatch` against the
diagnostic's ``module:Class.method`` operation string, so one entry
can cover a package (``repro.storage.*``).
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic

#: the committed baseline shipped next to this module
DEFAULT_BASELINE_PATH = Path(__file__).with_name("clean_baseline.json")


@dataclass(frozen=True)
class BaselineEntry:
    code: str
    location: str  # fnmatch pattern over "module:Class.method"
    justification: str

    def matches(self, diagnostic: Diagnostic) -> bool:
        return diagnostic.code == self.code and fnmatch(
            diagnostic.location.operation, self.location
        )

    def names_module_in(self, modules: Iterable[str]) -> bool:
        """Whether the module part of the pattern matches any of
        ``modules``."""
        module = self.location.partition(":")[0]
        return any(fnmatch(name, module) for name in modules)


def load_baseline(path: str | Path) -> list[BaselineEntry]:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = []
    for row in raw.get("entries", []):
        entry = BaselineEntry(
            code=row["code"],
            location=row["location"],
            justification=row["justification"],
        )
        if not entry.justification.strip():
            raise ValueError(
                f"baseline entry {entry.code} {entry.location!r} "
                f"has no justification"
            )
        entries.append(entry)
    return entries


def unresolvable_entries(
    entries: list[BaselineEntry],
    function_refs: set[str],
) -> list[BaselineEntry]:
    """Entries whose location pattern no longer names anything real.

    An entry *resolves* when its pattern matches some function ref in
    the analyzed program, or — for the attribute-shaped QA805
    locations (``module:Class.attr``) — when the ``module:Class`` part
    matches a class that still has members.  Anything else is a
    leftover from renamed or deleted code and must be pruned, not
    silently kept: a pattern that matches nothing today could match a
    *new* finding tomorrow and suppress it unreviewed.
    """
    class_prefixes = {
        ref.rsplit(".", 1)[0]
        for ref in function_refs
        if "." in ref.partition(":")[2]
    }
    out: list[BaselineEntry] = []
    for entry in entries:
        if any(fnmatch(ref, entry.location) for ref in function_refs):
            continue
        # rpartition leaves the whole pattern when it has no colon
        # (a leading wildcard may cover the module:Class part)
        tail = entry.location.rpartition(":")[2]
        prefix = entry.location.rsplit(".", 1)[0]
        if "." in tail and any(
            fnmatch(cls, prefix) for cls in class_prefixes
        ):
            continue
        out.append(entry)
    return out


def apply_baseline(
    diagnostics: list[Diagnostic],
    entries: list[BaselineEntry],
) -> tuple[list[Diagnostic], int, list[BaselineEntry]]:
    """(kept diagnostics, suppressed count, entries that matched
    nothing — stale, candidates for deletion)."""
    used: set[BaselineEntry] = set()
    kept: list[Diagnostic] = []
    suppressed = 0
    for diagnostic in diagnostics:
        matched = False
        for entry in entries:
            if entry.matches(diagnostic):
                used.add(entry)
                matched = True
        if matched:
            suppressed += 1
        else:
            kept.append(diagnostic)
    stale = [entry for entry in entries if entry not in used]
    return kept, suppressed, stale
