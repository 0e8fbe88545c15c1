"""Cost ledgers: where engines record the work they do.

Engines call the module-level :func:`charge` from arbitrarily deep code.
The harness brackets each benchmarked operation with :func:`meter`, which
pushes a fresh :class:`Ledger` onto the active stack; charges apply to
*every* ledger on the stack, so nested meters (e.g. a per-query ledger
inside a per-experiment ledger) each see the full cost.

The stack is deliberately a plain module-level list: all real execution in
this reproduction is single-threaded (concurrency is simulated), so there
is no need for thread-local state.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator, Mapping
from contextlib import contextmanager

from repro.simclock.costmodel import CostModel

_ACTIVE: list["Ledger"] = []


class Ledger:
    """An accumulator of named work counters."""

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: defaultdict[str, float] = defaultdict(float)

    def charge(self, name: str, units: float = 1.0) -> None:
        """Record ``units`` of work of kind ``name``."""
        self.counters[name] += units

    def merge(self, other: "Ledger" | Mapping[str, float]) -> None:
        """Add another ledger's counters into this one."""
        counters = other.counters if isinstance(other, Ledger) else other
        for name, units in counters.items():
            self.counters[name] += units

    def cost_us(self, model: CostModel) -> float:
        """Price this ledger under ``model``."""
        return model.cost_us(self.counters)

    def total_units(self) -> float:
        """Sum of all counter units (model-independent work volume)."""
        return sum(self.counters.values())

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy of the counters."""
        return dict(self.counters)

    def clear(self) -> None:
        self.counters.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        top = sorted(self.counters.items(), key=lambda kv: -kv[1])[:4]
        inner = ", ".join(f"{k}={v:g}" for k, v in top)
        return f"Ledger({inner}{'...' if len(self.counters) > 4 else ''})"


def charge(name: str, units: float = 1.0) -> None:
    """Charge ``units`` of counter ``name`` to every active ledger.

    A no-op when no ledger is active, so engine code can charge
    unconditionally.
    """
    for ledger in _ACTIVE:
        ledger.counters[name] += units


@contextmanager
def metered(ledger: Ledger) -> Iterator[Ledger]:
    """Make ``ledger`` active for the duration of the block."""
    _ACTIVE.append(ledger)
    try:
        yield ledger
    finally:
        _ACTIVE.remove(ledger)


@contextmanager
def meter() -> Iterator[Ledger]:
    """Create a fresh ledger and make it active for the block."""
    with metered(Ledger()) as ledger:
        yield ledger


def active_ledgers() -> int:
    """Number of ledgers currently on the stack (for tests/diagnostics)."""
    return len(_ACTIVE)
