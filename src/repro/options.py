"""The engine modes every system under test must agree on.

A connector owns one :class:`EngineOptions` and hands that same object to
every engine-like thing it builds (database facade, Gremlin server), so
a mode set on the connector cannot fail to reach one of them: there is
nothing to forward.
"""

from __future__ import annotations

from repro.txn.oracle import check_isolation_level

#: execution modes every facade accepts
EXECUTION_MODES = ("interpreted", "compiled")


class EngineOptions:
    """Mutable, validated on assignment; a rejected value changes nothing.

    ``execution_mode``: engines default to ``compiled``; the paper-figure
    harnesses pin ``interpreted`` because the 2015-era systems under test
    ran classic tuple-at-a-time interpreters.

    ``isolation_level``: ``snapshot`` (readers run against an immutable
    MVCC view and never take or wait on locks) or ``read-committed``
    (reads see the latest committed state).
    """

    __slots__ = ("execution_mode", "isolation_level")

    def __init__(
        self,
        execution_mode: str = "compiled",
        isolation_level: str = "snapshot",
    ) -> None:
        self.execution_mode = execution_mode
        self.isolation_level = isolation_level

    def __setattr__(self, name: str, value: str) -> None:
        if name == "execution_mode":
            if value not in EXECUTION_MODES:
                raise ValueError(f"unknown execution mode: {value!r}")
        elif name == "isolation_level":
            check_isolation_level(value)
        super().__setattr__(name, value)
