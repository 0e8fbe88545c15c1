"""One ``EngineOptions`` per connector, shared by identity.

The gate for ROADMAP queue item 1: a mode set on a connector cannot fail
to reach one of its engines, because every engine-like object the
connector builds (database facade, Gremlin server) holds the connector's
own options object.  The single exception is named here so the
follow-up that removes it must also edit this file.
"""

from collections import deque

import pytest

from repro.core import SUT_KEYS, make_connector
from repro.options import EngineOptions

#: trajectory finding 5: sqlg's backing Database keeps private options
#: (its per-step SQL stays compiled under ``interpreted``) until a
#: benchmark PR unpins benchmarks/trajectory/test_smoke.py
SQLG_EXCEPTION = ".provider.db"


def _options_holders(root):
    """``(path, obj)`` for every repro object that carries an
    ``EngineOptions``, reachable from ``root`` via attributes and lists."""
    found, seen, queue = [], set(), deque([("connector", root)])
    while queue:  # breadth-first: each object is named by a shortest path
        path, obj = queue.popleft()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple)):
            queue.extend(
                (f"{path}[{i}]", item) for i, item in enumerate(obj)
            )
            continue
        module = type(obj).__module__
        if not module.startswith("repro.") or module.startswith("repro.snb"):
            continue
        if isinstance(getattr(obj, "options", None), EngineOptions):
            found.append((path, obj))
        queue.extend(
            (f"{path}.{name}", value)
            for name, value in getattr(obj, "__dict__", {}).items()
        )
    return found


def _strays(connector):
    """Paths whose options object is not the connector's own."""
    holders = _options_holders(connector)
    assert len(holders) >= 2  # the connector and at least one engine
    return sorted(
        path for path, obj in holders if obj.options is not connector.options
    )


@pytest.mark.parametrize("key", SUT_KEYS)
def test_every_engine_holds_the_connectors_options(key):
    options = EngineOptions()
    connector = make_connector(key, options=options)
    assert connector.options is options
    expected = ["connector" + SQLG_EXCEPTION] if key == "sqlg" else []
    assert _strays(connector) == expected


def test_sqlg_private_options_follow_the_isolation_level():
    built = make_connector(
        "sqlg", options=EngineOptions(isolation_level="read-committed")
    )
    assert built.provider.db.options.isolation_level == "read-committed"
    built.set_isolation_level("snapshot")
    assert built.provider.db.options.isolation_level == "snapshot"
    # the pinned leak: the execution mode stops at the Gremlin server
    built.set_execution_mode("interpreted")
    assert built.server.options.execution_mode == "interpreted"
    assert built.provider.db.options.execution_mode == "compiled"


def test_options_reject_unknown_values():
    with pytest.raises(ValueError, match="unknown execution mode"):
        EngineOptions(execution_mode="jit")
    with pytest.raises(ValueError, match="unknown isolation level"):
        EngineOptions(isolation_level="chaos")
    with pytest.raises(AttributeError):
        EngineOptions().caching = True  # the two knobs are the two fields


@pytest.mark.parametrize("key", SUT_KEYS)
def test_rejected_value_leaves_the_previous_one(key):
    connector = make_connector(key)
    connector.set_execution_mode("interpreted")
    connector.set_isolation_level("read-committed")
    with pytest.raises(ValueError, match="unknown execution mode"):
        connector.set_execution_mode("jit")
    with pytest.raises(ValueError, match="unknown isolation level"):
        connector.set_isolation_level("chaos")
    assert connector.options.execution_mode == "interpreted"
    assert connector.options.isolation_level == "read-committed"
    if key == "sqlg":
        private = connector.provider.db.options
        assert private.isolation_level == "read-committed"
