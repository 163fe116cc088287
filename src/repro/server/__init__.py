"""Serving front-end: the wire protocol, the thread-per-connection
serving core, its database-server role, and the client library (see
DESIGN.md §5d and the README's "Serving" section).

Quickstart::

    from repro.server import ReproClient, ReproServer

    with ReproServer() as server:                # picks a free port
        with ReproClient(*server.address) as client:
            client.execute("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1)")
            print(client.select("t"))

Or from the command line: ``python -m repro serve --port 7654``.
"""

from .client import (
    DeliveryUnknown,
    ReproClient,
    ServerError,
    TransactionTorn,
    decorrelated_backoff,
)
from .ledger import LedgerError, ResultLedger
from .server import Overloaded, ReproServer
from .wire import WireError

__all__ = [
    "DeliveryUnknown",
    "decorrelated_backoff",
    "LedgerError",
    "Overloaded",
    "ReproClient",
    "ReproServer",
    "ResultLedger",
    "ServerError",
    "TransactionTorn",
    "WireError",
]
