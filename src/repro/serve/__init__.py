"""Serving subsystem: concurrent sessions, resumable cursors, servers.

The layer that turns the any-k engine into a *service*: after one
preprocessing pass, many clients page through ranked answers with
incremental delay per page and zero repeated-prefix work.

* :mod:`repro.serve.cursor` — :class:`Cursor`, a pausable/resumable
  pagination handle over a shared memoized result stream;
* :mod:`repro.serve.session` — :class:`SessionManager`: named sessions,
  LRU/TTL eviction, per-session result budgets, and the cooperative
  scheduler that time-slices concurrent enumerations;
* :mod:`repro.serve.policy` — :class:`AccessPolicy`: bearer-token auth
  and per-client token-bucket rate limiting, shared across transports;
* :mod:`repro.serve.protocol` — the JSON-lines wire protocol;
* :mod:`repro.serve.server` — the listener core (lifecycle, drain,
  edge check, tracked dispatch), the transport-agnostic op dispatcher
  (:class:`OpDispatcher`), the JSON-lines framing of the core
  (:class:`ServeServer`), and the thread-hosted harness
  (:class:`ServerThread`);
* :mod:`repro.serve.gateway` — the HTTP/1.1 + WebSocket framing of the
  same core (:class:`GatewayServer`, :class:`GatewayThread`) with
  ``/metrics`` and structured request logging;
* :mod:`repro.serve.client` — one op table under three transports: the
  blocking :class:`ServeClient`, the asyncio :class:`AsyncServeClient`,
  and the gateway-facing :class:`HttpServeClient`.

Start a server from the command line with ``python -m repro.cli serve``
(add ``--http-port`` for the gateway, ``--auth-token``/``--rate-limit``
for edge policy).
"""

from repro.serve.cursor import Cursor, CursorBudgetExceeded, fetch_all
from repro.serve.policy import AccessPolicy
from repro.serve.session import (
    CooperativeScheduler,
    FetchOutcome,
    ServeError,
    Session,
    SessionBudgetExceeded,
    SessionManager,
    UnknownCursor,
    UnknownSession,
)
from repro.serve.server import OpDispatcher, ServeServer, ServerThread
from repro.serve.gateway import GatewayServer, GatewayThread
from repro.serve.client import (
    AsyncServeClient,
    FetchPage,
    HttpServeClient,
    ServeClient,
    ServeClientError,
)

__all__ = [
    "Cursor",
    "CursorBudgetExceeded",
    "fetch_all",
    "AccessPolicy",
    "CooperativeScheduler",
    "FetchOutcome",
    "ServeError",
    "Session",
    "SessionBudgetExceeded",
    "SessionManager",
    "UnknownCursor",
    "UnknownSession",
    "OpDispatcher",
    "ServeServer",
    "ServerThread",
    "GatewayServer",
    "GatewayThread",
    "FetchPage",
    "ServeClient",
    "AsyncServeClient",
    "HttpServeClient",
    "ServeClientError",
]
