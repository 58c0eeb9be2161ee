"""The server process the serving workloads drive.

Started by :class:`benchmarks.e2e.serverproc.ServerChild` as::

    python -m benchmarks.e2e.server_child <path to the SQLite file>

It receives the generated SQLite path and nothing else — no seed, no
workload name — and deploys what ``repro serve --http-port`` deploys: a
``ServeServer`` and a ``GatewayServer`` over one ``SessionManager`` and
one ``AccessPolicy`` (bearer token, a rate limit far above the load),
both on port 0.  It talks to its parent over its standard streams, one
JSON object per line:

* first line out: ``{"tcp": [host, port], "http": [host, port]}``;
* ``usage`` in  → ``{"cpu_s": ..., "max_rss_kb": ...}`` out;
* ``stop`` (or end of input) in → servers stop, engine closes, one last
  usage line out, exit 0.
"""

from __future__ import annotations

import asyncio
import json
import logging
import resource
import sys
import threading
import time

from repro.data.backend import SQLiteBackend
from repro.engine import Engine
from repro.serve.gateway import GatewayServer
from repro.serve.policy import AccessPolicy
from repro.serve.server import ServeServer

#: Bearer token both sides know; the benchmark's, not a secret.
TOKEN = "e2e-bench-token"
#: Requests/second the edge admits per client: far above one closed loop.
RATE_LIMIT = 1_000_000.0


def _usage() -> dict:
    return {
        "cpu_s": time.process_time(),
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _control(loop: asyncio.AbstractEventLoop, stop: asyncio.Event) -> None:
    """Answer ``usage`` lines until ``stop`` or end of input."""
    for line in sys.stdin:
        if line.strip() == "usage":
            _emit(_usage())
        else:
            break
    loop.call_soon_threadsafe(stop.set)


async def _serve(engine: Engine) -> None:
    policy = AccessPolicy(auth_token=TOKEN, rate_limit=RATE_LIMIT)
    server = ServeServer(engine, port=0, policy=policy)
    gateway = GatewayServer(
        engine, port=0, manager=server.manager, policy=policy
    )
    stop = asyncio.Event()
    tcp = await server.start()
    http = await gateway.start()
    _emit({"tcp": list(tcp), "http": list(http)})
    threading.Thread(
        target=_control,
        args=(asyncio.get_running_loop(), stop),
        name="e2e-control",
        daemon=True,
    ).start()
    await stop.wait()
    await gateway.stop(close_sessions=False)
    await server.stop()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: server_child <sqlite path>", file=sys.stderr)
        return 2
    # As `repro serve` configures it: the gateway's access log is part of
    # the deployed cost.  The parent points stderr at a file.
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    engine = Engine.from_backend(SQLiteBackend(argv[0]), core_cache="auto")
    try:
        engine.warm_start()
        asyncio.run(_serve(engine))
    finally:
        engine.close()
    _emit(_usage())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
