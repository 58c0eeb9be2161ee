"""Clients for the serving layer: one op table under two transports.

The op surface — ``ping`` / ``prepare`` / ``fetch`` / ``fetch_all`` /
``explain`` / ``close_cursor`` / ``close_session`` / ``stats`` — is
written once (each request message built once, each response unpacked
once, one retry policy) and inherited by:

* :class:`ServeClient` — blocking JSON-lines client over one socket;
  used by the tests, the load benchmark, and the pagination example; it
  doubles as executable documentation of the protocol.  Requests are
  serialised per connection (the server multiplexes fairness across
  *connections*, not within one), so concurrent load is driven by
  creating one client per worker thread — or, from an event loop, by
  calling it through ``asyncio.to_thread``.
* :class:`HttpServeClient` — a thin blocking client for the HTTP
  gateway's request/response endpoints (:mod:`repro.serve.gateway`):
  an op is ``POST /v1/<op>`` (``stats``: ``GET /v1/stats``, ``ping``:
  ``GET /healthz``), plus ``healthz()``.  ``stats()`` is the document
  JSON ``GET /metrics`` serves, in the ``stats`` op's envelope.

Both accept ``token=`` and attach it to every request, matching the
server-side :class:`~repro.serve.policy.AccessPolicy`.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Callable, Iterator

from repro.serve import protocol

#: Error codes worth retrying: both are edge rejections (the request
#: never touched a cursor), so a retry cannot skip or duplicate results.
RETRYABLE_CODES = (protocol.ERR_THROTTLED, protocol.ERR_OVERLOADED)

#: Base delay for retry backoff when the server sent no Retry-After.
_RETRY_BASE_S = 0.05


class ServeClientError(Exception):
    """An ``ok: false`` response from the server.

    ``retry_after`` carries the server's hint (seconds) on throttled /
    overloaded rejections, ``None`` otherwise.
    """

    def __init__(
        self, code: str, message: str, retry_after: float | None = None
    ):
        self.code = code
        self.retry_after = retry_after
        super().__init__(f"[{code}] {message}")


def _retry_delay(exc: ServeClientError, attempt: int) -> float:
    """Server hint if present, else exponential backoff from the base."""
    if exc.retry_after is not None and exc.retry_after > 0:
        return float(exc.retry_after)
    return _RETRY_BASE_S * (2 ** attempt)


class FetchPage:
    """One fetch's worth of answers plus the cursor state after it.

    ``deadline_exceeded`` marks a partial page cut short by the fetch's
    deadline — the results present are still the next ranked answers in
    order; re-fetching resumes exactly where the page stopped.
    """

    __slots__ = (
        "results", "served", "position", "exhausted", "deadline_exceeded",
    )

    def __init__(
        self,
        results: list[dict],
        served: int,
        position: int,
        exhausted: bool,
        deadline_exceeded: bool = False,
    ):
        self.results = results
        self.served = served
        self.position = position
        self.exhausted = exhausted
        self.deadline_exceeded = deadline_exceeded

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.results)

    def __repr__(self) -> str:
        return (
            f"FetchPage({len(self.results)} results, "
            f"position={self.position}, exhausted={self.exhausted})"
        )


def _checked(message: dict) -> dict:
    """``message`` if it is an ``ok`` response; raises what it reports."""
    if not message.get("ok", False):
        raise ServeClientError(
            message.get("error", "unknown"),
            message.get("message", ""),
            retry_after=message.get("retry_after"),
        )
    return message


def _line_response(result_lines: list[bytes], final_line: bytes) -> dict:
    """A JSON-lines response in the shape the HTTP gateway gives it.

    A fetch's result lines become the terminator's ``results`` member,
    parsed by one ``json.loads`` for the whole page
    (:func:`protocol.join_results`), not one call per answer; an error
    terminator raises, whatever arrived before it.
    """
    response = _checked(protocol.decode(final_line))
    if response.get("op") == "fetch":
        response["results"] = json.loads(protocol.join_results(result_lines))
    return response


def _page(response: dict) -> FetchPage:
    return FetchPage(
        response["results"],
        response["served"],
        response["position"],
        response["exhausted"],
        deadline_exceeded=response.get("deadline_exceeded", False),
    )


#: What each op's method returns, from the op's checked response.
_UNPACK: dict[str, Callable[[dict], Any]] = {
    "ping": lambda response: response["ok"],
    "prepare": lambda response: response,
    "fetch": _page,
    "explain": lambda response: response["plan"],
    "close": lambda response: None,
    "stats": lambda response: response["stats"],
}


class _BlockingClient:
    """The op surface of both clients, written once, over a transport's
    ``_open(timeout)`` and ``_exchange(message)``.

    Each op method builds its request message and hands it to
    ``_call``, which sends it (retrying edge rejections) and returns
    what :data:`_UNPACK` makes of the response.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        token: str | None = None,
        retries: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.host = host
        self.port = port
        self.token = token
        #: Extra attempts on throttled/overloaded rejections (0 = raise
        #: immediately).  Retries honour the server's ``retry_after``
        #: (over HTTP, its ``Retry-After`` header).
        self.retries = retries
        self._sleep = sleep
        self._open(timeout)

    def _with_retries(self, attempt_fn: Callable[[], dict]) -> dict:
        """Run ``attempt_fn``, retrying edge rejections up to ``retries``."""
        for attempt in range(self.retries + 1):
            try:
                return attempt_fn()
            except ServeClientError as exc:
                if exc.code not in RETRYABLE_CODES or attempt == self.retries:
                    raise
                self._sleep(_retry_delay(exc, attempt))

    def _call(self, message: dict) -> Any:
        response = self._with_retries(lambda: self._exchange(message))
        return _UNPACK[message["op"]](response)

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def ping(self) -> bool:
        return self._call({"op": "ping"})

    def prepare(
        self,
        session: str,
        query: str,
        algorithm: str = "take2",
        dioid: str = "tropical",
        projection: str = "all_weight",
        budget: int | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        """Open a cursor for ``query`` in ``session``; returns the
        response (``cursor``, ``strategy``, ``algorithm``).

        ``deadline_ms`` becomes the cursor's default per-fetch deadline
        (each fetch's countdown starts when that fetch begins).
        """
        message: dict[str, Any] = {
            "op": "prepare",
            "session": session,
            "query": query,
            "algorithm": algorithm,
            "dioid": dioid,
            "projection": projection,
        }
        if budget is not None:
            message["budget"] = budget
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        return self._call(message)

    def fetch(
        self,
        session: str,
        cursor: str,
        n: int = 10,
        deadline_ms: float | None = None,
    ) -> FetchPage:
        """The next ``n`` ranked answers of a cursor (may be fewer).

        ``deadline_ms`` bounds this fetch; at expiry the server returns
        the partial page with ``deadline_exceeded`` set.
        """
        message: dict[str, Any] = {
            "op": "fetch", "session": session, "cursor": cursor, "n": n,
        }
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        return self._call(message)

    def fetch_all(
        self, session: str, cursor: str, page_size: int = 64
    ) -> list[dict]:
        """Paginate a cursor to exhaustion (test/bench convenience)."""
        out: list[dict] = []
        while True:
            page = self.fetch(session, cursor, page_size)
            out.extend(page.results)
            if page.exhausted or page.served == 0:
                return out

    def explain(self, session: str, cursor: str) -> str:
        return self._call({"op": "explain", "session": session, "cursor": cursor})

    def close_cursor(self, session: str, cursor: str) -> None:
        return self._call({"op": "close", "session": session, "cursor": cursor})

    def close_session(self, session: str) -> None:
        return self._call({"op": "close", "session": session})

    def stats(self) -> dict:
        return self._call({"op": "stats"})

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.host}:{self.port})"


class ServeClient(_BlockingClient):
    """Blocking JSON-lines client: ``prepare`` / ``fetch`` / ``explain`` /
    ``close`` plus ``stats`` and ``ping``."""

    def _open(self, timeout: float) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=timeout
        )
        self._file = self._sock.makefile("rwb")

    def _send(self, message: dict) -> None:
        if self.token is not None and "token" not in message:
            message = {**message, "token": self.token}
        self._file.write(protocol.encode(message))
        self._file.flush()

    def _read_line(self) -> bytes:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def _read(self) -> dict:
        return protocol.decode(self._read_line())

    def _exchange(self, message: dict) -> dict:
        self._send(message)
        lines: list[bytes] = []
        while (line := self._read_line()).startswith(protocol.RESULT_PREFIX):
            lines.append(line)
        return _line_response(lines, line)

    def request(self, message: dict) -> dict:
        """Send one request, return its checked response."""
        return self._with_retries(lambda: self._exchange(message))

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


#: Ops the gateway serves elsewhere than ``POST /v1/<op>``.
_HTTP_ROUTES = {"ping": ("GET", "/healthz"), "stats": ("GET", "/v1/stats")}


class HttpServeClient(_BlockingClient):
    """A blocking client for the HTTP gateway's JSON endpoints.

    Thin by design — the gateway's request/response bodies *are* the
    wire protocol's messages, so this is mostly URL plumbing plus
    bearer-token headers.  Raises :class:`ServeClientError` carrying
    the protocol error code on any non-2xx response, mirroring the
    JSON-lines clients.
    """

    def _open(self, timeout: float) -> None:
        self._conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )

    def request(self, method: str, path: str, payload: dict | None = None) -> dict:
        """One HTTP round trip; returns the decoded JSON body."""
        return self._with_retries(
            lambda: self._request_once(method, path, payload)
        )

    def _exchange(self, message: dict) -> dict:
        fields = dict(message)
        op = fields.pop("op")
        method, path = _HTTP_ROUTES.get(op, ("POST", f"/v1/{op}"))
        return self._request_once(
            method, path, fields if method == "POST" else None
        )

    def _request_once(
        self, method: str, path: str, payload: dict | None
    ) -> dict:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        retry_header = response.getheader("Retry-After")
        decoded = json.loads(response.read().decode("utf-8"))
        if response.status >= 400:
            decoded = {
                "error": f"http_{response.status}", **decoded, "ok": False,
            }
        if decoded.get("retry_after") is None and retry_header is not None:
            try:
                decoded["retry_after"] = float(retry_header)
            except ValueError:
                pass
        return _checked(decoded)

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")

    def close(self) -> None:
        self._conn.close()
