"""The serving edge, once: typed request fields, the HTTP rewind, and
the two clients' one op surface and one retry policy.

What the folded serving stack promises and the per-transport suites do
not check: a mistyped field is the same ``bad_request`` on TCP, HTTP and
WebSocket (and never opens the circuit breaker); an HTTP page whose
response cannot be sent is taken back like a TCP slice; every client
has the same op methods, sends the requests it always sent, and retries
edge rejections the same way.
"""

from __future__ import annotations

import asyncio
import inspect
import json

import pytest

from repro.data.generators import uniform_database
from repro.engine import Engine
from repro.serve import (
    AccessPolicy,
    GatewayServer,
    GatewayThread,
    HttpServeClient,
    ServeClient,
    ServeClientError,
    ServerThread,
)
from repro.util import faults
from repro.util.resilience import CircuitBreaker
from tests.test_gateway import _SyncWsClient
from tests.test_wire_golden import _RecordingTransport

QUERY = "Q(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)"
TRANSPORTS = ("tcp", "http")


@pytest.fixture(scope="module")
def engine():
    engine = Engine(uniform_database(3, 40, domain_size=5, seed=9))
    yield engine
    engine.close()


# -- typed request fields --------------------------------------------------------


def _error_code(transport: str, addresses: dict, message: dict) -> str | None:
    """The error code ``message`` is answered with (None = accepted)."""
    if transport == "ws":
        ws = _SyncWsClient(*addresses["http"])
        try:
            ws.send(message)
            return ws.recv().get("error")
        finally:
            ws.close()
    try:
        if transport == "tcp":
            with ServeClient(*addresses["tcp"]) as client:
                client.request(message)
        else:
            fields = {k: v for k, v in message.items() if k != "op"}
            with HttpServeClient(*addresses["http"]) as client:
                client.request("POST", f"/v1/{message['op']}", fields)
    except ServeClientError as exc:
        return exc.code
    return None


class TestTypedFields:
    @pytest.fixture(scope="class")
    def addresses(self, engine):
        with ServerThread(engine) as tcp, GatewayThread(
            engine, log_requests=False
        ) as http:
            yield {"tcp": tcp, "http": http}

    def test_mistyped_prepares_do_not_open_the_breaker(self, engine):
        """Regression: ``"query": 5`` reached the planner, was answered
        ``internal`` and counted as a server failure — three such lines
        and every other client's prepare was shed for 30 s."""
        policy = AccessPolicy(breaker=CircuitBreaker(failure_threshold=3))
        with ServerThread(engine, policy=policy) as address:
            with ServeClient(*address) as hostile, ServeClient(*address) as other:
                for _ in range(3):
                    with pytest.raises(ServeClientError, match="bad_request"):
                        hostile.request(
                            {"op": "prepare", "session": "x", "query": 5}
                        )
                assert other.prepare("y", QUERY)["ok"]
        assert policy.breaker.state == CircuitBreaker.CLOSED
        assert policy.shed.value == 0

    @pytest.mark.parametrize("transport", ["tcp", "http", "ws"])
    @pytest.mark.parametrize(
        "op, field, value",
        [
            ("prepare", "session", ["a"]),
            ("prepare", "query", 5),
            ("prepare", "algorithm", 7),
            ("prepare", "projection", None),
            ("prepare", "budget", True),
            ("prepare", "budget", "abc"),
            ("prepare", "budget", 2.5),
            ("prepare", "budget", -3),
            ("fetch", "cursor", 0),
            ("close", "session", {"name": "typed"}),
        ],
    )
    def test_bad_field_is_bad_request_everywhere(
        self, addresses, transport, op, field, value
    ):
        message = {
            "op": op, "session": "typed", "query": QUERY, "cursor": "c0",
            field: value,
        }
        assert _error_code(transport, addresses, message) == "bad_request"

    @pytest.mark.parametrize("transport", ["tcp", "http", "ws"])
    @pytest.mark.parametrize("budget", [None, 0, 5])
    def test_null_and_non_negative_budgets_prepare(
        self, addresses, transport, budget
    ):
        message = {
            "op": "prepare", "session": "typed", "query": QUERY, "budget": budget,
        }
        assert _error_code(transport, addresses, message) is None


# -- removed wire fields ------------------------------------------------------------


class TestRemovedShardFields:
    """``shards``, ``shard_tie_break``, ``shard_parallel`` and
    ``shard_strategy`` are not wire fields: a prepare from a client that
    still sends them, with any value, is served as if they were absent."""

    @pytest.fixture(scope="class")
    def addresses(self, engine):
        with ServerThread(engine) as tcp, GatewayThread(
            engine, log_requests=False
        ) as http:
            yield {"tcp": tcp, "http": http}

    @staticmethod
    def _serve_ws(addresses: dict, message: dict):
        ws = _SyncWsClient(*addresses["http"])
        try:
            ws.send({"op": "prepare", **message})
            response = ws.recv()
            cursor = response.pop("cursor")
            pages = []
            for _ in range(3):
                ws.send(
                    {"op": "fetch", "session": message["session"],
                     "cursor": cursor, "n": 7}
                )
                rows = []
                while "result" in (frame := ws.recv()):
                    rows.append(frame["result"])
                pages.append(rows)
        finally:
            ws.close()
        return response, pages

    @classmethod
    def _serve(cls, transport: str, addresses: dict, message: dict):
        """``message``'s prepare response (no cursor id) and three pages."""
        if transport == "ws":
            return cls._serve_ws(addresses, message)
        if transport == "tcp":
            client = ServeClient(*addresses["tcp"])
            response = client.request({"op": "prepare", **message})
        else:
            client = HttpServeClient(*addresses["http"])
            response = client.request("POST", "/v1/prepare", message)
        with client:
            cursor = response.pop("cursor")
            pages = [
                client.fetch(message["session"], cursor, 7).results
                for _ in range(3)
            ]
        return response, pages

    @pytest.mark.parametrize("transport", ["tcp", "http", "ws"])
    @pytest.mark.parametrize(
        "stale",
        [
            {"shard_parallel": "process"},
            {"shard_parallel": "thread", "shard_strategy": "hash"},
            {"shard_parallel": 5, "shard_strategy": ["range"]},
            {"shards": 2},
            {"shards": 0},
            {"shards": True},
            {"shard_tie_break": "canonical"},
        ],
    )
    def test_stale_fields_get_the_same_pages(self, addresses, transport, stale):
        plain = {"session": f"plain-{transport}", "query": QUERY}
        response, pages = self._serve(transport, addresses, plain)
        assert sum(map(len, pages)) == 21
        carried = {**plain, "session": f"stale-{transport}", **stale}
        stale_response, stale_pages = self._serve(transport, addresses, carried)
        assert stale_pages == pages
        assert {**stale_response, "session": None} == {**response, "session": None}


# -- stats: one answer on every transport ----------------------------------------


def test_stats_has_the_edge_block_on_every_transport(engine):
    """Regression: ``GET /v1/stats`` lacked the connection, request and
    policy numbers the TCP ``stats`` op returns."""
    policy = AccessPolicy(rate_limit=1000.0)
    with ServerThread(engine, policy=policy) as tcp, GatewayThread(
        engine, policy=policy, log_requests=False
    ) as http:
        with ServeClient(*tcp) as client:
            over_tcp = client.stats()
        with HttpServeClient(*http) as client:
            over_http = client.stats()
        ws = _SyncWsClient(*http)
        ws.send({"op": "stats"})
        over_ws = ws.recv()["stats"]
        ws.close()
    assert set(over_tcp) == set(over_http) == set(over_ws)
    assert set(over_http["metrics"]) == set(over_ws["metrics"])
    for stats, door in (
        (over_tcp, "server"), (over_http, "gateway"), (over_ws, "gateway")
    ):
        metrics = stats["metrics"]
        requests = "http_requests" if door == "gateway" else "requests"
        assert metrics[f"repro_{door}_connections_total"] >= 1
        assert metrics[f"repro_{door}_{requests}_total"] >= 1
        assert metrics["repro_policy_rate_limit"] == 1000.0


# -- the HTTP rewind -------------------------------------------------------------


def _http_request(path: str, fields: dict) -> bytes:
    body = json.dumps(fields).encode()
    return (
        f"POST {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


class _InterruptedTransport(_RecordingTransport):
    """Runs ``before_failure`` when the write that fails arrives."""

    before_failure = staticmethod(lambda: None)

    def write(self, data) -> None:
        if len(self.writes) == self.fail_after:
            self.before_failure()
        super().write(data)


def _serve_http(gateway: GatewayServer, requests: list[bytes], transport) -> None:
    """Run the gateway's connection handler over ``transport`` to EOF."""
    async def run() -> None:
        reader = asyncio.StreamReader()
        stream_protocol = asyncio.StreamReaderProtocol(reader)
        transport.protocol = stream_protocol
        stream_protocol.connection_made(transport)
        writer = asyncio.StreamWriter(
            transport, stream_protocol, reader, asyncio.get_running_loop()
        )
        reader.feed_data(b"".join(requests))
        reader.feed_eof()
        await gateway._handle_connection(reader, writer)

    asyncio.run(run())


class TestHttpRewind:
    """Regression: an HTTP page is buffered and sent after dispatch has
    returned, so a response that could not be sent used to leave the
    cursor advanced and the session budget spent."""

    PAGE = [
        _http_request("/v1/prepare", {"session": "rw", "query": QUERY}),
        _http_request("/v1/fetch", {"session": "rw", "cursor": "c0", "n": 50}),
    ]

    @pytest.fixture
    def gateway(self, engine):
        return GatewayServer(engine, log_requests=False)

    def test_failed_response_rewinds_the_page(self, gateway):
        transport = _RecordingTransport(fail_after=1)  # the prepare goes out
        _serve_http(gateway, self.PAGE, transport)
        assert len(transport.writes) == 1
        manager = gateway.manager
        assert manager.cursor("rw", "c0").position == 0
        assert manager.session("rw").served == 0
        # A successor on a healthy connection gets the very same page.
        healthy = _RecordingTransport()
        _serve_http(gateway, self.PAGE[1:], healthy)
        (response,) = healthy.writes
        page = json.loads(response.split(b"\r\n\r\n", 1)[1])
        assert [r["index"] for r in page["results"]] == list(range(50))
        assert manager.session("rw").served == 50

    def test_concurrent_reader_is_not_rolled_back(self, gateway):
        transport = _InterruptedTransport(fail_after=1)
        # Another reader of the cursor moves it on between the fetch and
        # its (failing) response.
        transport.before_failure = lambda: gateway.manager.fetch("rw", "c0", 5)
        _serve_http(gateway, self.PAGE, transport)
        assert gateway.manager.cursor("rw", "c0").position == 55
        assert gateway.manager.session("rw").served == 55

    def test_gateway_write_fault_rewinds_too(self, gateway):
        healthy = _RecordingTransport()
        # The first arrival is the prepare's response, the second the page's.
        with faults.injected("gateway.write=raise:2:1:reset"):
            _serve_http(gateway, self.PAGE, healthy)
        assert len(healthy.writes) == 1
        assert gateway.manager.cursor("rw", "c0").position == 0
        assert gateway.manager.session("rw").served == 0


# -- one op surface --------------------------------------------------------------

OP_METHODS = (
    "ping", "prepare", "fetch", "fetch_all", "explain", "close_cursor",
    "close_session", "stats",
)

#: (method, args, kwargs) → the JSON-lines request and the HTTP request
#: the clients sent for it on the seed (token ``t``).  One entry differs
#: from the seed, by design: ``HttpServeClient.prepare`` took ``**fields``
#: and sent only what it was given; it now spells out the three defaults
#: the JSON-lines clients always sent (the server's defaults are the same).
REQUESTS = [
    (
        ("prepare", ("s", QUERY), {}),
        {"op": "prepare", "session": "s", "query": QUERY, "algorithm": "take2",
         "dioid": "tropical", "projection": "all_weight"},
        ("POST", "/v1/prepare"),
    ),
    (
        ("prepare", ("s", QUERY), dict(
            algorithm="recursive", dioid="tropical", projection="all_weight",
            budget=9, deadline_ms=250.0,
        )),
        {"op": "prepare", "session": "s", "query": QUERY,
         "algorithm": "recursive", "dioid": "tropical",
         "projection": "all_weight", "budget": 9, "deadline_ms": 250.0},
        ("POST", "/v1/prepare"),
    ),
    (
        ("fetch", ("s", "c0", 7), {}),
        {"op": "fetch", "session": "s", "cursor": "c0", "n": 7},
        ("POST", "/v1/fetch"),
    ),
    (
        ("fetch", ("s", "c0"), dict(deadline_ms=50)),
        {"op": "fetch", "session": "s", "cursor": "c0", "n": 10,
         "deadline_ms": 50},
        ("POST", "/v1/fetch"),
    ),
    (
        ("explain", ("s", "c0"), {}),
        {"op": "explain", "session": "s", "cursor": "c0"},
        ("POST", "/v1/explain"),
    ),
    (("stats", (), {}), {"op": "stats"}, ("GET", "/v1/stats")),
    (
        ("close_cursor", ("s", "c1"), {}),
        {"op": "close", "session": "s", "cursor": "c1"},
        ("POST", "/v1/close"),
    ),
    (
        ("close_session", ("s",), {}),
        {"op": "close", "session": "s"},
        ("POST", "/v1/close"),
    ),
    (("ping", (), {}), {"op": "ping"}, ("GET", "/healthz")),
]


class _Tap:
    """A stream that records what is written to it, then writes it."""

    def __init__(self, inner, log: list):
        self._inner, self._log = inner, log

    def write(self, data):
        self._log.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestOneOpSurface:
    def test_every_op_method_has_one_signature(self):
        for name in OP_METHODS:
            signatures = {
                str(inspect.signature(getattr(cls, name)))
                for cls in (ServeClient, HttpServeClient)
            }
            assert len(signatures) == 1, (name, signatures)

    @pytest.fixture(scope="class")
    def guarded(self, engine):
        policy = AccessPolicy(auth_token="t")
        with ServerThread(engine, policy=policy) as tcp, GatewayThread(
            engine, policy=policy, log_requests=False
        ) as http:
            yield {"tcp": tcp, "http": http}

    @staticmethod
    def _line(message: dict) -> bytes:
        # Compact JSON, the token last: what the seed's clients wrote.
        return json.dumps(
            {**message, "token": "t"}, separators=(",", ":")
        ).encode() + b"\n"

    def test_blocking_client_sends_what_it_always_sent(self, guarded):
        sent: list[bytes] = []
        with ServeClient(*guarded["tcp"], token="t") as client:
            client._file = _Tap(client._file, sent)
            for (name, args, kwargs), _message, _route in REQUESTS:
                getattr(client, name)(*args, **kwargs)
        assert sent == [self._line(message) for _call, message, _r in REQUESTS]

    def test_http_client_sends_the_same_messages_to_its_routes(self, guarded):
        sent: list[tuple] = []
        with HttpServeClient(*guarded["http"], token="t") as client:
            send = client._conn.request

            def request(method, path, body=None, headers=None):
                sent.append((method, path, body, headers))
                return send(method, path, body=body, headers=headers)

            client._conn.request = request
            for (name, args, kwargs), _message, _route in REQUESTS:
                getattr(client, name)(*args, **kwargs)
        expected = []
        for _call, message, (method, path) in REQUESTS:
            headers = {"Authorization": "Bearer t"}
            body = None
            if method == "POST":
                fields = {k: v for k, v in message.items() if k != "op"}
                body = json.dumps(fields).encode()
                headers = {"Content-Type": "application/json", **headers}
            expected.append((method, path, body, headers))
        assert sent == expected


# -- one retry policy ------------------------------------------------------------


class _FakeTime:
    """A clock that only a (recorded) sleep advances."""

    def __init__(self):
        self.now = 0.0
        self.sleeps: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


def _run_calls(transport, addresses, time, retries, calls):
    """Make ``calls`` — ``(method, args)`` pairs — on one client of
    ``transport`` whose sleeps go to ``time``; the last call's result."""
    cls, address = (
        (ServeClient, addresses["tcp"])
        if transport == "tcp"
        else (HttpServeClient, addresses["http"])
    )
    with cls(*address, retries=retries, sleep=time.sleep) as client:
        for name, args in calls:
            result = getattr(client, name)(*args)
        return result


#: The first ``stats`` takes the bucket's one token.
TWO_STATS = [("stats", ()), ("stats", ())]


class TestOneRetryPolicy:
    @pytest.fixture
    def time(self):
        return _FakeTime()

    @pytest.fixture
    def deployment(self, engine, time):
        """Both front doors behind one policy on the fake clock: one
        request per second per client, a breaker that one failure trips."""
        policy = AccessPolicy(
            rate_limit=1.0,
            burst=1,
            clock=time.clock,
            breaker=CircuitBreaker(
                failure_threshold=1, reset_timeout=30.0, clock=time.clock
            ),
        )
        with ServerThread(engine, policy=policy) as tcp, GatewayThread(
            engine, policy=policy, log_requests=False
        ) as http:
            yield {"tcp": tcp, "http": http, "policy": policy}

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_throttled_is_retried_with_backoff(
        self, deployment, time, transport
    ):
        if transport == "http":
            # The gateway's 429 carries Retry-After (whole seconds, at
            # least 1): the hint is honoured and one wait is enough.
            stats = _run_calls(
                transport, deployment, time, 3, TWO_STATS
            )
            assert stats["metrics"]["repro_policy_throttled_total"] == 1
            assert time.sleeps == [1.0]
            return
        # A JSON-lines ``throttled`` has no hint: exponential backoff
        # from 50 ms, which never refills a 1 req/s bucket — the client
        # gives up after ``retries`` extra attempts.
        with pytest.raises(ServeClientError, match="throttled"):
            _run_calls(transport, deployment, time, 3, TWO_STATS)
        assert time.sleeps == [0.05, 0.1, 0.2]
        assert deployment["policy"].throttled.value == 4

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_overloaded_hint_is_honoured(
        self, deployment, time, transport
    ):
        deployment["policy"].record_result(False)  # trips the breaker
        response = _run_calls(
            transport, deployment, time, 1,
            [("prepare", ("retry-" + transport, QUERY))],
        )
        assert response["ok"]
        # One wait of the breaker's own hint, on every transport.
        assert time.sleeps == [30.0]

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_no_retries_means_the_rejection_is_raised(
        self, deployment, time, transport
    ):
        with pytest.raises(ServeClientError, match="throttled"):
            _run_calls(transport, deployment, time, 0, TWO_STATS)
        assert time.sleeps == []
