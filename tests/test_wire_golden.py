"""Wire bytes pinned, not just round-tripped; and how many sends carry them.

The transport tests elsewhere decode what the server sent and compare
values, so a change that alters the bytes — key order, separators,
escaping, how the HTTP body is assembled — passes them as long as both
ends move together.  ``tests/golden/wire_pages.json`` holds the exact
bytes the three transports produced *before* pages were coalesced
(generated with the parent commit's ``src/``): the TCP line stream, the
HTTP ``/v1/fetch`` body and the WebSocket frame payloads, for

* pages of 1, 50 and 130 answers of a 4-path under tropical (130 crosses
  the 64-answer scheduler slice twice);
* a lexicographic page (tuple weights, witness ids);
* a hand-built page whose values are hostile to byte splicing: the text
  ``},{"result":``, quotes, newlines, non-ASCII, ``True``/``None``,
  nested tuples, ``nan``/``inf``.

It also records how often the ``gateway.write`` fault site is reached,
which chaos plans count on.  Regenerate (only when a wire-format change
is intended and reviewed)::

    PYTHONPATH=src python tests/test_wire_golden.py
"""

from __future__ import annotations

import asyncio
import base64
import http.client
import json
import os
import random
import socket

import pytest

from repro.anyk.base import make_enumerator
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.builder import build_tdp
from repro.engine import Engine
from repro.enumeration.result import QueryResult
from repro.query.builders import path_query
from repro.query.jointree import build_join_tree
from repro.ranking.lexicographic import relation_lexicographic
from repro.serve import GatewayThread, HttpServeClient, ServeClient, ServerThread
from repro.serve.protocol import encode
from repro.serve.server import ServeServer
from repro.serve.session import FetchOutcome, SessionManager
from repro.util import faults

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "wire_pages.json"
)
QUERY = (
    "Q(x1, x2, x3, x4, x5) :- "
    "R1(x1, x2), R2(x2, x3), R3(x3, x4), R4(x4, x5)"
)
#: Consecutive pages of one cursor per transport.
PATH4_PAGES = (1, 50, 130)
RESULT_PREFIX = b'{"result":'


def _database() -> Database:
    rng = random.Random(1404)
    return Database(
        [
            Relation(
                f"R{i}",
                2,
                [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(30)],
                [round(rng.uniform(0.0, 100.0), 3) for _ in range(30)],
            )
            for i in range(1, 5)
        ]
    )


def _lexicographic_page(database: Database) -> list[QueryResult]:
    query = path_query(4)
    dioid, lift = relation_lexicographic(query)
    tdp = build_tdp(database, build_join_tree(query), dioid=dioid, lift=lift)
    return [
        QueryResult(
            r.weight, r.assignment, query.head, witness_ids=r.witness_ids
        )
        for r, _ in zip(make_enumerator(tdp, "take2"), range(20))
    ]


def _hostile_page() -> list[QueryResult]:
    head = ("a", "b")
    values = [
        (1.5, {"a": '},{"result":', "b": '"quoted"\\'}),
        (float("nan"), {"a": "line\nbreak\r\n", "b": "héllo 世界 \U0001f600"}),
        (float("inf"), {"a": True, "b": None}),
        (float("-inf"), {"a": (1, (2.5, ("x", None)), ()), "b": [1, (2,)]}),
        ((0.1, -0.0, 1e22), {"a": 2**70, "b": "\x00\x1f\u2028"}),
        (3, {"a": "}\n", "b": "]}"}),
    ]
    return [
        QueryResult(weight, assignment, head, witness_ids=(index, None))
        for index, (weight, assignment) in enumerate(values)
    ]


class CannedManager(SessionManager):
    """Serves hand-built results through the real dispatcher and sockets.

    A fetch on session ``name`` streams ``pages[name]`` from rank 0 in
    scheduler-sized slices; every other op is the real manager's.
    """

    def __init__(self, engine: Engine, pages: dict[str, list[QueryResult]]):
        super().__init__(engine)
        self.pages = pages

    async def fetch_async(
        self, session_name, cursor_id, n, sink=None, deadline_ms=None
    ):
        results = self.pages[session_name][:n]
        size = self.scheduler.slice_size
        for start in range(0, len(results), size):
            await sink(start, results[start:start + size])
        return FetchOutcome(results, len(results), True)


# -- raw captures ----------------------------------------------------------------


class _RawTcp:
    def __init__(self, address):
        self._sock = socket.create_connection(address, timeout=30)
        self._file = self._sock.makefile("rwb")

    def exchange(self, request: dict) -> bytes:
        """Send one request; the response's bytes, terminator included."""
        self._file.write(json.dumps(request).encode() + b"\n")
        self._file.flush()
        out = b""
        while True:
            line = self._file.readline()
            assert line, "server closed the connection"
            out += line
            if not line.startswith(RESULT_PREFIX):
                return out

    def close(self) -> None:
        self._file.close()
        self._sock.close()


class _RawWs:
    """Text frames in, frame payloads out (RFC 6455 subset, masked sends)."""

    def __init__(self, address):
        self._sock = socket.create_connection(address, timeout=30)
        self._file = self._sock.makefile("rb")
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        self._sock.sendall(
            (
                f"GET /v1/ws HTTP/1.1\r\nHost: {address[0]}\r\n"
                "Connection: Upgrade\r\nUpgrade: websocket\r\n"
                "Sec-WebSocket-Version: 13\r\n"
                f"Sec-WebSocket-Key: {key}\r\n\r\n"
            ).encode("latin-1")
        )
        assert b" 101 " in self._file.readline()
        while self._file.readline() not in (b"\r\n", b""):
            pass

    def exchange(self, request: dict) -> list[bytes]:
        payload = json.dumps(request).encode()
        assert len(payload) < 1 << 16
        mask = os.urandom(4)
        head = bytes([0x81]) + (
            bytes([0x80 | len(payload)])
            if len(payload) < 126
            else bytes([0x80 | 126]) + len(payload).to_bytes(2, "big")
        )
        self._sock.sendall(
            head + mask + bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
        )
        frames: list[bytes] = []
        while True:
            first, length = self._file.read(2)
            assert first == 0x81, "expected one unfragmented text frame"
            if length == 126:
                length = int.from_bytes(self._file.read(2), "big")
            elif length == 127:
                length = int.from_bytes(self._file.read(8), "big")
            frames.append(self._file.read(length))
            if not frames[-1].startswith(RESULT_PREFIX):
                return frames

    def close(self) -> None:
        self._file.close()
        self._sock.close()


def _http_body(connection, path: str, fields: dict) -> bytes:
    connection.request("POST", path, body=json.dumps(fields).encode())
    response = connection.getresponse()
    body = response.read()
    assert response.status == 200, body
    return body


class Deployment:
    """Both front doors over one engine: real pages and canned pages."""

    def __init__(self):
        database = _database()
        self.engine = Engine(database)
        self.canned_pages = {
            "lexicographic": _lexicographic_page(database),
            "hostile": _hostile_page(),
        }
        canned = CannedManager(self.engine, self.canned_pages)
        canned_tcp = ServerThread(self.engine)
        canned_tcp.server.dispatcher.manager = canned
        self._threads = {
            "tcp": ServerThread(self.engine),
            "http": GatewayThread(self.engine, log_requests=False),
            "canned_tcp": canned_tcp,
            "canned_http": GatewayThread(
                self.engine, manager=canned, log_requests=False
            ),
        }
        self.address = {
            name: thread.start() for name, thread in self._threads.items()
        }

    def gateway(self):
        return self._threads["http"].server

    def close(self) -> None:
        for thread in self._threads.values():
            thread.stop()
        self.engine.close()


def capture(deployment: Deployment) -> dict:
    """Every golden cell: ``{case: {"tcp": str, "http": str, "ws": [str]}}``.

    All three encoders escape to ASCII, so the bytes are stored as text.
    """
    cells: dict[str, dict] = {}

    def fetches(prefix: str, case: str, sizes) -> None:
        tcp = _RawTcp(deployment.address[prefix + "tcp"])
        web = _RawWs(deployment.address[prefix + "http"])
        conn = http.client.HTTPConnection(
            *deployment.address[prefix + "http"], timeout=30
        )
        # A canned session always serves from rank 0; a real cursor
        # advances, so each transport pages through a session of its own.
        session = {
            name: case if prefix else f"{case}-{name}"
            for name in ("tcp", "ws", "http")
        }
        try:
            if not prefix:
                for reply in (
                    tcp.exchange(
                        {"op": "prepare", "session": session["tcp"], "query": QUERY}
                    ),
                    web.exchange(
                        {"op": "prepare", "session": session["ws"], "query": QUERY}
                    )[0],
                    _http_body(
                        conn, "/v1/prepare",
                        {"session": session["http"], "query": QUERY},
                    ),
                ):
                    assert json.loads(reply)["cursor"] == "c0"
            for n in sizes:
                fetch = {"cursor": "c0", "n": n}
                cells[f"{case}/{n}"] = {
                    "tcp": tcp.exchange(
                        {"op": "fetch", "session": session["tcp"], **fetch}
                    ).decode("ascii"),
                    "ws": [
                        frame.decode("ascii")
                        for frame in web.exchange(
                            {"op": "fetch", "session": session["ws"], **fetch}
                        )
                    ],
                    "http": _http_body(
                        conn, "/v1/fetch", {"session": session["http"], **fetch}
                    ).decode("ascii"),
                }
        finally:
            tcp.close()
            web.close()
            conn.close()

    fetches("", "path4", PATH4_PAGES)
    for name, page in deployment.canned_pages.items():
        fetches("canned_", name, (len(page),))
    return cells


def gateway_write_hits(deployment: Deployment) -> dict[str, int]:
    """Arrivals at the ``gateway.write`` fault site per kind of exchange."""
    hits = {}
    # A rule that never fires: the plan counts arrivals only when armed.
    with faults.injected("gateway.write=delay:1000000") as plan:
        def arrivals() -> int:
            return plan.counters()["hits"].get("gateway.write", 0)

        web = _RawWs(deployment.address["http"])
        conn = http.client.HTTPConnection(*deployment.address["http"], timeout=30)
        try:
            prepare = {"session": "hits", "query": QUERY}
            before = arrivals()
            web.exchange({"op": "prepare", **prepare})
            hits["ws_prepare"] = arrivals() - before
            fetch = {"session": "hits", "cursor": "c0", "n": 50}
            before = arrivals()
            web.exchange({"op": "fetch", **fetch})
            hits["ws_fetch_50"] = arrivals() - before
            before = arrivals()
            _http_body(conn, "/v1/fetch", fetch)
            hits["http_fetch_50"] = arrivals() - before
        finally:
            web.close()
            conn.close()
    return hits


def compute_golden() -> dict:
    deployment = Deployment()
    try:
        return {
            "pages": capture(deployment),
            "gateway_write_hits": gateway_write_hits(deployment),
        }
    finally:
        deployment.close()


# -- the pinned bytes --------------------------------------------------------------


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH, encoding="ascii") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def deployment():
    deployment = Deployment()
    yield deployment
    deployment.close()


@pytest.fixture(scope="module")
def captured(deployment) -> dict:
    return capture(deployment)


CASES = [f"path4/{n}" for n in PATH4_PAGES] + ["lexicographic/20", "hostile/6"]


def test_golden_covers_every_case(golden):
    assert sorted(golden["pages"]) == sorted(CASES)


@pytest.mark.parametrize("transport", ["tcp", "http", "ws"])
@pytest.mark.parametrize("case", CASES)
def test_wire_bytes_unchanged(golden, captured, case, transport):
    assert captured[case][transport] == golden["pages"][case][transport]


def _golden_results(cell: dict) -> list[dict]:
    lines = cell["tcp"].splitlines()
    return [json.loads(line)["result"] for line in lines[:-1]]


@pytest.mark.parametrize("case", CASES)
def test_three_transports_carry_the_same_page(golden, case):
    """The golden bytes themselves agree across transports."""
    cell = golden["pages"][case]
    expected = repr(_golden_results(cell))  # repr: nan != nan
    assert repr(json.loads(cell["http"])["results"]) == expected
    assert repr(
        [json.loads(frame)["result"] for frame in cell["ws"][:-1]]
    ) == expected
    assert cell["ws"] == cell["tcp"].splitlines()


def test_clients_decode_the_pinned_pages(golden, deployment):
    """``ServeClient`` and ``HttpServeClient`` return what the bytes say."""
    with ServeClient(*deployment.address["tcp"]) as tcp, HttpServeClient(
        *deployment.address["http"]
    ) as web:
        clients = {"clients-tcp": tcp, "clients-http": web}
        for session, client in clients.items():
            assert client.prepare(session, QUERY)["cursor"] == "c0"
        for n in PATH4_PAGES:
            expected = _golden_results(golden["pages"][f"path4/{n}"])
            for session, client in clients.items():
                page = client.fetch(session, "c0", n)
                assert page.results == expected, (session, n)
                assert (page.served, page.exhausted) == (n, False)
    with ServeClient(*deployment.address["canned_tcp"]) as tcp, HttpServeClient(
        *deployment.address["canned_http"]
    ) as web:
        for name, results in deployment.canned_pages.items():
            expected = repr(
                _golden_results(golden["pages"][f"{name}/{len(results)}"])
            )
            for client in (tcp, web):
                page = client.fetch(name, "c0", len(results))
                assert repr(page.results) == expected, (name, client)


def test_gateway_write_fault_site_counts_unchanged(golden, deployment):
    """One arrival per WebSocket frame and one per HTTP response."""
    assert gateway_write_hits(deployment) == golden["gateway_write_hits"]


# -- how many sends carry a page -------------------------------------------------


class _RecordingTransport(asyncio.Transport):
    """What ``StreamWriter`` writes to: every ``write`` kept, none sent.

    With ``fail_after=N`` the write after the Nth fails the way a selector
    transport's does when ``send()`` hits a reset peer: the data is
    dropped, the transport turns closing, ``connection_lost`` is queued.
    """

    def __init__(self, fail_after: int | None = None):
        super().__init__(extra={"peername": ("127.0.0.1", 0)})
        self.writes: list[bytes] = []
        self.fail_after = fail_after
        self.protocol: asyncio.StreamReaderProtocol | None = None
        self._closing = False

    def _lose(self, exc: Exception | None) -> None:
        self._closing = True
        asyncio.get_running_loop().call_soon(self.protocol.connection_lost, exc)

    def write(self, data) -> None:
        if self._closing:
            return
        if self.fail_after is not None and len(self.writes) == self.fail_after:
            self._lose(ConnectionResetError("peer reset"))
        else:
            self.writes.append(bytes(data))

    def is_closing(self) -> bool:
        return self._closing

    def close(self) -> None:
        if not self._closing:
            self._lose(None)


def _serve_connection(server, requests: list[dict], transport) -> None:
    """Run the server's connection handler over ``transport`` to EOF."""
    async def run() -> None:
        reader = asyncio.StreamReader()
        stream_protocol = asyncio.StreamReaderProtocol(reader)
        transport.protocol = stream_protocol
        stream_protocol.connection_made(transport)
        writer = asyncio.StreamWriter(
            transport, stream_protocol, reader, asyncio.get_running_loop()
        )
        reader.feed_data(b"".join(encode(request) for request in requests))
        reader.feed_eof()
        await server._handle_connection(reader, writer)

    asyncio.run(run())


@pytest.fixture
def tcp_server(deployment):
    return ServeServer(deployment.engine)


def _page_requests(*sizes: int) -> list[dict]:
    return [{"op": "prepare", "session": "sends", "query": QUERY}] + [
        {"op": "fetch", "session": "sends", "cursor": "c0", "n": n}
        for n in sizes
    ]


def test_one_slice_page_is_one_transport_write(tcp_server):
    transport = _RecordingTransport()
    _serve_connection(tcp_server, _page_requests(50, 1), transport)
    prepare, page, single = transport.writes
    assert prepare.count(b"\n") == 1
    assert page.count(b"\n") == 51  # 50 results and the terminator
    assert json.loads(page.splitlines()[-1])["served"] == 50
    assert single.count(b"\n") == 2


def test_multi_slice_page_is_one_write_per_slice(tcp_server):
    transport = _RecordingTransport()
    _serve_connection(tcp_server, _page_requests(130), transport)
    # Slices of 64, 64 and 2; the last leaves with the terminator.
    assert [w.count(b"\n") for w in transport.writes[1:]] == [64, 64, 3]
    lines = b"".join(transport.writes[1:]).splitlines()
    assert [json.loads(line)["result"]["index"] for line in lines[:-1]] == list(
        range(130)
    )


def test_short_last_slice_is_sent_before_its_terminator(tcp_server):
    """Only a slice that completes the requested page waits for the
    terminator; the output ending early is not known in the sink."""
    transport = _RecordingTransport()
    total = 30 ** 4  # more than the output holds
    _serve_connection(tcp_server, _page_requests(total), transport)
    last_results, terminator = transport.writes[-2:]
    assert last_results.startswith(RESULT_PREFIX)
    assert json.loads(terminator)["exhausted"] is True


def test_failed_send_of_a_whole_page_rewinds_it(tcp_server):
    """The slice sent with the terminator keeps the rewind promise: a
    page whose one send fails is neither consumed nor charged."""
    transport = _RecordingTransport(fail_after=1)  # the prepare goes out
    _serve_connection(tcp_server, _page_requests(50), transport)
    assert len(transport.writes) == 1
    manager = tcp_server.manager
    assert manager.cursor("sends", "c0").position == 0
    assert manager.session("sends").served == 0
    # A successor on a healthy connection gets the very same page.
    healthy = _RecordingTransport()
    _serve_connection(
        tcp_server,
        [{"op": "fetch", "session": "sends", "cursor": "c0", "n": 50}],
        healthy,
    )
    (page,) = healthy.writes
    assert json.loads(page.splitlines()[0])["result"]["index"] == 0
    assert manager.session("sends").served == 50


def test_failed_send_mid_page_rewinds_only_the_lost_slice(tcp_server):
    transport = _RecordingTransport(fail_after=2)  # prepare, first slice
    _serve_connection(tcp_server, _page_requests(130), transport)
    assert tcp_server.manager.cursor("sends", "c0").position == 64
    assert tcp_server.manager.session("sends").served == 64


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="ascii") as handle:
        json.dump(compute_golden(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
