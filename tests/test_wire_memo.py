"""The held wire line can only ever be what a fresh encode would be.

A stream memoizes an answer's served form: once rank *i* has gone over a
socket its ``QueryResult`` keeps the encoded protocol line
(``protocol.result_lines``), and every later fetch of that rank — any
session, any transport — sends those bytes again instead of encoding.
``tests/test_wire_golden.py`` pins the bytes of fixed pages; this suite
pins the *memo*: under every way a rank can be reached a second time the
bytes on the wire equal ``encode(result_message(i, r))`` computed from a
separately bound plan, a replayed page costs no encoder call, values
that compare equal keep their own bytes, a new database version never
sees an old line, the held bytes are charged to the stream's memory
estimate, and two event loops filling the same ranks agree.
"""

from __future__ import annotations

import http.client
import json
import random
import sys
import threading

import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import Engine
from repro.enumeration.result import QueryResult
from repro.ranking.dioid import TROPICAL
from repro.ranking.lexicographic import LexicographicDioid
from repro.serve import (
    GatewayThread,
    HttpServeClient,
    ServeClient,
    ServeClientError,
    ServerThread,
)
from repro.serve import protocol
from repro.serve.server import ServeServer
from repro.serve.session import SessionManager
from tests.test_wire_golden import (
    QUERY,
    CannedManager,
    _database,
    _hostile_page,
    _http_body,
    _RawTcp,
    _RawWs,
    _RecordingTransport,
    _serve_connection,
)

#: Scheduler slice of every deployment here; the page sizes below sit
#: under it, on it and across it.
SLICE = 16
#: Ranks the conformance scenarios stay below.
K = 120

LEXICOGRAPHIC = LexicographicDioid(4)


def _lexicographic_database() -> Database:
    """The golden 4-path with each weight lifted to its atom's unit vector."""
    rng = random.Random(2110)
    return Database(
        [
            Relation(
                f"R{i}",
                2,
                [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(24)],
                [
                    tuple(
                        float(rng.randint(0, 9)) if j == i - 1 else 0.0
                        for j in range(4)
                    )
                    for _ in range(24)
                ],
            )
            for i in range(1, 5)
        ]
    )


PLANS = {
    "tropical": (_database, TROPICAL),
    "lexicographic": (_lexicographic_database, LEXICOGRAPHIC),
}


def encode_page(results) -> list[bytes]:
    """The reference: every line encoded now, from rank 0, no memo."""
    return [
        protocol.encode(protocol.result_message(i, r))
        for i, r in enumerate(results)
    ]


def fresh_lines(database: Database, dioid, k: int) -> list[bytes]:
    """Ranks ``0..k-1`` encoded from a plan no server ever touched."""
    engine = Engine(database)
    try:
        return encode_page(engine.prepare(QUERY, dioid=dioid).top(k))
    finally:
        engine.close()


def wire_form(results) -> list[dict]:
    """What a client must decode for ``results`` served from rank 0."""
    return [json.loads(line)["result"] for line in encode_page(results)]


class World:
    """Both front doors over one session manager, raw clients on each."""

    def __init__(self, database: Database, dioid=TROPICAL, manager=None):
        self.dioid = dioid
        self.engine = Engine(database)
        self._tcp = ServerThread(self.engine, slice_size=SLICE)
        if manager is not None:
            self._tcp.server.dispatcher.manager = manager(self.engine)
        self.server = self._tcp.server
        self.manager: SessionManager = self.server.dispatcher.manager
        self._http = GatewayThread(
            self.engine, manager=self.manager, log_requests=False
        )
        tcp_address, http_address = self._tcp.start(), self._http.start()
        self.gateway = self._http.server
        self.address = {"tcp": tcp_address, "http": http_address}
        self.tcp = _RawTcp(tcp_address)
        self.ws = _RawWs(http_address)
        self.http = http.client.HTTPConnection(*http_address, timeout=30)

    def open(self, session: str) -> str:
        """A cursor at rank 0 (opened on the manager: a lexicographic
        dioid has no wire name)."""
        return self.manager.open_cursor(session, QUERY, dioid=self.dioid)[1]

    def exchange(self, transport: str, session: str, n: int, cursor: str = "c0"):
        """One fetch; what came back, untouched (TCP: the line stream,
        WS: the frame payloads, HTTP: the body)."""
        request = {"session": session, "cursor": cursor, "n": n}
        if transport == "tcp":
            return self.tcp.exchange({"op": "fetch", **request})
        if transport == "ws":
            return self.ws.exchange({"op": "fetch", **request})
        return _http_body(self.http, "/v1/fetch", request)

    def fetch(self, transport: str, session: str, n: int, cursor: str = "c0"):
        """One page as the result lines that transport carried."""
        reply = self.exchange(transport, session, n, cursor)
        if transport == "tcp":
            return reply.splitlines(keepends=True)[:-1]
        if transport == "ws":
            return [frame + b"\n" for frame in reply[:-1]]
        served = json.loads(reply)["served"]
        head, _, results = reply.partition(b',"results":')
        assert results.endswith(b"}") and head.startswith(b'{"ok":true')
        return _unsplice(results[:-1], served)

    def lines(self, kind: str) -> int:
        """``encoded`` / ``replayed`` lines over both front doors (each
        listener counts on its own dispatcher)."""
        return sum(
            int(getattr(listener.dispatcher, f"lines_{kind}"))
            for listener in (self.server, self.gateway)
        )

    def close(self) -> None:
        self.tcp.close()
        self.ws.close()
        self.http.close()
        self._http.stop()
        self._tcp.stop()
        self.engine.close()


def _unsplice(array: bytes, count: int) -> list[bytes]:
    """Invert ``join_results`` for a page whose lines are known to be
    one of ``count`` elements each: checks the array *is* the splice of
    some lines, and returns them."""
    elements = json.loads(array)
    assert len(elements) == count
    lines = [protocol.encode({"result": element}) for element in elements]
    # Re-encoding decoded values is only a way to find the boundaries;
    # the comparison that matters is on the bytes actually received.
    assert protocol.join_results(lines) == array
    return lines


@pytest.fixture(params=sorted(PLANS))
def plan(request):
    build, dioid = PLANS[request.param]
    expected = fresh_lines(build(), dioid, K)
    assert len(expected) == K
    world = World(build(), dioid)
    yield world, expected
    world.close()


# -- (a) byte conformance under every way back to a rank --------------------------


def test_interleaved_cursors_skip_and_rewind(plan):
    world, expected = plan
    for session in ("a", "b", "c"):
        assert world.open(session) == "c0"
    # A runs ahead, B and C come after it on other transports; page
    # sizes sit under, on and across the scheduler slice.
    assert world.fetch("tcp", "a", 5) == expected[0:5]
    assert world.fetch("ws", "b", SLICE + 1) == expected[0:17]
    assert world.fetch("tcp", "a", 40) == expected[5:45]
    assert world.fetch("http", "c", SLICE) == expected[0:16]
    assert world.fetch("http", "c", 2 * SLICE + 1) == expected[16:49]
    # Skipped ranks are memoized without ever being encoded: the page
    # after the skip mixes held lines (37..48) and first encodes.
    assert world.manager.cursor("b", "c0").skip(20) == 20
    assert world.fetch("ws", "b", 30) == expected[37:67]
    world.manager.cursor("a", "c0").rewind(3)
    assert world.fetch("tcp", "a", 64) == expected[3:67]
    for transport, session in (("tcp", "a"), ("ws", "b"), ("http", "c")):
        world.manager.cursor(session, "c0").rewind(0)
        assert world.fetch(transport, session, K) == expected, transport
    assert world.lines("encoded") == K


def test_failed_send_then_refetch(plan):
    world, expected = plan
    server = ServeServer(world.engine, slice_size=SLICE)
    cursor = server.manager.open_cursor("lost", QUERY, dioid=world.dioid)[1]
    fetch = {"op": "fetch", "session": "lost", "cursor": cursor, "n": 10}
    # The page and its terminator are one write; it fails, the held
    # slice is taken back — its lines stay on the answers.
    _serve_connection(server, [fetch], _RecordingTransport(fail_after=0))
    assert server.manager.cursor("lost", cursor).position == 0
    assert server.dispatcher.lines_encoded.value == 10
    healthy = _RecordingTransport()
    _serve_connection(server, [fetch, fetch], healthy)
    lines = b"".join(healthy.writes).splitlines(keepends=True)
    assert lines[0:10] == expected[0:10]
    assert lines[11:21] == expected[10:20]
    assert server.dispatcher.lines_replayed.value == 10
    # The live deployment shares the engine's stream, hence the lines.
    world.open("after")
    assert world.fetch("ws", "after", 25) == expected[0:25]
    assert world.lines("encoded") == 5
    server.manager.close()


# -- (b) a count, not a timing ----------------------------------------------------


def test_replayed_page_costs_one_encoder_call(monkeypatch):
    world = World(_database())
    calls = []
    real = protocol._encode_json

    def counting(message):
        calls.append(message)
        return real(message)

    try:
        for session in ("first", "ws", "http", "again"):
            world.open(session)
        monkeypatch.setattr(protocol, "_encode_json", counting)
        costs = {}
        for transport, session in (
            ("tcp", "first"), ("ws", "ws"), ("http", "http"), ("tcp", "again"),
        ):
            before = len(calls)
            assert world.exchange(transport, session, 50)
            costs[session] = len(calls) - before
    finally:
        monkeypatch.undo()
        world.close()
    # 50 results and the terminator; afterwards the terminator alone.
    assert costs == {"first": 51, "ws": 1, "http": 1, "again": 1}
    assert [m["op"] for m in calls[-3:]] == ["fetch"] * 3


# -- (c) equal values, own bytes; hostile values ----------------------------------


def _edge_page() -> list[QueryResult]:
    head = ("a",)
    weights = [
        1, 1.0, True, 0.0, -0.0, 0, False,
        float("nan"), float("inf"), float("-inf"),
        2**53 + 1, -(2**53) - 1, 2**70, 1e308, 5e-324,
        (1, 1.0, True), (0.0, -0.0), (float("nan"), 2**64),
    ]
    page = [
        QueryResult(weight, {"a": weight}, head, witness_ids=(i,))
        for i, weight in enumerate(weights)
    ]
    return page + _hostile_page()


@pytest.fixture
def canned():
    pages = {"edge": _edge_page()}
    pages["reversed"] = pages["edge"][::-1]
    world = World(
        _database(), manager=lambda engine: CannedManager(engine, pages)
    )
    yield world, pages
    world.close()


def test_equal_values_keep_their_own_bytes(canned):
    world, pages = canned
    page = pages["edge"]
    expected = encode_page(page)
    weights = [json.loads(line)["result"]["weight"] for line in expected]
    assert [repr(w) for w in weights[:7]] == [
        "1", "1.0", "True", "0.0", "-0.0", "0", "False"
    ]
    # First trip, then replays, on every transport.
    for _ in range(2):
        for transport in ("tcp", "ws", "http"):
            assert world.fetch(transport, "edge", len(page)) == expected
    assert world.lines("encoded") == len(page)
    with ServeClient(*world.address["tcp"]) as tcp, HttpServeClient(
        *world.address["http"]
    ) as web:
        for client in (tcp, web):
            got = client.fetch("edge", "c0", len(page)).results
            assert repr(got) == repr(wire_form(page))


def test_answer_at_another_index_is_encoded_again(canned):
    world, pages = canned
    page, flipped = pages["edge"], pages["reversed"]
    world.fetch("tcp", "edge", len(page))
    for transport in ("ws", "http", "tcp"):
        assert world.fetch(transport, "reversed", len(page)) == encode_page(
            flipped
        )
    # ... and going back re-encodes again rather than serving the
    # other index's line.
    assert world.fetch("tcp", "edge", len(page)) == encode_page(page)


# -- (d) a new database version never sees an old line ----------------------------


def test_mutation_serves_no_line_of_the_old_version():
    world = World(_database())
    try:
        old = fresh_lines(_database(), TROPICAL, 40)
        world.open("pinned")
        assert world.fetch("tcp", "pinned", 30) == old[:30]
        # A new cheapest answer: every rank of the new version shifts.
        mutated = _database()
        for database in (world.engine.database, mutated):
            for name in ("R1", "R2", "R3", "R4"):
                database[name].add((7, 7), 0.001)
        new = fresh_lines(mutated, TROPICAL, 40)
        assert new[0] != old[0] and new[1:] != old[1:]
        reply = json.loads(
            world.tcp.exchange({"op": "prepare", "session": "new", "query": QUERY})
        )
        assert world.fetch("tcp", "new", 30, reply["cursor"]) == new[:30]
        assert world.fetch("http", "new", 10, reply["cursor"]) == new[30:40]
        # The open cursor stays pinned to its version and its lines ...
        assert world.fetch("ws", "pinned", 10) == old[30:40]
        # ... until it is refreshed.
        world.manager.cursor("pinned", "c0").refresh()
        assert world.fetch("ws", "pinned", 40) == new
    finally:
        world.close()


# -- (e) two loops, one memo -------------------------------------------------------


def test_two_loops_fill_the_same_ranks_concurrently():
    """A ``ServerThread`` and a ``GatewayThread`` — two event loops on two
    threads — page the same ranks of one stream at the same time."""
    pages, size = 300, 7
    world = World(_database())
    expected = fresh_lines(_database(), TROPICAL, pages * size)
    assert len(expected) == pages * size
    got: dict[str, list[bytes]] = {}
    errors: list[BaseException] = []

    def reader(transport: str) -> None:
        try:
            lines: list[bytes] = []
            for _ in range(pages):
                lines.extend(world.fetch(transport, transport, size))
            got[transport] = lines
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for transport in ("tcp", "ws", "http"):
            world.open(transport)
        threads = [
            threading.Thread(target=reader, args=(transport,))
            for transport in ("tcp", "ws", "http")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        world.close()
    assert not errors, errors
    for transport in ("tcp", "ws", "http"):
        assert got[transport] == expected, transport
    encoded = world.lines("encoded")
    assert encoded + world.lines("replayed") == 3 * pages * size
    # Two loops may both find a rank unfilled; nobody encodes it thrice.
    assert pages * size <= encoded <= 2 * pages * size


# -- held bytes are accounted ------------------------------------------------------


def _held_line_bytes(stream) -> int:
    return sum(
        sys.getsizeof(result._wire[1])
        for result in stream._results
        if getattr(result, "_wire", None) is not None
    )


def test_memory_estimate_covers_the_held_lines():
    world = World(_database())
    try:
        world.open("m")
        cursor = world.manager.cursor("m", "c0")
        cursor.skip(100)
        cursor.rewind(0)
        stream = cursor.stream
        unserved = stream.memory_bytes()
        assert _held_line_bytes(stream) == 0
        # Half served: every memoized answer is charged a line.
        world.fetch("tcp", "m", 50)
        half = stream.memory_bytes()
        assert half - unserved >= 2 * _held_line_bytes(stream) > 0
        # Fully served: the charge covers what is really held.
        world.fetch("tcp", "m", 50)
        assert stream.memory_bytes() == half
        assert half - unserved >= _held_line_bytes(stream)
        assert world.manager.session_memory_bytes(
            world.manager.session("m")
        ) == half
    finally:
        world.close()


def test_memory_budget_counts_the_served_form():
    """A budget that admits an unserved prefix refuses it once served."""
    n = 100
    world = World(_database())
    try:
        world.open("tight")
        cursor = world.manager.cursor("tight", "c0")
        cursor.skip(n)
        cursor.rewind(0)
        world.manager.memory_budget_bytes = cursor.stream.memory_bytes()
        with ServeClient(*world.address["tcp"]) as client:
            assert client.fetch("tight", "c0", n).served == n
            cursor.rewind(0)
            with pytest.raises(ServeClientError, match="memory budget"):
                client.fetch("tight", "c0", n)
    finally:
        world.close()
