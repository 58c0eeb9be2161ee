"""The asyncio JSON-lines server: round trips, errors, concurrent clients."""

from __future__ import annotations

import socket as socketlib
import struct
import threading
import time

import pytest

from repro.data.generators import uniform_database
from repro.engine import Engine
from repro.query.builders import path_query
from repro.serve import ServeClient, ServeClientError, ServerThread
from repro.serve import protocol
from repro.serve.protocol import decode, encode, result_message
from repro.enumeration.result import QueryResult

QUERY = "Q(x1, x2, x3, x4) :- R1(x1, x2), R2(x2, x3), R3(x3, x4)"


def signature(results):
    return [(round(r.weight, 6), r.output_tuple) for r in results]


def wire_signature(rows):
    """The client-side form of :func:`signature` (JSON round-tripped)."""
    return [
        (
            round(row["weight"], 6),
            tuple(row["assignment"][v] for v in ("x1", "x2", "x3", "x4")),
        )
        for row in rows
    ]


@pytest.fixture(scope="module")
def engine():
    return Engine(uniform_database(3, 40, domain_size=5, seed=9))


@pytest.fixture(scope="module")
def server(engine):
    with ServerThread(engine, slice_size=8) as address:
        yield address


@pytest.fixture
def client(server):
    with ServeClient(*server) as c:
        yield c


# -- protocol helpers ----------------------------------------------------------


class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "fetch", "n": 5, "weights": (1.0, 2)}
        assert decode(encode(message)) == {
            "op": "fetch", "n": 5, "weights": [1.0, 2],
        }

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ValueError):
            decode(b"[1, 2, 3]")

    def test_result_message_tuples_become_arrays(self):
        result = QueryResult(
            (3.0, 1.0), {"x": 1, "y": (2, 3)}, ("x", "y"),
            witness_ids=(0, 4),
        )
        payload = decode(encode(result_message(7, result)))["result"]
        assert payload == {
            "index": 7,
            "weight": [3.0, 1.0],
            "assignment": {"x": 1, "y": [2, 3]},
            "witness_ids": [0, 4],
        }


# -- smoke: the CI round trip --------------------------------------------------


def test_smoke_round_trip_ranked_order(engine, client):
    """Start server, prepare, fetch, assert ranked order (the CI smoke)."""
    assert client.ping()
    response = client.prepare("smoke", QUERY)
    assert response["strategy"] == "acyclic-tdp"
    page = client.fetch("smoke", response["cursor"], 25)
    assert len(page) == 25
    weights = [row["weight"] for row in page]
    assert weights == sorted(weights), "server stream is not ranked"
    assert wire_signature(page.results) == signature(
        engine.prepare(path_query(3)).top(25)
    )
    client.close_session("smoke")


# -- sessions and pagination over the wire -------------------------------------


class TestServerSessions:
    def test_pagination_is_stateful(self, engine, client):
        cursor = client.prepare("paging", QUERY)["cursor"]
        first = client.fetch("paging", cursor, 10)
        second = client.fetch("paging", cursor, 10)
        assert first.position == 10
        assert second.position == 20
        assert wire_signature(first.results + second.results) == signature(
            engine.prepare(path_query(3)).top(20)
        )

    def test_fetch_to_exhaustion_sets_flag(self, engine, client):
        total = len(list(engine.prepare(path_query(2)).iter()))
        cursor = client.prepare(
            "drain", "Q(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)"
        )["cursor"]
        rows = client.fetch_all("drain", cursor, page_size=64)
        assert len(rows) == total
        page = client.fetch("drain", cursor, 5)
        assert page.served == 0
        assert page.exhausted

    def test_two_connections_one_session_state(self, server):
        with ServeClient(*server) as c1, ServeClient(*server) as c2:
            cursor = c1.prepare("shared", QUERY)["cursor"]
            c1.fetch("shared", cursor, 5)
            # The session (and cursor position) lives server-side.
            page = c2.fetch("shared", cursor, 5)
            assert page.position == 10

    def test_explain_over_the_wire(self, client):
        cursor = client.prepare("explain", QUERY)["cursor"]
        plan = client.explain("explain", cursor)
        assert "strategy: acyclic-tdp" in plan
        assert "physical" in plan

    def test_cursor_budget_clamps_pages(self, client):
        cursor = client.prepare("capped", QUERY, budget=7)["cursor"]
        page = client.fetch("capped", cursor, 100)
        assert page.served == 7
        assert client.fetch("capped", cursor, 100).served == 0

    def test_stats_surface(self, client):
        client.prepare("statse", QUERY)
        stats = client.stats()
        assert stats["session_count"] >= 1
        assert "engine" in stats and "scheduler" in stats


class TestServerErrors:
    def test_unknown_op(self, client):
        with pytest.raises(ServeClientError, match="unknown_op"):
            client.request({"op": "teleport"})

    def test_unknown_session(self, client):
        with pytest.raises(ServeClientError, match="unknown_session"):
            client.fetch("never-created", "c0", 1)

    def test_bad_query_text(self, client):
        with pytest.raises(ServeClientError, match="bad_query"):
            client.prepare("errs", "THIS IS NOT DATALOG")
        assert client.ping()

    def test_unknown_relation(self, client):
        with pytest.raises(ServeClientError):
            cursor = client.prepare("errs", "Q(x) :- Nope(x, x)")["cursor"]
            client.fetch("errs", cursor, 1)

    def test_bad_dioid_name(self, client):
        with pytest.raises(ServeClientError, match="bad_request"):
            client.prepare("errs", QUERY, dioid="hyperbolic")

    def test_connection_survives_errors(self, client):
        for _ in range(3):
            with pytest.raises(ServeClientError):
                client.request({"op": "teleport"})
        assert client.ping()

    def test_malformed_json_line(self, client):
        client._file.write(b"{not json}\n")
        client._file.flush()
        message = client._read()
        assert message["ok"] is False
        assert message["error"] == "bad_request"
        assert client.ping()


# -- wire-protocol regressions -------------------------------------------------


class TestFrameLimit:
    """Oversized request lines must be a protocol error, not a dead task.

    Regression: ``reader.readline()`` with the default 64 KiB stream
    limit raised an uncaught ``ValueError`` on longer lines, silently
    killing the connection handler.
    """

    @pytest.fixture
    def small_frame_server(self, engine):
        with ServerThread(engine, max_frame_bytes=4096) as address:
            yield address

    def test_oversized_frame_replies_bad_request(self, small_frame_server):
        with ServeClient(*small_frame_server) as client:
            line = b'{"op": "ping", "pad": "' + b"x" * 8192 + b'"}\n'
            client._file.write(line)
            client._file.flush()
            message = client._read()
            assert message["ok"] is False
            assert message["error"] == "bad_request"
            assert "exceeds 4096" in message["message"]
            # The connection (and the handler task) survives.
            assert client.ping()

    def test_oversized_frame_split_across_chunks(self, small_frame_server):
        """A frame that dribbles in past the cap is rejected once."""
        with ServeClient(*small_frame_server) as client:
            client._file.write(b'{"op": "ping", "pad": "')
            client._file.flush()
            for _ in range(8):
                client._file.write(b"y" * 1024)
                client._file.flush()
            client._file.write(b'"}\n')
            client._file.flush()
            message = client._read()
            assert message["error"] == "bad_request"
            assert client.ping()

    def test_default_limit_allows_large_valid_frames(self, server):
        """Frames beyond the old 64 KiB readline limit now work."""
        with ServeClient(*server) as client:
            message = client.request(
                {"op": "ping", "pad": "z" * (96 * 1024)}
            )
            assert message["ok"] is True

    def test_frame_limit_must_be_positive(self, engine):
        from repro.serve.server import ServeServer

        with pytest.raises(ValueError, match="max_frame_bytes"):
            ServeServer(engine, max_frame_bytes=0)


class TestBooleanFieldRegressions:
    """JSON ``true``/``false`` must not pass integer validation.

    Regression: ``isinstance(True, int)`` holds, so ``{"n": true}``
    fetched one row.
    """

    def test_boolean_fetch_size_rejected(self, client):
        cursor = client.prepare("bools", QUERY)["cursor"]
        for bad in (True, False):
            with pytest.raises(ServeClientError, match="bad_request"):
                client.request(
                    {"op": "fetch", "session": "bools", "cursor": cursor,
                     "n": bad}
                )

    def test_valid_int_helper(self):
        assert protocol.valid_int(3)
        assert protocol.valid_int(0)
        assert not protocol.valid_int(True)
        assert not protocol.valid_int(False)
        assert not protocol.valid_int(3.0)
        assert not protocol.valid_int("3")


class TestLifecycleRegressions:
    def test_stop_before_start_is_a_noop(self, engine):
        """Regression: ``stop()`` raised AttributeError when ``start()``
        never ran (``_stop_requested`` still ``None``)."""
        thread = ServerThread(engine)
        thread.stop()  # must not raise

    def test_stop_twice_after_start(self, engine):
        thread = ServerThread(engine)
        thread.start()
        thread.stop()
        thread.stop()  # second stop is also a no-op

    def test_stop_closes_sessions(self, engine):
        """Regression: stopping the server leaked sessions (and their
        cursors' engine streams) into the next server generation."""
        thread = ServerThread(engine)
        address = thread.start()
        with ServeClient(*address) as client:
            client.prepare("leaky", QUERY)
            assert "leaky" in thread.server.manager.session_names()
        thread.stop()
        assert thread.server.manager.session_names() == []


class TestDisconnectMidFetch:
    def test_client_disconnect_mid_fetch_rewinds_cursor(self, engine, server):
        """A vanished client aborts its fetch; undelivered results are
        rewound so a successor resumes the bit-identical stream."""
        raw = socketlib.create_connection(server, timeout=30)
        handle = raw.makefile("rwb")
        handle.write(
            encode({"op": "prepare", "session": "dcx", "query": QUERY})
        )
        handle.flush()
        response = decode(handle.readline())
        assert response["ok"], response
        cursor = response["cursor"]
        # Request a big page, then vanish with an RST (SO_LINGER 0) so
        # the server's next write fails instead of filling OS buffers.
        handle.write(
            encode({"op": "fetch", "session": "dcx", "cursor": cursor,
                    "n": 2000})
        )
        handle.flush()
        raw.setsockopt(
            socketlib.SOL_SOCKET, socketlib.SO_LINGER,
            struct.pack("ii", 1, 0),
        )
        handle.close()  # makefile holds an fd ref; close it first
        raw.close()

        with ServeClient(*server) as client:
            # Wait for the aborted fetch to settle (position stable).
            position = last = None
            deadline = time.time() + 10
            while time.time() < deadline:
                position = client.fetch("dcx", cursor, 0).position
                if position == last:
                    break
                last = position
                time.sleep(0.05)
            assert position is not None and position < 2000, (
                "fetch was never aborted"
            )
            # The session survives, and the continuation is exactly the
            # baseline stream from the rewound position.
            page = client.fetch("dcx", cursor, 10)
            baseline = signature(
                engine.prepare(path_query(3)).top(position + 10)
            )
            assert wire_signature(page.results) == baseline[position:]


class TestEdgePolicy:
    """Auth/throttle enforcement on the TCP transport (shared policy)."""

    @pytest.fixture
    def guarded(self, engine):
        from repro.serve import AccessPolicy

        policy = AccessPolicy(auth_token="secret")
        with ServerThread(engine, policy=policy) as address:
            yield address, policy

    def test_missing_token_rejected_at_edge(self, guarded):
        address, policy = guarded
        with ServeClient(*address) as client:
            with pytest.raises(ServeClientError, match="unauthorized"):
                client.prepare("locked", QUERY)
        assert policy.denied_auth >= 1

    def test_token_grants_access_and_ping_stays_open(self, guarded):
        address, _ = guarded
        with ServeClient(*address, token="secret") as client:
            assert client.prepare("granted", QUERY)["ok"]
        with ServeClient(*address) as anonymous:
            assert anonymous.ping()  # liveness is never authenticated

    def test_throttled_fetch_consumes_no_scheduler_slice(self, engine):
        from repro.serve import AccessPolicy

        clock = [0.0]  # frozen injectable clock: no token refill
        thread = ServerThread(engine, policy=AccessPolicy(
            rate_limit=1.0, burst=2, clock=lambda: clock[0]
        ))
        address = thread.start()
        try:
            with ServeClient(*address) as client:
                cursor = client.prepare("limited2", QUERY)["cursor"]
                client.fetch("limited2", cursor, 5)  # burst exhausted
                slices_before = thread.server.manager.scheduler.slices
                with pytest.raises(ServeClientError, match="throttled"):
                    client.fetch("limited2", cursor, 5)
                assert (
                    thread.server.manager.scheduler.slices == slices_before
                ), "throttled fetch consumed a scheduler slice"
                clock[0] += 10.0  # refill the bucket
                assert client.fetch("limited2", cursor, 5).served == 5
        finally:
            thread.stop()


# -- concurrency over the wire -------------------------------------------------


class TestServeCLI:
    def test_parser_accepts_serve_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "data/", "--port", "0", "--max-sessions", "8",
                "--ttl", "60", "--budget", "5000", "--slice", "16",
            ]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.max_sessions == 8
        assert args.ttl == 60.0
        assert args.budget == 5000
        assert args.slice == 16

    def test_serve_requires_a_data_source(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["serve", "--backend", "sqlite"])  # missing --db-path
        with pytest.raises(SystemExit):
            main(["serve"])  # missing CSV directory


class TestConcurrentClients:
    def test_eight_sessions_bit_identical_prefixes(self, engine, server):
        """≥8 concurrent sessions stream bit-identical ranked prefixes."""
        k = 60
        baseline = signature(engine.prepare(path_query(3)).top(k))
        outputs: dict[str, list] = {}
        errors: list[Exception] = []

        def worker(name: str) -> None:
            try:
                with ServeClient(*server) as c:
                    cursor = c.prepare(name, QUERY)["cursor"]
                    rows: list[dict] = []
                    while len(rows) < k:
                        page = c.fetch(name, cursor, 12)
                        rows.extend(page.results)
                        if page.exhausted:
                            break
                    outputs[name] = wire_signature(rows[:k])
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"client-{i}",))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert len(outputs) == 8
        for name, rows in outputs.items():
            assert rows == baseline, f"{name} diverged from baseline"

    def test_interleaved_algorithms_share_binding(self, engine, server):
        before = engine.stats.binds
        with ServeClient(*server) as c1, ServeClient(*server) as c2:
            cur1 = c1.prepare("alg-a", QUERY, algorithm="take2")["cursor"]
            cur2 = c2.prepare("alg-b", QUERY, algorithm="recursive")["cursor"]
            rows1 = c1.fetch("alg-a", cur1, 15)
            rows2 = c2.fetch("alg-b", cur2, 15)
        assert wire_signature(rows1.results) == wire_signature(rows2.results)
        # Same physical key: at most one (possibly zero, if an earlier
        # test already bound it) new preprocessing pass.
        assert engine.stats.binds <= before + 1
