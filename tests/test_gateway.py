"""The HTTP/WebSocket gateway: auth, throttling, metrics, bit-identity."""

from __future__ import annotations

import base64
import http.client
import json
import os
import socket as socketlib

import pytest

from repro.data.generators import uniform_database
from repro.engine import Engine
from repro.obs.metrics import validate_exposition
from repro.obs.top import debug_html, render_top
from repro.query.builders import path_query
from repro.serve import (
    AccessPolicy,
    GatewayThread,
    HttpServeClient,
    ServeClient,
    ServeClientError,
    ServerThread,
)
from repro.serve.gateway import GatewayServer, ws_accept_key, ws_encode_frame
from repro.util.resilience import CircuitBreaker

QUERY = "Q(x1, x2, x3, x4) :- R1(x1, x2), R2(x2, x3), R3(x3, x4)"
TOKEN = "open-sesame"


def signature(results):
    return [(round(r.weight, 6), r.output_tuple) for r in results]


def wire_signature(rows):
    return [
        (
            round(row["weight"], 6),
            tuple(row["assignment"][v] for v in ("x1", "x2", "x3", "x4")),
        )
        for row in rows
    ]


def get_json(address, path: str) -> dict:
    conn = http.client.HTTPConnection(*address)
    conn.request("GET", path)
    response = conn.getresponse()
    assert response.status == 200
    body = json.loads(response.read())
    conn.close()
    return body


def fetch_total(client) -> int:
    """Fetches the deployment has timed, off its stats document."""
    return client.stats()["metrics"]["repro_fetch_latency_seconds"]["count"]


@pytest.fixture(scope="module")
def engine():
    engine = Engine(uniform_database(3, 40, domain_size=5, seed=9))
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def baseline(engine):
    return signature(engine.prepare(path_query(3)).top(60))


@pytest.fixture(scope="module")
def gateway(engine):
    """An open (no auth, no limits) gateway."""
    with GatewayThread(engine, slice_size=8) as address:
        yield address


@pytest.fixture
def client(gateway):
    with HttpServeClient(*gateway) as c:
        yield c


# -- plumbing ------------------------------------------------------------------


class TestHttpPlumbing:
    def test_healthz(self, client):
        assert client.healthz() == {"ok": True, "status": "serving"}

    def test_unknown_route_is_404(self, gateway):
        conn = http.client.HTTPConnection(*gateway)
        conn.request("GET", "/nope")
        response = conn.getresponse()
        assert response.status == 404
        assert json.loads(response.read())["error"] == "bad_request"
        conn.close()

    def test_method_not_allowed(self, gateway):
        conn = http.client.HTTPConnection(*gateway)
        conn.request("POST", "/metrics", body=b"{}")
        response = conn.getresponse()
        assert response.status == 405
        assert response.getheader("Allow") == "GET"
        conn.close()

    def test_malformed_body_is_400(self, gateway):
        conn = http.client.HTTPConnection(*gateway)
        conn.request(
            "POST", "/v1/prepare", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 400
        conn.close()

    def test_keep_alive_serves_many_requests(self, client):
        for _ in range(5):
            assert client.healthz()["ok"]

    def test_unknown_session_maps_to_404(self, gateway):
        conn = http.client.HTTPConnection(*gateway)
        conn.request(
            "POST", "/v1/fetch",
            body=json.dumps(
                {"session": "ghost", "cursor": "c0", "n": 1}
            ).encode(),
        )
        response = conn.getresponse()
        assert response.status == 404
        assert json.loads(response.read())["error"] == "unknown_session"
        conn.close()

    def test_boolean_fetch_size_rejected_over_http(self, client):
        """The shared OpDispatcher validation covers the HTTP path too."""
        cursor = client.prepare("boolh", QUERY)["cursor"]
        with pytest.raises(ServeClientError, match="bad_request"):
            client.fetch("boolh", cursor, n=True)


# -- pagination bit-identity ---------------------------------------------------


class TestHttpPagination:
    def test_http_prefix_matches_engine(self, client, baseline):
        cursor = client.prepare("httpage", QUERY)["cursor"]
        rows: list[dict] = []
        for _ in range(6):
            page = client.fetch("httpage", cursor, 10)
            rows.extend(page.results)
        assert wire_signature(rows) == baseline
        client.close_session("httpage")

    def test_http_tcp_and_client_paths_bit_identical(
        self, engine, gateway, baseline
    ):
        """The acceptance criterion: paginated results over HTTP are
        bit-identical to the TCP path and the sync ServeClient."""
        with ServerThread(engine, slice_size=8) as tcp_address:
            with ServeClient(*tcp_address) as tcp:
                cursor = tcp.prepare("xport-tcp", QUERY)["cursor"]
                tcp_rows = []
                while len(tcp_rows) < 60:
                    tcp_rows.extend(
                        tcp.fetch("xport-tcp", cursor, 10).results
                    )
        with HttpServeClient(*gateway) as http_client:
            cursor = http_client.prepare("xport-http", QUERY)["cursor"]
            http_rows = []
            while len(http_rows) < 60:
                http_rows.extend(
                    http_client.fetch("xport-http", cursor, 10).results
                )
        assert wire_signature(http_rows[:60]) == baseline
        assert http_rows[:60] == tcp_rows[:60]  # full JSON payload equality

    def test_pagination_is_stateful_and_exhausts(self, engine, client):
        total = len(list(engine.prepare(path_query(2)).iter()))
        cursor = client.prepare(
            "httpdrain", "Q(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)"
        )["cursor"]
        rows = client.fetch_all("httpdrain", cursor, page_size=64)
        assert len(rows) == total
        page = client.fetch("httpdrain", cursor, 5)
        assert page.served == 0
        assert page.exhausted

    def test_explain_and_stats_over_http(self, client):
        cursor = client.prepare("httpex", QUERY)["cursor"]
        assert "strategy: acyclic-tdp" in client.explain("httpex", cursor)
        stats = client.stats()
        assert set(stats) == {"metrics", "sessions"}
        assert stats["sessions"]["httpex"]["cursors"][cursor]["position"] == 0
        for name in ("repro_engine_binds_total", "repro_scheduler_slices_total"):
            assert name in stats["metrics"]


# -- auth ----------------------------------------------------------------------


class TestAuth:
    @pytest.fixture(scope="class")
    def guarded(self, engine):
        policy = AccessPolicy(auth_token=TOKEN)
        with GatewayThread(engine, policy=policy) as address:
            yield address

    def test_missing_token_is_401(self, guarded):
        conn = http.client.HTTPConnection(*guarded)
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        assert response.status == 401
        assert json.loads(response.read())["error"] == "unauthorized"
        conn.close()

    def test_wrong_token_is_401(self, guarded):
        with pytest.raises(ServeClientError, match="unauthorized"):
            HttpServeClient(*guarded, token="wrong").prepare("a", QUERY)

    def test_bearer_header_grants_access(self, guarded):
        with HttpServeClient(*guarded, token=TOKEN) as c:
            response = c.prepare("authed", QUERY)
            assert response["ok"]
            page = c.fetch("authed", response["cursor"], 3)
            assert page.served == 3

    def test_query_param_token_grants_access(self, guarded):
        conn = http.client.HTTPConnection(*guarded)
        conn.request("GET", f"/v1/stats?token={TOKEN}")
        response = conn.getresponse()
        assert response.status == 200
        conn.close()

    def test_healthz_needs_no_token(self, guarded):
        conn = http.client.HTTPConnection(*guarded)
        conn.request("GET", "/healthz")
        assert conn.getresponse().status == 200
        conn.close()


# -- rate limiting -------------------------------------------------------------


class TestThrottling:
    def test_429_with_retry_after_and_no_scheduler_slice(self, engine):
        clock = [0.0]  # frozen: the bucket never refills on its own
        policy = AccessPolicy(rate_limit=1.0, burst=3, clock=lambda: clock[0])
        thread = GatewayThread(engine, policy=policy)
        address = thread.start()
        try:
            manager = thread.server.manager
            with HttpServeClient(*address) as c:
                cursor = c.prepare("burst", QUERY)["cursor"]
                assert c.fetch("burst", cursor, 5).served == 5
                assert c.stats()["metrics"]["repro_sessions_open"] >= 1
                # Bucket (burst=3) is now empty: the edge must reject
                # without touching the cooperative scheduler.
                slices_before = manager.scheduler.slices.value
                conn = http.client.HTTPConnection(*address)
                conn.request(
                    "POST", "/v1/fetch",
                    body=json.dumps(
                        {"session": "burst", "cursor": cursor, "n": 5}
                    ).encode(),
                )
                response = conn.getresponse()
                assert response.status == 429
                payload = json.loads(response.read())
                assert payload["error"] == "throttled"
                assert int(response.getheader("Retry-After")) >= 1
                conn.close()
                assert manager.scheduler.slices.value == slices_before
                assert policy.throttled.value >= 1
                # Refill restores service.
                clock[0] += 10.0
                assert c.fetch("burst", cursor, 5).served == 5
        finally:
            thread.stop()

    def test_healthz_is_never_throttled(self, engine):
        policy = AccessPolicy(rate_limit=1.0, burst=1, clock=lambda: 0.0)
        with GatewayThread(engine, policy=policy) as address:
            with HttpServeClient(*address) as c:
                c.stats()  # consumes the only token
                for _ in range(3):
                    assert c.healthz()["ok"]


# -- metrics -------------------------------------------------------------------


class TestMetrics:
    def test_metrics_shape(self, gateway, client):
        cursor = client.prepare("metrics", QUERY)["cursor"]
        client.fetch("metrics", cursor, 5)
        doc = get_json(gateway, "/metrics")
        assert set(doc) == {"metrics", "sessions"}
        metrics = doc["metrics"]
        assert metrics["repro_gateway_http_requests_total"] >= 2
        for name in (
            "repro_gateway_ws_connections_total",
            "repro_gateway_ws_messages_total",
            "repro_dispatched_requests_total",
            "repro_policy_admitted_total",
            "repro_policy_denied_auth_total",
            "repro_policy_throttled_total",
            "repro_policy_auth_required",
        ):
            assert name in metrics
        fetch_latency = metrics["repro_fetch_latency_seconds"]
        assert fetch_latency["count"] >= 1
        assert len(fetch_latency["buckets"]) == 18
        assert metrics["repro_sessions_open"] >= 1
        assert doc["sessions"]["metrics"]["served"] == 5
        # Engine cache counters ride along (stream/core observability).
        for name in ("stream_hits", "stream_misses", "binds"):
            assert f"repro_engine_{name}_total" in metrics
        assert metrics["repro_scheduler_slices_total"] >= 1

    def test_replayed_page_is_counted_as_replayed(self, engine):
        """Was this page encoded or sent again from the stream's bytes?"""
        def scrape(address) -> tuple[dict, str]:
            conn = http.client.HTTPConnection(*address)
            conn.request("GET", "/metrics?format=prometheus")
            text = conn.getresponse().read().decode("utf-8")
            conn.close()
            counts = {
                kind: int(float(line.split()[-1]))
                for kind in ("encoded", "replayed")
                for line in text.splitlines()
                if line.startswith(f"repro_wire_lines_{kind}_total ")
            }
            return counts, text

        with GatewayThread(Engine(engine.database), slice_size=8) as address:
            with HttpServeClient(*address) as c:
                first = c.prepare("first", QUERY)["cursor"]
                c.fetch("first", first, 20)
                before, _ = scrape(address)
                assert before == {"encoded": 20, "replayed": 0}
                again = c.prepare("again", QUERY)["cursor"]
                c.fetch("again", again, 20)
                after, text = scrape(address)
                assert after == {"encoded": 20, "replayed": 20}
                assert validate_exposition(text) == []
                metrics = c.stats()["metrics"]
                assert (
                    metrics["repro_wire_lines_encoded_total"],
                    metrics["repro_wire_lines_replayed_total"],
                ) == (20, 20)

    def test_fetch_histogram_counts_each_fetch(self, engine):
        with GatewayThread(engine) as address:
            with HttpServeClient(*address) as c:
                cursor = c.prepare("lat", QUERY)["cursor"]
                before = fetch_total(c)
                for _ in range(4):
                    c.fetch("lat", cursor, 2)
                after = fetch_total(c)
        assert after == before + 4


    def test_tcp_fetch_counts_in_the_gateway_scrape(self, engine):
        """Regression: only HTTP and WS fetches fed the latency histogram,
        so a deployment serving JSON-lines traffic reported none of it."""
        def fetch_count(address) -> int:
            conn = http.client.HTTPConnection(*address)
            conn.request("GET", "/metrics?format=prometheus")
            text = conn.getresponse().read().decode("utf-8")
            conn.close()
            (line,) = [
                line for line in text.splitlines()
                if line.startswith("repro_fetch_latency_seconds_count")
            ]
            return int(float(line.split()[-1]))

        tcp = ServerThread(engine)
        tcp_address = tcp.start()
        try:
            with GatewayThread(engine, manager=tcp.server.manager) as address:
                before = fetch_count(address)
                with ServeClient(*tcp_address) as c:
                    cursor = c.prepare("tcplat", QUERY)["cursor"]
                    c.fetch("tcplat", cursor, 3)
                    c.fetch("tcplat", cursor, 3)
                assert fetch_count(address) == before + 2
                with HttpServeClient(*address) as c:
                    assert fetch_total(c) == before + 2
        finally:
            tcp.stop()


# -- websocket -----------------------------------------------------------------


class _SyncWsClient:
    """A minimal blocking WebSocket client for tests (RFC 6455 subset)."""

    def __init__(self, host: str, port: int, token: str | None = None):
        self._sock = socketlib.create_connection((host, port), timeout=30)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        target = "/v1/ws" + (f"?token={token}" if token else "")
        self._sock.sendall(
            (
                f"GET {target} HTTP/1.1\r\nHost: {host}\r\n"
                "Connection: Upgrade\r\nUpgrade: websocket\r\n"
                f"Sec-WebSocket-Key: {key}\r\n\r\n"
            ).encode("latin-1")
        )
        header = b""
        while b"\r\n\r\n" not in header:
            chunk = self._sock.recv(4096)
            if not chunk:
                raise ConnectionError("no handshake response")
            header += chunk
        status_line = header.split(b"\r\n", 1)[0].decode("latin-1")
        self.status = int(status_line.split()[1])
        if self.status == 101:
            assert ws_accept_key(key).encode("ascii") in header
        self._file = self._sock.makefile("rb")

    def send(self, message: dict) -> None:
        payload = json.dumps(message).encode("utf-8")
        mask = os.urandom(4)
        frame = bytearray([0x81])
        if len(payload) < 126:
            frame.append(0x80 | len(payload))
        else:
            frame.append(0x80 | 126)
            frame += len(payload).to_bytes(2, "big")
        frame += mask
        frame += bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
        self._sock.sendall(bytes(frame))

    def recv(self) -> dict:
        head = self._file.read(2)
        length = head[1] & 0x7F
        if length == 126:
            length = int.from_bytes(self._file.read(2), "big")
        elif length == 127:
            length = int.from_bytes(self._file.read(8), "big")
        return json.loads(self._file.read(length))

    def close(self) -> None:
        self._file.close()
        self._sock.close()


class TestWebSocket:
    def test_ws_round_trip_bit_identical(self, gateway, baseline):
        ws = _SyncWsClient(*gateway)
        assert ws.status == 101
        ws.send({"op": "ping"})
        assert ws.recv()["ok"]
        ws.send({"op": "prepare", "session": "wss", "query": QUERY})
        cursor = ws.recv()["cursor"]
        rows: list[dict] = []
        while len(rows) < 60:
            ws.send(
                {"op": "fetch", "session": "wss", "cursor": cursor, "n": 12}
            )
            while True:
                message = ws.recv()
                if "result" in message:
                    rows.append(message["result"])
                    continue
                assert message["ok"], message
                break
        assert wire_signature(rows[:60]) == baseline
        ws.close()

    def test_ws_frame_helpers_round_trip(self):
        frame = ws_encode_frame(b"hello")
        assert frame[0] == 0x81  # FIN + text
        assert frame[1] == 5  # unmasked, length 5
        assert frame[2:] == b"hello"

    def test_ws_requires_auth_at_upgrade(self, engine):
        policy = AccessPolicy(auth_token=TOKEN)
        with GatewayThread(engine, policy=policy) as address:
            denied = _SyncWsClient(*address)
            assert denied.status == 401
            denied._sock.close()
            granted = _SyncWsClient(*address, token=TOKEN)
            assert granted.status == 101
            granted.send({"op": "ping"})
            assert granted.recv()["ok"]
            granted.close()

    def test_ws_bad_json_frame_is_recoverable(self, gateway):
        ws = _SyncWsClient(*gateway)
        payload = b"{broken"
        mask = os.urandom(4)
        frame = bytearray([0x81, 0x80 | len(payload)])
        frame += mask
        frame += bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
        ws._sock.sendall(bytes(frame))
        message = ws.recv()
        assert message["ok"] is False
        assert message["error"] == "bad_request"
        ws.send({"op": "ping"})
        assert ws.recv()["ok"]
        ws.close()


# -- shared manager across transports ------------------------------------------


class TestSharedManager:
    def test_gateway_shares_tcp_server_sessions(self, engine):
        """`repro serve --http-port` wires both transports to one
        SessionManager: a session opened over TCP pages over HTTP."""
        thread = ServerThread(engine, slice_size=8)
        address = thread.start()

        class SharedGatewayThread(GatewayThread):
            server_class = staticmethod(
                lambda engine, **options: GatewayServer(
                    engine, manager=thread.server.manager, **options
                )
            )

        gateway_thread = SharedGatewayThread(engine)
        gateway_address = gateway_thread.start()
        try:
            with ServeClient(*address) as tcp:
                cursor = tcp.prepare("shared-x", QUERY)["cursor"]
                first = tcp.fetch("shared-x", cursor, 10)
            with HttpServeClient(*gateway_address) as via_http:
                second = via_http.fetch("shared-x", cursor, 10)
            assert first.position == 10
            assert second.position == 20
        finally:
            gateway_thread.stop()
            thread.stop()

    def test_one_document_on_every_door(self, engine):
        """TCP ``stats``, ``GET /v1/stats`` and JSON ``GET /metrics`` over
        one manager return one document, and the operator views render
        a TCP ``stats`` reply: sessions, fetch percentiles, memory and
        breaker state."""
        policy = AccessPolicy(breaker=CircuitBreaker())
        thread = ServerThread(engine, slice_size=8, policy=policy)
        address = thread.start()

        class SharedGatewayThread(GatewayThread):
            server_class = staticmethod(
                lambda engine, **options: GatewayServer(
                    engine, manager=thread.server.manager, policy=policy,
                    **options
                )
            )

        gateway_thread = SharedGatewayThread(engine, log_requests=False)
        gateway_address = gateway_thread.start()
        try:
            with ServeClient(*address) as tcp:
                cursor = tcp.prepare("shared-doc", QUERY)["cursor"]
                tcp.fetch("shared-doc", cursor, 10)
                over_tcp = tcp.stats()
            with HttpServeClient(*gateway_address) as via_http:
                over_http = via_http.stats()
            over_metrics = get_json(gateway_address, "/metrics")
        finally:
            gateway_thread.stop()
            thread.stop()
        documents = (over_tcp, over_http, over_metrics)
        for doc in documents:
            assert set(doc) == {"metrics", "sessions"}
            # Idle but for the read itself: a ``stats`` is not counted.
            assert doc["metrics"]["repro_active_requests"] == 0
            assert set(doc["sessions"]) == set(over_tcp["sessions"])
            session = doc["sessions"]["shared-doc"]
            assert set(session) == {"cursors", "served", "budget", "idle_seconds"}
            assert session["served"] == 10
            assert session["cursors"][cursor] == {
                "query": QUERY, "position": 10, "exhausted": False,
            }
        # The gateway answers one registry on both routes; the TCP
        # server's differs only by its framing's own counters.
        assert set(over_http["metrics"]) == set(over_metrics["metrics"])
        framing = {
            name for doc in documents for name in doc["metrics"]
            if name.startswith(("repro_server_", "repro_gateway_"))
        }
        assert set(over_tcp["metrics"]) - framing == (
            set(over_http["metrics"]) - framing
        )
        assert over_tcp["metrics"]["repro_fetch_latency_seconds"]["count"] >= 1

        frame = render_top(over_tcp)
        assert "shared-doc" in frame
        (latency,) = [l for l in frame.splitlines() if l.startswith("fetch")]
        assert "p50 -" not in latency and "p99" in latency
        assert "memory: streams" in frame
        assert "breaker closed (opened 0, rejected 0)" in frame
        page = debug_html(over_tcp)
        assert "<td>shared-doc</td>" in page
        assert "<td>fetch_p99</td>" in page
        assert "<td>stream_bytes</td>" in page
        assert "<td>closed (opened 0, rejected 0)</td>" in page

    def test_gateway_requires_engine_or_manager(self):
        with pytest.raises(ValueError, match="engine or a manager"):
            GatewayServer()


class TestServeCLIGatewayFlags:
    def test_parser_accepts_gateway_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "data/", "--http-port", "8080",
                "--auth-token", "t0k", "--rate-limit", "50",
                "--burst", "100", "--max-frame", "65536",
            ]
        )
        assert args.http_port == 8080
        assert args.auth_token == "t0k"
        assert args.rate_limit == 50.0
        assert args.burst == 100.0
        assert args.max_frame == 65536

    def test_gateway_defaults_off(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "data/"])
        assert args.http_port is None
        assert args.auth_token is None
        assert args.rate_limit is None
