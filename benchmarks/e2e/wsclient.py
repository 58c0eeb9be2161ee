"""A small blocking WebSocket client for the gateway's ``/v1/ws`` endpoint.

The repo ships TCP and HTTP clients but no WebSocket one; the benchmark
owns this RFC 6455 subset (text frames, client-side masking, 7/16/64-bit
lengths, no fragmentation), modelled on ``_SyncWsClient`` in
``tests/test_gateway.py``.  Every socket read carries a timeout.
"""

from __future__ import annotations

import base64
import json
import os
import socket

from repro.serve.client import FetchPage, ServeClientError


class WsClient:
    """``prepare`` / ``fetch`` / ``close_session`` over one WebSocket."""

    def __init__(
        self, host: str, port: int, timeout: float = 30.0, token: str | None = None
    ):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        target = "/v1/ws" + (f"?token={token}" if token else "")
        self._sock.sendall(
            (
                f"GET {target} HTTP/1.1\r\nHost: {host}\r\n"
                "Connection: Upgrade\r\nUpgrade: websocket\r\n"
                "Sec-WebSocket-Version: 13\r\n"
                f"Sec-WebSocket-Key: {key}\r\n\r\n"
            ).encode("latin-1")
        )
        status_line = self._file.readline().decode("latin-1")
        while self._file.readline() not in (b"\r\n", b""):
            pass
        if " 101 " not in status_line:
            self.close()
            raise ConnectionError(f"WebSocket upgrade refused: {status_line!r}")

    def _send(self, message: dict) -> None:
        payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
        mask = os.urandom(4)
        frame = bytearray([0x81])
        if len(payload) < 126:
            frame.append(0x80 | len(payload))
        elif len(payload) < 1 << 16:
            frame.append(0x80 | 126)
            frame += len(payload).to_bytes(2, "big")
        else:
            frame.append(0x80 | 127)
            frame += len(payload).to_bytes(8, "big")
        frame += mask
        # XOR against the repeated mask in one big-int operation.
        repeated = (mask * (len(payload) // 4 + 1))[: len(payload)]
        frame += (
            int.from_bytes(payload, "big") ^ int.from_bytes(repeated, "big")
        ).to_bytes(len(payload), "big")
        self._sock.sendall(bytes(frame))

    def _read_exact(self, n: int) -> bytes:
        data = self._file.read(n)
        if len(data) != n:
            raise ConnectionError("gateway closed the WebSocket")
        return data

    def _recv(self) -> dict:
        head = self._read_exact(2)
        length = head[1] & 0x7F
        if length == 126:
            length = int.from_bytes(self._read_exact(2), "big")
        elif length == 127:
            length = int.from_bytes(self._read_exact(8), "big")
        return json.loads(self._read_exact(length))

    def _final(self, message: dict) -> dict:
        if not message.get("ok", False):
            raise ServeClientError(
                message.get("error", "unknown"), message.get("message", "")
            )
        return message

    def prepare(self, session: str, query: str, algorithm: str = "take2") -> dict:
        self._send(
            {"op": "prepare", "session": session, "query": query,
             "algorithm": algorithm}
        )
        return self._final(self._recv())

    def fetch(self, session: str, cursor: str, n: int) -> FetchPage:
        self._send({"op": "fetch", "session": session, "cursor": cursor, "n": n})
        results: list[dict] = []
        while True:
            message = self._recv()
            if "result" in message:
                results.append(message["result"])
                continue
            self._final(message)
            return FetchPage(
                results, message["served"], message["position"],
                message["exhausted"],
            )

    def close_session(self, session: str) -> None:
        self._send({"op": "close", "session": session})
        self._final(self._recv())

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()
