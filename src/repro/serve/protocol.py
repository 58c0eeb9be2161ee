"""The JSON-lines wire protocol of the streaming query server.

One request per line, JSON-encoded; responses are one or more lines.
Every request carries ``op`` plus op-specific fields:

``prepare``
    ``{"op": "prepare", "session": "s1", "query": "Q(x,z) :- R(x,y), S(y,z)",
    "algorithm": "take2", "dioid": "tropical", "projection": "all_weight",
    "budget": 1000}`` → ``{"ok": true, "op": "prepare", "cursor": "c0",
    "strategy": "acyclic-tdp", "shards": null}``.  Opens (or touches)
    the session and returns a cursor positioned at rank 0.  Optional
    ``"shards": N`` binds through the parallel execution layer
    (fragment-sharded T-DPs merged by a ranked k-way merge; see
    :mod:`repro.parallel`), with optional ``shard_tie_break``
    (``"arrival"``/``"canonical"``), ``shard_strategy``
    (``"range"``/``"hash"``), and ``shard_parallel`` (``"auto"``/
    ``"fused"``/``"thread"``) refinements; the
    per-session ``stats`` entries then report the cursor's shard
    configuration.

``fetch``
    ``{"op": "fetch", "session": "s1", "cursor": "c0", "n": 10}`` →
    ten ``{"result": {"index": i, "weight": w, "assignment": {...}}}``
    lines (streamed a scheduler slice at a time as they are enumerated,
    honouring transport backpressure) followed by the terminator
    ``{"ok": true, "op": "fetch", "served": 10, "position": 10,
    "exhausted": false}``.  Lines are compact JSON, so a result line
    always starts with the bytes ``{"result":`` (:data:`RESULT_PREFIX`)
    and a terminator never does.  Repeating the request returns the
    *next* page — pagination is the default, no offset bookkeeping
    client-side.

``explain``
    → ``{"ok": true, "op": "explain", "plan": "..."}`` (the bound
    physical plan report).

``close``
    With ``cursor``: closes one cursor.  Without: closes the whole
    session.  → ``{"ok": true, "op": "close"}``.

``stats`` / ``ping``
    Server observability and liveness.

Errors are single lines ``{"ok": false, "error": "<code>", "message":
"..."}``; the connection stays usable (one bad request does not tear
down the session).

Weights may be floats, ints, bools, or tuples (lexicographic dioids);
tuples are transported as JSON arrays.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from repro.enumeration.result import QueryResult

#: Protocol error codes (mirrored by ServeError subclasses).
ERR_BAD_REQUEST = "bad_request"
ERR_UNKNOWN_OP = "unknown_op"
ERR_UNKNOWN_SESSION = "unknown_session"
ERR_UNKNOWN_CURSOR = "unknown_cursor"
ERR_BUDGET = "budget_exceeded"
ERR_QUERY = "bad_query"
ERR_INTERNAL = "internal"
#: Edge rejections (see :mod:`repro.serve.policy`): the request never
#: reached the session manager or consumed a scheduler slice.
ERR_UNAUTHORIZED = "unauthorized"
ERR_THROTTLED = "throttled"
#: Load shed at the edge (circuit breaker open or too many in-flight
#: fetches); responses carry ``retry_after`` seconds.  HTTP: 503.
ERR_OVERLOADED = "overloaded"
#: A fetch whose deadline expired before enumerating a single result.
#: Partial pages are *not* errors — they return ``ok`` terminators with
#: ``"deadline_exceeded": true``.  HTTP: 504.
ERR_DEADLINE = "deadline_exceeded"

#: Ops a server must implement.
OPS = ("prepare", "fetch", "explain", "close", "stats", "ping")


def valid_int(value: Any) -> bool:
    """Whether ``value`` is a JSON integer (rejecting booleans).

    ``bool`` is an ``int`` subclass in Python, so a bare ``isinstance``
    check lets JSON ``true``/``false`` masquerade as ``1``/``0`` — e.g.
    ``{"shards": true}`` silently preparing a 1-shard plan.  Every
    integer-valued protocol field validates through here instead.
    """
    return isinstance(value, int) and not isinstance(value, bool)


def valid_ms(value: Any) -> bool:
    """Whether ``value`` is a positive JSON number (for ``deadline_ms``)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and value > 0
    )


#: The one compiled encoder behind :func:`encode` (``json.dumps`` would
#: build a fresh ``JSONEncoder`` per call).
_encode_json = json.JSONEncoder(separators=(",", ":")).encode

#: How every result line starts — what tells it from a terminator
#: without decoding it.
RESULT_PREFIX = b'{"result":'


def encode(message: dict) -> bytes:
    """One protocol line: compact JSON plus the newline terminator.

    Called once per line and nowhere else.  A result line is encoded
    here once per stream rank (:func:`result_lines` keeps the bytes on
    the answer, so every later fetch of that rank — any session, any
    transport — sends them again) and those bytes are what every
    transport sends: TCP joins a slice's lines into one buffer,
    WebSocket frames each line, HTTP splices them into its body
    (:func:`join_results`); none re-encodes.

    No ``default=`` hook: tuples encode as arrays natively, and a value
    json cannot represent should fail with the standard, descriptive
    ``TypeError`` (a hook returning the object unchanged would turn it
    into an opaque circular-reference error instead).
    """
    return (_encode_json(message) + "\n").encode("utf-8")


def decode(line: bytes | str) -> dict:
    """Parse one protocol line; raises ``ValueError`` on malformed input."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    message = json.loads(line)
    if not isinstance(message, dict):
        raise ValueError(f"protocol messages are JSON objects, got {line!r}")
    return message


def result_message(index: int, result: QueryResult) -> dict:
    """The wire form of one ranked answer.

    Weight, assignment and witness ids go to the encoder as they are
    (tuples become arrays there), so the message aliases the result:
    encode it, do not mutate it.  Each field is read once: on a view a
    read is a decode, and the first encode of an answer is its first
    reader.
    """
    payload: dict[str, Any] = {
        "index": index,
        "weight": result.weight,
        "assignment": result.assignment,
    }
    witness_ids = result.witness_ids
    if witness_ids is not None:
        payload["witness_ids"] = witness_ids
    return {"result": payload}


def result_lines(
    start_rank: int, page: Sequence[QueryResult]
) -> tuple[list[bytes], int]:
    """The encoded lines of ``page`` served at ranks ``start_rank``…,
    and how many of them had to be encoded now.

    The line for rank *i* of a stream is a pure function of
    ``(i, result)``, so it is built once and kept where the answer is
    kept: on the :class:`QueryResult` itself (``_wire``), which the
    stream memoizes.  The bytes therefore live exactly as long as the
    memoized answer — a rebuilt stream, a refreshed cursor or a mutated
    database hand out new results, hence new lines — and a replayed
    page costs no encoding at all.  An answer that arrives at another
    index than the one it holds a line for is encoded again.

    The owner of ``_wire``: nothing else reads or writes it (the
    stream's memory estimate only sizes it).  A result must not be
    mutated once it was served — it is the stream's memo, so it
    already must not — or its held line goes stale.  Two threads
    filling the same rank store equal tuples.
    """
    lines: list[bytes] = []
    encoded = 0
    for index, result in enumerate(page, start_rank):
        held = getattr(result, "_wire", None)
        if held is None or held[0] != index:
            held = result._wire = (
                index, encode(result_message(index, result))
            )
            encoded += 1
        lines.append(held[1])
    return lines, encoded


def join_results(lines: list[bytes]) -> bytes:
    """A page's encoded result lines as one JSON array of their payloads.

    Pure byte splicing — ``{"result":X}\\n`` contributes ``X`` — so the
    HTTP body carries the bytes :func:`encode` produced, and a client
    parses a whole page with one ``json.loads``.
    """
    start = len(RESULT_PREFIX)
    return b"[" + b",".join([line[start:-2] for line in lines]) + b"]"


def ok(op: str, **fields: Any) -> dict:
    """A success terminator/response line."""
    message = {"ok": True, "op": op}
    message.update(fields)
    return message


def error(code: str, message: str, **fields: Any) -> dict:
    """An error response line (extra fields ride along, e.g.
    ``retry_after`` on throttled/overloaded rejections)."""
    payload = {"ok": False, "error": code, "message": message}
    payload.update(fields)
    return payload


def error_line(code: str, message: str, **fields: Any) -> bytes:
    """:func:`error`, encoded: what a server writes to refuse a request."""
    return encode(error(code, message, **fields))
