"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``query``    — ranked enumeration over a directory of CSV relations::

      python -m repro.cli query data/ "Q(x,z) :- R(x,y), S(y,z)" --top 5

* ``explain``  — print the evaluation plan for a query (``--analyze K``
  runs it instrumented and prints the EXPLAIN ANALYZE report: per-stage
  wall time, operation counters, and the TTF/TT(k) delay profile);
* ``trace``    — run a query under an always-sampling tracer and write
  the spans as Chrome trace-event JSON (loadable in Perfetto /
  ``chrome://tracing``)::

      python -m repro.cli trace data/ "Q(x,z) :- R(x,y), S(y,z)" --out trace.json

* ``profile``  — run a query under the sampling profiler and write
  collapsed-stack output (flamegraph-ready) plus a per-stage summary::

      python -m repro.cli profile data/ "Q(x,z) :- R(x,y), S(y,z)" --out profile.txt

* ``top``      — live operator view polling a running gateway's
  ``GET /metrics`` (sessions, latency percentiles, memory, breaker);
* ``generate`` — write one of the paper's synthetic workloads as CSV
  and/or straight into a SQLite file (``--db-path``);
* ``serve``    — start the streaming query server over a dataset::

      python -m repro.cli serve data/ --port 7654

  Clients speak the JSON-lines protocol of :mod:`repro.serve.protocol`
  (``prepare``/``fetch``/``explain``/``close``); see
  :class:`repro.serve.client.ServeClient`.

Relations are CSV files named ``<relation>.csv`` with a trailing weight
column (see :mod:`repro.data.io`).  Constants in queries (``R(x, 5)``)
are compiled into selections automatically.

Storage backends (``--backend memory|sqlite``): with ``--backend
sqlite --db-path data.db`` the query runs over a persistent SQLite
database.  An empty/missing ``.db`` file is populated once from the
CSV directory; a populated one is opened directly — the CSV directory
may then be omitted, and repeated invocations skip ingestion entirely
(the cross-process warm start).
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.io import load_database, save_database
from repro.engine import Engine
from repro.ranking.dioid import NAMED_DIOIDS

#: Kept as a module-level alias: the flag choices below and the serving
#: protocol resolve ranking functions through the same shared registry.
DIOIDS = NAMED_DIOIDS


def _answer_count(text: str) -> int:
    """``--top``: a non-negative int (0 = all), else an argparse usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative int (0 = all), got {text!r}"
        )
    return value


def _sampling_rate(text: str) -> float:
    """``--hz``: a positive finite number, else an argparse usage error."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ranked enumeration of conjunctive-query answers (any-k).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_backend_options(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--backend", default="memory",
                         choices=["memory", "sqlite"],
                         help="where relation tuples live (default: memory)")
        cmd.add_argument("--db-path", default=None, metavar="FILE",
                         help="SQLite database file (required with "
                              "--backend sqlite); ingested from the CSV "
                              "directory when empty, reused as-is otherwise")
        cmd.add_argument("--core-cache", default="auto",
                         choices=["auto", "on", "off"],
                         help="persist compiled enumeration cores next to "
                              "the SQLite file (<db>.core) and warm-start "
                              "from them (default: auto — on for "
                              "file-backed databases)")

    query_cmd = commands.add_parser("query", help="run a ranked query")
    query_cmd.add_argument("data", nargs="?", default=None,
                           help="directory of CSV relations (optional when "
                                "an already-populated --db-path is given)")
    query_cmd.add_argument("text", help="query, e.g. 'Q(x) :- R(x, y)'")
    add_backend_options(query_cmd)
    query_cmd.add_argument("--top", type=_answer_count, default=10,
                           help="number of results (default 10; 0 = all)")
    query_cmd.add_argument("--algorithm", default="take2",
                           choices=["take2", "lazy", "eager", "all",
                                    "recursive", "batch"])
    query_cmd.add_argument("--dioid", default="tropical",
                           choices=sorted(DIOIDS))
    query_cmd.add_argument("--projection", default="all_weight",
                           choices=["all_weight", "min_weight"])
    query_cmd.add_argument("--witness", action="store_true",
                           help="also print witnesses")
    query_cmd.add_argument("--time", action="store_true",
                           help="print preprocessing vs enumeration time")
    query_cmd.add_argument("--repeat", type=int, default=1,
                           help="run the query this many times, reusing the "
                                "prepared plan (preprocessing paid once)")

    explain_cmd = commands.add_parser("explain", help="show the query plan")
    explain_cmd.add_argument("data", nargs="?", default=None,
                             help="directory of CSV relations (optional when "
                                  "an already-populated --db-path is given)")
    explain_cmd.add_argument("text", help="the query")
    add_backend_options(explain_cmd)
    explain_cmd.add_argument("--analyze", type=_answer_count, default=None,
                             metavar="K",
                             help="EXPLAIN ANALYZE: run the query "
                                  "instrumented, enumerate the top K "
                                  "answers (0 = all), and report per-stage "
                                  "wall time, counters, and delay profile")
    explain_cmd.add_argument("--algorithm", default="take2",
                             choices=["take2", "lazy", "eager", "all",
                                      "recursive", "batch"],
                             help="any-k variant for --analyze")

    trace_cmd = commands.add_parser(
        "trace", help="run a query traced; export Chrome trace-event JSON"
    )
    trace_cmd.add_argument("data", nargs="?", default=None,
                           help="directory of CSV relations (optional when "
                                "an already-populated --db-path is given)")
    trace_cmd.add_argument("text", help="the query")
    add_backend_options(trace_cmd)
    trace_cmd.add_argument("--top", type=_answer_count, default=10,
                           help="answers to enumerate (default 10; 0 = all)")
    trace_cmd.add_argument("--out", default="trace.json", metavar="FILE",
                           help="trace-event JSON output path "
                                "(default: trace.json)")
    trace_cmd.add_argument("--algorithm", default="take2",
                           choices=["take2", "lazy", "eager", "all",
                                    "recursive", "batch"])
    trace_cmd.add_argument("--dioid", default="tropical",
                           choices=sorted(DIOIDS))
    trace_cmd.add_argument("--analyze", action="store_true",
                           help="also print the EXPLAIN ANALYZE report")

    serve_cmd = commands.add_parser(
        "serve", help="start the streaming query server over a dataset"
    )
    serve_cmd.add_argument("data", nargs="?", default=None,
                           help="directory of CSV relations (optional when "
                                "an already-populated --db-path is given)")
    add_backend_options(serve_cmd)
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=7654,
                           help="TCP port (default 7654; 0 = ephemeral)")
    serve_cmd.add_argument("--max-sessions", type=int, default=64,
                           help="LRU-evict named sessions beyond this count")
    serve_cmd.add_argument("--ttl", type=float, default=None, metavar="SECONDS",
                           help="expire sessions idle for this long")
    serve_cmd.add_argument("--budget", type=int, default=None,
                           help="per-session cap on total served results")
    serve_cmd.add_argument("--slice", type=int, default=64, metavar="RESULTS",
                           help="scheduler time-slice: results enumerated "
                                "between event-loop yields (default 64)")
    serve_cmd.add_argument("--http-port", type=int, default=None, metavar="PORT",
                           help="also serve the HTTP/WebSocket gateway on "
                                "this port (0 = ephemeral; default: off)")
    serve_cmd.add_argument("--auth-token", default=None, metavar="TOKEN",
                           help="require this bearer token on every request "
                                "(TCP and HTTP alike; default: open)")
    serve_cmd.add_argument("--rate-limit", type=float, default=None,
                           metavar="REQ_PER_SEC",
                           help="per-client sustained request rate; excess "
                                "is rejected at the edge with 429/"
                                "ERR_THROTTLED (default: unlimited)")
    serve_cmd.add_argument("--burst", type=float, default=None, metavar="N",
                           help="rate-limit burst capacity (default: "
                                "max(1, rate-limit))")
    serve_cmd.add_argument("--max-frame", type=int, default=1 << 20,
                           metavar="BYTES",
                           help="largest accepted request frame (default 1MiB)")
    serve_cmd.add_argument("--trace-sample", default=None, metavar="RATIO",
                           help="trace requests through the engine: 'off' "
                                "(default), 'always', or a sample ratio in "
                                "[0,1]; spans land in a bounded in-process "
                                "ring buffer, which no endpoint serves: "
                                "GET /metrics reports only their counts "
                                "(repro_tracing_recorded / _dropped / "
                                "_buffered)")
    serve_cmd.add_argument("--max-in-flight", type=int, default=None,
                           metavar="N",
                           help="shed fetches beyond N concurrently "
                                "executing ones with 503/ERR_OVERLOADED "
                                "(default: unlimited)")
    serve_cmd.add_argument("--breaker-threshold", type=int, default=None,
                           metavar="N",
                           help="open a circuit breaker after N consecutive "
                                "internal failures, shedding prepare/fetch "
                                "until it half-opens (default: off)")
    serve_cmd.add_argument("--breaker-reset", type=float, default=30.0,
                           metavar="SECONDS",
                           help="seconds an open breaker waits before "
                                "letting a probe request through "
                                "(default 30)")
    serve_cmd.add_argument("--drain", type=float, default=0.0,
                           metavar="SECONDS",
                           help="on shutdown, stop accepting connections "
                                "but let in-flight requests finish for up "
                                "to this long (default 0: immediate)")

    profile_cmd = commands.add_parser(
        "profile",
        help="run a query under the sampling profiler; write collapsed stacks",
    )
    profile_cmd.add_argument("data", nargs="?", default=None,
                             help="directory of CSV relations (optional when "
                                  "an already-populated --db-path is given)")
    profile_cmd.add_argument("text", help="the query")
    add_backend_options(profile_cmd)
    profile_cmd.add_argument("--top", type=_answer_count, default=10,
                             help="answers to enumerate per run "
                                  "(default 10; 0 = all)")
    profile_cmd.add_argument("--algorithm", default="take2",
                             choices=["take2", "lazy", "eager", "all",
                                      "recursive", "batch"])
    profile_cmd.add_argument("--dioid", default="tropical",
                             choices=sorted(DIOIDS))
    profile_cmd.add_argument("--repeat", type=int, default=1,
                             help="enumeration passes over the prepared plan "
                                  "(more passes = more samples)")
    profile_cmd.add_argument("--hz", type=_sampling_rate, default=97.0,
                             help="sampling rate (default 97)")
    profile_cmd.add_argument("--min-seconds", type=float, default=0.5,
                             metavar="S",
                             help="keep re-running the enumeration until this "
                                  "much wall time has passed, so fast queries "
                                  "still collect samples (default 0.5)")
    profile_cmd.add_argument("--out", default="profile.txt", metavar="FILE",
                             help="collapsed-stack output path "
                                  "(default: profile.txt)")

    top_cmd = commands.add_parser(
        "top", help="live operator view over a running gateway's /metrics"
    )
    top_cmd.add_argument("--url", default="http://127.0.0.1:8080/metrics",
                         help="gateway metrics endpoint "
                              "(default: http://127.0.0.1:8080/metrics)")
    top_cmd.add_argument("--interval", type=float, default=2.0,
                         help="seconds between polls (default 2)")
    top_cmd.add_argument("--iterations", type=int, default=None, metavar="N",
                         help="render N frames then exit "
                              "(default: run until interrupted)")
    top_cmd.add_argument("--token", default=None, metavar="TOKEN",
                         help="bearer token if the gateway requires auth")

    gen_cmd = commands.add_parser(
        "generate", help="write a synthetic workload as CSV and/or SQLite"
    )
    gen_cmd.add_argument("kind", choices=["uniform", "cycle-worst-case",
                                          "bitcoin-like", "twitter-like"])
    gen_cmd.add_argument("out", nargs="?", default=None,
                         help="output CSV directory (optional with --db-path)")
    gen_cmd.add_argument("--db-path", default=None, metavar="FILE",
                         help="also/instead write into this SQLite file")
    gen_cmd.add_argument("--relations", type=int, default=3)
    gen_cmd.add_argument("--tuples", type=int, default=1000)
    gen_cmd.add_argument("--seed", type=int, default=0)
    return parser


def _open_database(args: argparse.Namespace) -> Database:
    """Open the queried database per ``--backend``/``--db-path``/``data``."""
    if args.backend == "sqlite":
        if not args.db_path:
            raise SystemExit("--backend sqlite requires --db-path FILE")
        backend = SQLiteBackend(args.db_path)
        if backend.relation_names():
            # Warm start: the file already holds the dataset.
            return backend.database()
        if args.data is None:
            backend.close()
            raise SystemExit(
                f"{args.db_path}: empty database and no CSV directory given"
            )
        return load_database(args.data, backend=backend)
    if args.data is None:
        raise SystemExit("a CSV data directory is required with --backend memory")
    return load_database(args.data)


def _command_query(args: argparse.Namespace) -> int:
    import time

    engine = Engine(_open_database(args), core_cache=args.core_cache)
    limit = None if args.top == 0 else args.top
    repeats = max(1, args.repeat)
    count = 0
    for run in range(repeats):
        # prepare() inside the timed region so run 1's "preprocessing"
        # covers parse + logical planning + binding (matching the
        # runner's phase definition); later runs hit the caches.
        start = time.perf_counter()
        prepared = engine.prepare(
            args.text,
            dioid=DIOIDS[args.dioid],
            algorithm=args.algorithm,
            projection=args.projection,
        )
        prepared.bind()
        preprocess = time.perf_counter() - start
        # Answers are collected during the timed region and printed
        # after it, so run 1's enumeration time is not inflated by
        # terminal I/O relative to the print-free later runs.
        collected = []
        enum_start = time.perf_counter()
        count = 0
        for result in itertools.islice(prepared.iter(), limit):
            count += 1
            if run == 0:
                collected.append(result)
        enumeration = time.perf_counter() - enum_start
        for index, result in enumerate(collected, start=1):
            # One read per field: on a view, a read is a decode.
            assignment = result.assignment
            row = ", ".join(f"{v}={assignment[v]}" for v in prepared.query.head)
            line = f"#{index:<4} weight={result.weight}  {row}"
            witness = result.witness if args.witness else None
            if witness is not None:
                line += f"  witness={witness}"
            print(line)
        if run == 0 and count == 0:
            print("(no results)")
        if args.time or repeats > 1:
            print(
                f"run {run + 1}: preprocessing={preprocess * 1e3:.2f} ms  "
                f"enumeration={enumeration * 1e3:.2f} ms  ({count} results)"
            )
    engine.close()
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    engine = Engine(_open_database(args), core_cache=args.core_cache)
    if args.analyze is not None:
        prepared = engine.prepare(args.text, algorithm=args.algorithm)
        k = None if args.analyze == 0 else args.analyze
        print(prepared.analyze(k).render())
        engine.close()
        return 0
    # One parse, one bind: the physical report reuses the bound T-DP's
    # statistics instead of rebuilding the plan a second time.
    print(engine.explain(args.text))
    engine.close()
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import write_chrome_trace
    from repro.obs.trace import Tracer

    tracer = Tracer(capacity=65536, sample="always")
    engine = Engine(
        _open_database(args), core_cache=args.core_cache, tracer=tracer
    )
    prepared = engine.prepare(
        args.text,
        dioid=DIOIDS[args.dioid],
        algorithm=args.algorithm,
    )
    k = None if args.top == 0 else args.top
    # analyze() records its run into the engine tracer, so the exported
    # trace and the printed report describe the same spans.
    report = prepared.analyze(k, tracer=tracer)
    if args.analyze:
        print(report.render())
    events = write_chrome_trace(args.out, tracer)
    print(f"wrote {events} trace events to {args.out} "
          f"(load in Perfetto or chrome://tracing)")
    engine.close()
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    import logging

    from repro.obs.trace import tracer_from_option
    from repro.serve.gateway import GatewayServer
    from repro.serve.policy import AccessPolicy
    from repro.serve.server import ServeServer

    # The gateway emits one JSON line per request on this logger; give
    # it a handler so `repro serve` actually shows the access log.
    logging.basicConfig(level=logging.INFO, format="%(message)s")

    engine = Engine(
        _open_database(args),
        core_cache=args.core_cache,
        tracer=tracer_from_option(args.trace_sample),
    )
    warmed = engine.warm_start()
    # One policy object for both transports: auth + rate limits cannot
    # diverge between the TCP port and the HTTP gateway.
    policy = None
    breaker = None
    if args.breaker_threshold is not None:
        from repro.util.resilience import CircuitBreaker

        breaker = CircuitBreaker(
            failure_threshold=args.breaker_threshold,
            reset_timeout=args.breaker_reset,
        )
    if (
        args.auth_token is not None
        or args.rate_limit is not None
        or args.max_in_flight is not None
        or breaker is not None
    ):
        policy = AccessPolicy(
            auth_token=args.auth_token,
            rate_limit=args.rate_limit,
            burst=args.burst,
            breaker=breaker,
            max_in_flight=args.max_in_flight,
        )
    server = ServeServer(
        engine,
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        ttl_seconds=args.ttl,
        result_budget=args.budget,
        slice_size=args.slice,
        policy=policy,
        max_frame_bytes=args.max_frame,
        drain_s=args.drain,
    )
    gateway = None
    if args.http_port is not None:
        # The gateway shares the TCP server's SessionManager, so a
        # session opened over one transport is visible on the other.
        gateway = GatewayServer(
            engine,
            host=args.host,
            port=args.http_port,
            manager=server.manager,
            policy=policy,
            max_frame_bytes=args.max_frame,
            drain_s=args.drain,
        )

    async def main() -> None:
        host, port = await server.start()
        relations = ", ".join(
            f"{rel.name}[{len(rel)}]" for rel in engine.database
        )
        print(f"serving {relations}")
        if warmed:
            print(f"warm-started {warmed} plan(s) from the compiled core file")
        print(f"listening on {host}:{port}  (JSON lines; ops: "
              "prepare, fetch, explain, close, stats, ping)")
        servers = [server.serve_forever()]
        if gateway is not None:
            ghost, gport = await gateway.start()
            print(f"gateway on http://{ghost}:{gport}  (POST /v1/prepare, "
                  "/v1/fetch, /v1/close; GET /metrics, /healthz, /v1/ws)")
            servers.append(gateway.serve_forever())
        if policy is not None:
            auth = "token required" if policy.auth_token else "open"
            limit = (
                f"{policy.rate_limit:g} req/s (burst {policy.burst:g})"
                if policy.rate_limit else "unlimited"
            )
            print(f"edge policy: {auth}, rate limit {limit}")
            if policy.breaker is not None or policy.max_in_flight is not None:
                parts = []
                if policy.breaker is not None:
                    parts.append(
                        f"breaker trips after "
                        f"{policy.breaker.failure_threshold} failures"
                    )
                if policy.max_in_flight is not None:
                    parts.append(
                        f"max {policy.max_in_flight} in-flight fetches"
                    )
                print(f"overload gate: {', '.join(parts)}")
        await asyncio.gather(*servers)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        engine.close()
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    import time

    from repro.obs.profiler import SamplingProfiler

    engine = Engine(_open_database(args), core_cache=args.core_cache)
    prepared = engine.prepare(
        args.text, dioid=DIOIDS[args.dioid], algorithm=args.algorithm
    )
    prepared.bind()
    limit = None if args.top == 0 else args.top
    repeats = max(1, args.repeat)
    profiler = SamplingProfiler(hz=args.hz)
    started = time.perf_counter()
    count = 0
    passes = 0
    with profiler:
        # Honour both floors: at least --repeat passes, and keep
        # looping past them until --min-seconds of wall time has been
        # sampled (fast queries would otherwise yield zero samples).
        while passes < repeats or (
            time.perf_counter() - started < args.min_seconds
        ):
            count = sum(1 for _ in itertools.islice(prepared.iter(), limit))
            passes += 1
    elapsed = time.perf_counter() - started
    with open(args.out, "w", encoding="utf-8") as handle:
        collapsed = profiler.collapsed()
        handle.write(collapsed + ("\n" if collapsed else ""))
    stages = profiler.stage_summary()
    total = sum(stages.values()) or 1
    print(f"profiled {passes} enumeration pass(es) ({count} results each) "
          f"in {elapsed:.2f}s at {args.hz:g} Hz")
    print(f"{profiler.samples} snapshots -> {args.out} (collapsed stacks)")
    for stage, tally in sorted(stages.items(), key=lambda kv: -kv[1]):
        print(f"  {stage:<10} {tally:>6}  ({100.0 * tally / total:.1f}%)")
    engine.close()
    return 0


def _command_top(args: argparse.Namespace) -> int:
    from urllib.error import URLError

    from repro.obs.top import run_top

    try:
        frames = run_top(
            args.url,
            interval=args.interval,
            iterations=args.iterations,
            token=args.token,
        )
    except URLError as exc:
        print(f"cannot reach {args.url}: {exc.reason}", file=sys.stderr)
        return 1
    return 0 if frames else 1


def _command_generate(args: argparse.Namespace) -> int:
    from repro.data.generators import (
        uniform_database,
        worst_case_cycle_database,
    )
    from repro.data.graphs import bitcoin_otc_like, twitter_like

    if args.kind == "uniform":
        database = uniform_database(args.relations, args.tuples, seed=args.seed)
    elif args.kind == "cycle-worst-case":
        database = worst_case_cycle_database(
            args.relations, args.tuples, seed=args.seed
        )
    elif args.kind == "bitcoin-like":
        database = Database(
            [bitcoin_otc_like(num_nodes=max(4, args.tuples // 6),
                              num_edges=args.tuples, seed=args.seed)]
        )
    else:
        database = Database(
            [twitter_like(num_nodes=max(4, args.tuples // 8),
                          num_edges=args.tuples, seed=args.seed)]
        )
    if args.out is None and args.db_path is None:
        raise SystemExit("generate needs an output directory and/or --db-path")
    if args.out is not None:
        save_database(database, args.out)
        print(f"wrote {len(database)} relations "
              f"({database.total_tuples()} tuples) to {args.out}")
    if args.db_path is not None:
        with SQLiteBackend(args.db_path) as backend:
            for relation in database:
                backend.ingest(relation)
        print(f"wrote {len(database)} relations "
              f"({database.total_tuples()} tuples) to {args.db_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "query":
        return _command_query(args)
    if args.command == "explain":
        return _command_explain(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "profile":
        return _command_profile(args)
    if args.command == "top":
        return _command_top(args)
    if args.command == "generate":
        return _command_generate(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
