"""Paginated top-k serving: a client pages through influence chains.

The serving-layer twist on ``influence_paths.py``: instead of a local
enumeration loop, a live asyncio JSON-lines server owns the engine and
a client paginates the heaviest 4-hop follow chains page by page —
each page costs only its own incremental any-k delay, and the already
emitted prefix is never recomputed (not even by a second client).

Part two upgrades to the production front door: the same engine behind
the HTTP gateway, with bearer-token auth, a per-client rate limit, and
a read of its stats document (what ``GET /metrics`` serves) — the
deployment shape of ``repro serve --http-port --auth-token
--rate-limit``.

Run:  python examples/serving_topk.py
"""

from repro import Database, Engine
from repro.data.graphs import graph_statistics, twitter_like
from repro.obs.latency import latency_summary
from repro.serve import (
    AccessPolicy,
    GatewayThread,
    HttpServeClient,
    ServeClient,
    ServeClientError,
    ServerThread,
)


def main() -> None:
    edges = twitter_like(num_nodes=1_000, num_edges=8_000, seed=5)
    stats = graph_statistics(edges)
    print(
        f"follower network: {stats['nodes']} accounts, "
        f"{stats['edges']} follows, max degree {stats['max_degree']}"
    )
    engine = Engine(Database([edges.rename("E")]))

    # In production this is `python -m repro.cli serve`; here the server
    # runs on a daemon thread so one script shows both sides.
    with ServerThread(engine, result_budget=10_000) as (host, port):
        print(f"server listening on {host}:{port}\n")
        with ServeClient(host, port) as client:
            response = client.prepare(
                "analyst",
                "Q(a, b, c, d, e) :- E(a, b), E(b, c), E(c, d), E(d, e)",
                dioid="max-plus",  # heaviest chains first
            )
            cursor = response["cursor"]
            print(f"prepared ({response['strategy']}), paging top chains:")

            rank = 0
            for page_number in range(1, 4):
                page = client.fetch("analyst", cursor, 5)
                print(f"-- page {page_number} --")
                for row in page.results:
                    rank += 1
                    chain = " -> ".join(
                        str(row["assignment"][v]) for v in "abcde"
                    )
                    print(f"  #{rank:<3} influence {row['weight']:8.3f}  {chain}")
                if page.exhausted:
                    break

            # The ranked order is a protocol guarantee (max-plus ranks
            # by largest weight, so the stream is non-increasing).
            weights = []
            client2 = ServeClient(host, port)
            cursor2 = client2.prepare(
                "verifier",
                "Q(a, b, c, d, e) :- E(a, b), E(b, c), E(c, d), E(d, e)",
                dioid="max-plus",
            )["cursor"]
            page = client2.fetch("verifier", cursor2, 15)
            weights = [row["weight"] for row in page.results]
            assert weights == sorted(weights, reverse=True), "not ranked!"
            client2.close()
            print(
                f"\nsecond session re-read the same top-{len(weights)} "
                "without re-enumerating (shared prefix cache)"
            )
            served = client.stats()["metrics"]
            print(
                f"engine: {served['repro_engine_binds_total']} "
                "preprocessing pass(es), "
                f"{served['repro_engine_stream_misses_total']} enumeration "
                f"stream(s) for {2} sessions"
            )

    # -- part two: the HTTP gateway front door ------------------------
    # Same engine, but behind auth + rate limiting at the edge; this is
    # what `repro serve --http-port --auth-token --rate-limit` deploys.
    policy = AccessPolicy(auth_token="s3cret", rate_limit=50.0)
    print("\ngateway: bearer auth + 50 req/s per client")
    with GatewayThread(engine, policy=policy, result_budget=10_000) as (
        host,
        port,
    ):
        try:
            with HttpServeClient(host, port) as anon:
                anon.prepare("intruder", "Q(a, b) :- E(a, b)")
        except ServeClientError as exc:
            print(f"unauthenticated prepare rejected at the edge: {exc.code}")

        with HttpServeClient(host, port, token="s3cret") as http:
            cursor = http.prepare(
                "analyst-http",
                "Q(a, b, c, d, e) :- E(a, b), E(b, c), E(c, d), E(d, e)",
                dioid="max-plus",
            )["cursor"]
            page = http.fetch("analyst-http", cursor, 5)
            print("top chains over HTTP (identical to the TCP ranking):")
            for rank, row in enumerate(page.results, start=1):
                chain = " -> ".join(str(row["assignment"][v]) for v in "abcde")
                print(f"  #{rank:<3} influence {row['weight']:8.3f}  {chain}")

            metrics = http.stats()["metrics"]
            latency = latency_summary(metrics["repro_fetch_latency_seconds"])
            print(
                "gateway metrics: "
                f"{metrics['repro_gateway_http_requests_total']} HTTP "
                f"requests, fetch p95 {latency['p95_ms']:.2f} ms, "
                f"{metrics['repro_sessions_open']} live session(s)"
            )
    engine.close()


if __name__ == "__main__":
    main()
