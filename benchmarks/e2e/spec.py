"""Names, units, bounds and sizes: the one place the benchmark is defined.

``BENCHMARK.json`` is generated from this module (``--emit-spec``), the
workload runners read their sizes from it, and ``--compare`` reads the
regression bounds from it — so a name or a bound is written down once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Length of the measuring phase of one run, in seconds.
RUN_SECONDS = 15
#: Seed used when none is given (the repo's benchmark seed since PR 3).
DEFAULT_SEED = 93
#: How many times a run repeats its set-up; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Every timing metric is computed per block; a run reports the median block.
BLOCKS = 5


@dataclass(frozen=True)
class Workload:
    """One set of inputs plus the request shape driven over it.

    ``mode`` selects the caller: ``cold`` builds a fresh engine per
    request, ``extend`` pages one bound plan on a fresh stream per
    request, ``tcp`` / ``http`` drive the server child.
    """

    name: str
    why: str
    mode: str
    shape: str
    tuples: int
    domain: int
    k: int
    page: int
    dioid: str = "tropical"
    weight_high: float = 10_000.0
    relations: int = 4

    def smoke(self) -> "Workload":
        """The same workload ~10x smaller (same join degree, same checks)."""
        return replace(
            self,
            tuples=max(50, self.tuples // 10),
            domain=max(5, self.domain // 10),
            k=max(self.page * 2, self.k // 10),
        )


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="cold_bind",
        why=(
            "fresh engine per request on a 20k-tuple 4-path: plan, T-DP build "
            "and flat compile are ~95% of TTF, any-k and paging almost none"
        ),
        mode="cold", shape="path", tuples=20_000, domain=5_000, k=1_000, page=20,
    ),
    Workload(
        name="enum_extend",
        why=(
            "one bound 4-path plan, 20k answers paged through a fresh stream: "
            "no preprocessing, no transport; any-k, QueryResult and stream "
            "extension do all the work"
        ),
        mode="extend", shape="path", tuples=10_000, domain=2_500, k=20_000, page=50,
    ),
    Workload(
        name="cycle_union",
        why=(
            "cold 4-cycle under max-times: cycle decomposition, the object-graph "
            "any-k family and the ranked union merge, which no other workload runs"
        ),
        mode="cold", shape="cycle", tuples=1_500, domain=100, k=5_000, page=50,
        dioid="max-times", weight_high=1.0,
    ),
    Workload(
        name="serve_tcp",
        why=(
            "server child over SQLite, one JSON-lines connection replaying a "
            "memoized prefix: dispatch, encode, framing and client decode are all "
            "of the work, the enumerator none"
        ),
        mode="tcp", shape="path", tuples=10_000, domain=2_500, k=2_000, page=50,
    ),
    Workload(
        name="serve_http",
        why=(
            "same server child and inputs through the HTTP gateway with bearer "
            "auth: separates HTTP parse, keep-alive and buffering cost from the "
            "TCP path"
        ),
        mode="http", shape="path", tuples=10_000, domain=2_500, k=2_000, page=50,
    ),
)

WORKLOAD_BY_NAME = {workload.name: workload for workload in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    """An end-to-end metric: what a user of the system sees."""

    name: str
    unit: str
    better: str
    bound: float
    meaning: str


END_TO_END: tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", "lower", 0.25,
        "median of the run's set-ups: data generation, SQLite ingest, process "
        "spawn, server start, bind and warm-up requests",
    ),
    Metric(
        "ttf_ms", "ms", "lower", 0.25,
        "request start to first answer in the caller's hands (cold workloads "
        "include planning and preprocessing, as in the paper)",
    ),
    Metric(
        "ttk_ms", "ms", "lower", 0.20,
        "request start to k-th answer: the paper's TT(k); answers/s = k / ttk",
    ),
    Metric(
        "page_p50_ms", "ms", "lower", 0.20,
        "median latency of the full-size page fetches after the first answer",
    ),
    Metric(
        "page_p95_ms", "ms", "lower", 0.25,
        "95th percentile of the page fetches of one request, median over the "
        "requests",
    ),
    Metric(
        "cpu_ms_per_kanswer", "ms", "lower", 0.20,
        "process CPU time of the load generator plus the server child, per "
        "1000 answers delivered",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", 0.05,
        "ru_maxrss of the process that hosts the Engine",
    ),
)


@dataclass(frozen=True)
class LayerMetric:
    """A metric of one layer, with the end-to-end metric it should move.

    The layer is the module the name starts with (``dp.flat.compile_ms``
    belongs to ``repro.dp.flat``).
    """

    name: str
    unit: str
    better: str
    target: str


def _layer(
    names: str, unit: str, better: str, target: str
) -> list[LayerMetric]:
    return [LayerMetric(name, unit, better, target) for name in names.split()]


_PREPROCESS = "ttf_ms@cold_bind, setup_s@serve_*"
_ENUM = "ttk_ms, page_p50_ms@enum_extend"
_HOPS = "ttk_ms, page_p50_ms@enum_extend, cycle_union"
_REPLAY = "page_p50_ms, page_p95_ms, cpu_ms_per_kanswer@serve_*"

#: Hops of the extension ladder, bottom first, as (short name, metric);
#: each hop is compared with the one before it (``hop_ratio.<short name>``).
HOPS: tuple[tuple[str, str], ...] = (
    ("anyk.flat", "anyk.flat.take2.path4.answers_per_s"),
    ("engine.iter", "engine.iter.answers_per_s"),
    ("engine.stream.extend", "engine.stream.extend_answers_per_s"),
    ("engine.stream.paged", "engine.stream.paged_answers_per_s"),
    ("serve.cursor", "serve.cursor.answers_per_s"),
    ("serve.session", "serve.session.answers_per_s"),
)


PER_LAYER: tuple[LayerMetric, ...] = tuple(
    # Preprocessing, on cold_bind inputs.
    _layer("data.generate_ms", "ms", "lower", "setup_s")
    + _layer("query.parse_us engine.plan.plan_us", "us", "lower", _PREPROCESS)
    + _layer(
        "dp.builder.build_ms dp.flat.compile_ms engine.bind_ms "
        "parallel.build.bind_shards1_ms parallel.build.bind_shards4_ms",
        "ms", "lower", _PREPROCESS,
    )
    + _layer("dp.flat.core_bytes", "B", "lower", "peak_rss_mb@cold_bind")
    + _layer(
        "data.backend.sqlite_ingest_ms data.backend.sqlite_bind_ms "
        "dp.corebuf.cold_bind_ms dp.corebuf.warm_bind_ms",
        "ms", "lower", "setup_s@serve_*",
    )
    + _layer("dp.corebuf.core_file_bytes", "B", "lower", "setup_s@serve_*")
    + _layer(
        "decomposition.cycle_bind_ms", "ms", "lower", "ttf_ms@cycle_union"
    )
    # Enumerator, direct make_enumerator over the compiled T-DP.
    + _layer(
        "anyk.flat.take2.path4.answers_per_s anyk.flat.lazy.path4.answers_per_s "
        "anyk.flat.eager.path4.answers_per_s anyk.flat.all.path4.answers_per_s "
        "anyk.flat.recursive.path4.answers_per_s "
        "anyk.flat.take2.star4.answers_per_s "
        "anyk.flat.recursive.star4.answers_per_s",
        "1/s", "higher", _ENUM,
    )
    + _layer(
        "anyk.object.take2.path4.answers_per_s anyk.merge.cycle4.answers_per_s",
        "1/s", "higher", "ttk_ms, page_p50_ms@cycle_union",
    )
    + _layer(
        "anyk.flat.take2.path4.ttf_us anyk.flat.take2.path4.delay_p50_us "
        "anyk.flat.take2.path4.delay_p99_us",
        "us", "lower", "ttf_ms, page_p95_ms@enum_extend",
    )
    + _layer(
        "anyk.flat.take2.path4.pq_ops_per_answer "
        "anyk.flat.recursive.path4.pq_ops_per_answer",
        "count", "lower", _ENUM,
    )
    # Hop ladder, extension mode.
    + _layer(" ".join(metric for _, metric in HOPS[1:]), "1/s", "higher", _HOPS)
    + _layer(
        " ".join(f"hop_ratio.{hop}" for hop, _ in HOPS[1:]),
        "ratio", "higher", _HOPS,
    )
    + _layer("serve.session.slices_per_page", "count", "lower", _HOPS)
    + _layer(
        "engine.stream.bytes_per_answer", "B", "lower", "peak_rss_mb@enum_extend"
    )
    # Replay ladder.
    + _layer(
        "engine.stream.replay_answers_per_s serve.session.replay_answers_per_s "
        "serve.server.dispatch_answers_per_s serve.server.tcp_answers_per_s "
        "serve.gateway.http_answers_per_s serve.gateway.ws_answers_per_s",
        "1/s", "higher", _REPLAY,
    )
    + _layer(
        "serve.protocol.encode_us_per_answer serve.protocol.decode_us_per_answer",
        "us", "lower", _REPLAY,
    )
    + _layer(
        "serve.server.tcp_page_p99_ms serve.gateway.http_page_p99_ms",
        "ms", "lower", "page_p95_ms@serve_*",
    )
    + _layer(
        "serve.client.tcp_cpu_share serve.client.http_cpu_share",
        "ratio", "lower", "cpu_ms_per_kanswer@serve_*",
    )
    # Counts read from public stats: exact per seed.
    + _layer("engine.stats.binds", "count", "lower", "ttf_ms@cold_bind")
    + _layer("engine.stats.stream_hits", "count", "higher", "ttk_ms@serve_*")
    + _layer("engine.stream.extensions", "count", "lower", "ttk_ms@enum_extend")
    + _layer("engine.stream.replays", "count", "higher", "ttk_ms@serve_*")
    + _layer("serve.session.slices", "count", "lower", "page_p50_ms@serve_*")
    + _layer("serve.ops_failed", "count", "lower", "failed@all")
    # Observability.
    + _layer("obs.trace.on_overhead_pct", "%", "lower", "ttk_ms@enum_extend")
    + _layer("obs.trace.spans_recorded", "count", "lower", "ttk_ms@enum_extend")
    + _layer("obs.metrics.scrape_ms", "ms", "lower", "page_p95_ms@serve_http")
    + _layer("bench.trace_overhead_pct", "%", "lower", "none: harness cost")
)


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json`` (exactly the contract's keys)."""
    return {
        "command": ["python3", "-m", "benchmarks.e2e"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": workload.name, "why": workload.why}
            for workload in WORKLOADS
        ],
        "end_to_end": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
            }
            for metric in END_TO_END
        ],
        "per_layer": [
            {"name": metric.name, "unit": metric.unit, "better": metric.better}
            for metric in PER_LAYER
        ],
    }
