"""EXPLAIN ANALYZE: run a prepared query instrumented, report the cost.

``analyze_prepared`` force-binds a :class:`~repro.engine.engine.
PreparedQuery` under an always-sampling tracer, drains up to ``k``
ranked answers while clocking every answer's arrival, and folds the
recorded spans, the run's :class:`~repro.util.counters.OpCounter`
and compiled-core attribution into one
:class:`AnalyzeReport`.

The delay profile is the paper's own reading of the run: TTF (time to
first answer), TT(k) (time to the k-th), and per-answer delay
percentiles — the quantities Section 7's plots are made of, measured
live on the serving plan instead of in an offline harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.dp.flat import CompiledTDP
from repro.obs.latency import delay_profile
from repro.obs.trace import Span, Tracer
from repro.util.counters import OpCounter


@dataclass
class StageNode:
    """One span in the rendered per-stage tree."""

    name: str
    ms: float
    attrs: dict = field(default_factory=dict)
    children: list["StageNode"] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "ms": self.ms,
            "attrs": self.attrs,
            "children": [child.as_dict() for child in self.children],
        }


def _span_tree(spans: list[Span]) -> list[StageNode]:
    """Rebuild the nesting tree from recorded (finished) spans."""
    nodes: dict[int, StageNode] = {}
    for span in spans:
        nodes[span.span_id] = StageNode(
            span.name, round(span.duration * 1e3, 4), dict(span.attrs)
        )
    roots: list[StageNode] = []
    by_start = sorted(spans, key=lambda s: (s.start, s.span_id))
    for span in by_start:
        node = nodes[span.span_id]
        parent = nodes.get(span.parent_id) if span.parent_id else None
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    return roots


@dataclass
class AnalyzeReport:
    """Everything ``EXPLAIN ANALYZE`` learned about one instrumented run."""

    query: str
    strategy: str
    algorithm: str
    k: int | None
    produced: int
    bind_ms: float
    total_ms: float
    stages: list[StageNode]
    counters: dict
    delay: dict
    core: dict | None = None
    #: Per union member, ``(label, bag layout)`` (``None``: not a union).
    members: list | None = None
    explain: str = ""

    def as_dict(self) -> dict:
        return {
            "query": self.query,
            "strategy": self.strategy,
            "algorithm": self.algorithm,
            "k": self.k,
            "produced": self.produced,
            "bind_ms": self.bind_ms,
            "total_ms": self.total_ms,
            "stages": [node.as_dict() for node in self.stages],
            "counters": self.counters,
            "delay": self.delay,
            "core": self.core,
            "members": self.members,
        }

    def render(self) -> str:
        """Human-readable EXPLAIN ANALYZE report."""
        k_text = "all" if self.k is None else str(self.k)
        lines = [
            f"EXPLAIN ANALYZE {self.query} "
            f"[{self.strategy}, {self.algorithm}, k={k_text}]",
            f"total: {self.total_ms:.3f} ms "
            f"(bind {self.bind_ms:.3f} ms, "
            f"enumerate {max(0.0, self.total_ms - self.bind_ms):.3f} ms)",
            "stages:",
        ]
        for root in self.stages:
            _render_node(root, "  ", lines)
        delay = self.delay
        lines.append(
            f"delay profile: produced={delay['produced']}  "
            f"TTF={delay['ttf_ms']:.4f} ms  "
            f"TT({delay['produced']})={delay['ttk_ms']:.4f} ms"
        )
        lines.append(
            f"  per-answer delay: p50={delay['delay_p50_us']:.2f} us  "
            f"p95={delay['delay_p95_us']:.2f} us  "
            f"p99={delay['delay_p99_us']:.2f} us  "
            f"max={delay['delay_max_us']:.2f} us"
        )
        busy = {k: v for k, v in self.counters.items() if v}
        counter_text = (
            "  ".join(f"{name}={value}" for name, value in busy.items())
            or "(none)"
        )
        lines.append(f"counters: {counter_text}")
        if self.core is not None:
            lines.append(
                f"compiled core: {self.core['entries']} flat entries, "
                f"{self.core['states']} states, "
                f"{self.core['connectors']} connectors"
            )
        for label, layout in self.members or ():
            lines.append(f"union member {label}: {layout}")
        return "\n".join(lines)


def _render_node(node: StageNode, indent: str, lines: list[str]) -> None:
    attrs = ""
    if node.attrs:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(node.attrs.items()))
        attrs = f"  {{{inner}}}"
    lines.append(f"{indent}{node.name:<24} {node.ms:10.4f} ms{attrs}")
    for child in node.children:
        _render_node(child, indent + "  ", lines)


def _core_stats(physical) -> dict | None:
    """Compiled-core stats of a physical plan (through projection wraps)."""
    inner = getattr(physical, "inner", None)
    if inner is not None:
        return _core_stats(inner)
    core = getattr(physical, "tdp", None)
    return core.stats() if isinstance(core, CompiledTDP) else None


def _members(physical) -> list | None:
    """``(label, bag layout)`` per member of a union plan (through
    projection wraps), else ``None``."""
    inner = getattr(physical, "inner", None)
    if inner is not None:
        return _members(inner)
    tasks = getattr(physical, "tasks", None)
    if tasks is None:
        return None
    return [(task.label or task.query.name, task.bag_layout) for task in tasks]


def analyze_prepared(
    prepared,
    k: int | None = 10,
    rebind: bool = True,
    tracer: Tracer | None = None,
) -> AnalyzeReport:
    """Run ``prepared`` instrumented and report where the time went.

    ``rebind=True`` (the default) re-runs the preprocessing phase under
    the tracer so the per-stage tree covers plan → T-DP build →
    core-cache; ``rebind=False`` profiles the warm
    serving path only (bind is a cache lookup).  A caller-supplied
    ``tracer`` collects the spans in addition to the report (used by the
    ``repro trace`` CLI to export the same run to Perfetto); by default
    the run records into a private always-sampling tracer.
    """
    if k is not None and k < 0:
        raise ValueError(f"k must be non-negative or None, got {k}")
    if tracer is None:
        tracer = Tracer(capacity=8192, sample="always")
    counter = OpCounter()
    delays: list[float] = []
    clock = time.perf_counter
    logical = prepared.logical
    with tracer.span(
        "analyze", query=logical.query.name, algorithm=logical.algorithm
    ) as root:
        with tracer.span("bind", forced=rebind) as bind_span:
            physical = prepared.bind(force=rebind, tracer=tracer)
        with tracer.span("enumerate", k=k) as enum_span:
            iterator = physical.iter(counter, algorithm=logical.algorithm)
            previous = clock()
            while k is None or len(delays) < k:
                if next(iterator, None) is None:
                    break
                now = clock()
                delays.append(now - previous)
                previous = now
            enum_span.set(produced=len(delays))
    trace_spans = [s for s in tracer.spans() if s.trace_id == root.trace_id]
    return AnalyzeReport(
        query=repr(logical.query),
        strategy=logical.strategy,
        algorithm=logical.algorithm,
        k=k,
        produced=len(delays),
        bind_ms=round(bind_span.duration * 1e3, 4),
        total_ms=round(root.duration * 1e3, 4),
        stages=_span_tree(trace_spans),
        counters=counter.as_dict(),
        delay=delay_profile(delays),
        core=_core_stats(physical),
        members=_members(physical),
        explain=physical.explain(),
    )
