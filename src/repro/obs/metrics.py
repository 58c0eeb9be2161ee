"""Typed metric instruments and a thread-safe registry (Prometheus-style).

The serving stack's operational counters used to be ad-hoc ints and
dicts flattened into untyped gauges.  This module gives them first-class
instruments:

* :class:`Counter` — monotone event count; ``counter += 1`` increments
  in place, readers take ``counter.value``.
* :class:`Gauge` — a settable level.  A level computed per scrape
  (memory estimates, open sessions) is a collect-time callback
  (:meth:`MetricsRegistry.gauge` with ``fn=``, or
  :meth:`MetricsRegistry.callback`), paid per scrape and never on the
  hot path; callbacks that share a source read it once per collect.
* :class:`Histogram` — fixed upper-bound buckets (exponential by
  default), rendered as cumulative ``_bucket{le="..."}`` counts plus
  ``_sum``/``_count``, exactly the Prometheus text-format contract.
* :class:`Family` — a labeled family of any of the above;
  ``family.labels("sqlite")`` gets-or-creates the child instrument.
* :class:`MetricsRegistry` — a per-deployment (NOT process-global)
  collection.  Components own their instruments; a deployment *attaches*
  them, so two gateways (or two test fixtures) never collide in shared
  state.  :meth:`MetricsRegistry.render` emits valid text exposition
  (format 0.0.4): one ``# TYPE`` per metric name, sorted, with bucket
  lines in ascending ``le`` order; :meth:`MetricsRegistry.as_dict` is
  the same collection as one JSON-safe dict.

:func:`validate_exposition` is a promtool-style line validator used by
the test suite and the CI smoke job to keep every scrape well-formed.

No imports from the rest of ``repro`` — every layer may depend on this
module without cycles.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Callable, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Family",
    "MetricsRegistry",
    "default_buckets",
    "histogram_quantile",
    "validate_exposition",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def default_buckets(
    start: float = 0.001, factor: float = 2.0, count: int = 14
) -> tuple[float, ...]:
    """Exponential bucket upper bounds (seconds): 1ms .. ~8s by default."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("buckets need start > 0, factor > 1, count >= 1")
    return tuple(start * factor**i for i in range(count))


def histogram_quantile(snapshot: dict, q: float) -> float:
    """The ``q``-quantile (``0 < q <= 1``) of a :meth:`Histogram.snapshot`.

    Prometheus's ``histogram_quantile``: find the bucket holding rank
    ``q * count`` and interpolate linearly between its bounds (the
    first bucket's lower bound is 0).  A rank in the ``+Inf`` overflow
    answers the highest finite bound; an empty snapshot answers 0.
    """
    if not 0 < q <= 1:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    rank = q * snapshot["count"]
    if not rank:
        return 0.0
    lower, below = 0.0, 0
    for upper, cumulative in snapshot["buckets"]:
        if cumulative >= rank:
            return lower + (upper - lower) * (rank - below) / (cumulative - below)
        lower, below = upper, cumulative
    return lower


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_sample(
    name: str, labels: dict[str, str] | None, value: float
) -> str:
    if labels:
        body = ",".join(
            f'{key}="{_escape_label(val)}"' for key, val in labels.items()
        )
        return f"{name}{{{body}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


class Counter:
    """A monotone event counter; ``counter += n`` and :meth:`inc` add.

    Readers take :attr:`value`.  ``int(counter)`` is kept for scripts
    that read a counter as a number (the benchmark ladder does).
    """

    kind = "counter"

    __slots__ = ("name", "help", "labels", "_lock", "_value")

    def __init__(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ):
        self.name = _check_name(name)
        self.help = help
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, by: float = 1) -> None:
        if by < 0:
            raise ValueError(f"counter increment must be >= 0, got {by}")
        with self._lock:
            self._value += by

    def __iadd__(self, by: float) -> "Counter":
        self.inc(by)
        return self

    def __int__(self) -> int:
        return int(self._value)

    def samples(self) -> list[tuple[str, dict | None, float]]:
        return [("", self.labels, self._value)]

    def __repr__(self) -> str:
        return f"Counter({self.name}={_format_value(self._value)})"


class Gauge:
    """A settable level.  A level computed at read time is a
    :meth:`MetricsRegistry.gauge` with ``fn=`` instead."""

    kind = "gauge"

    __slots__ = ("name", "help", "labels", "_lock", "_value")

    def __init__(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ):
        self.name = _check_name(name)
        self.help = help
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, by: float = 1) -> None:
        with self._lock:
            self._value += by

    def dec(self, by: float = 1) -> None:
        self.inc(-by)

    def samples(self) -> list[tuple[str, dict | None, float]]:
        return [("", self.labels, self._value)]

    def __repr__(self) -> str:
        return f"Gauge({self.name}={_format_value(self._value)})"


class Histogram:
    """Fixed-bucket histogram with cumulative exposition.

    ``buckets`` are finite upper bounds in ascending order (``+Inf`` is
    implicit).  :meth:`observe` is O(log buckets) under one lock;
    per-bucket counts are stored raw and cumulated only at render time.
    """

    kind = "histogram"

    __slots__ = (
        "name", "help", "labels", "buckets", "_lock", "_counts",
        "_sum", "_count",
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] | None = None,
        labels: dict[str, str] | None = None,
    ):
        self.name = _check_name(name)
        self.help = help
        self.labels = labels
        bounds = tuple(sorted(set(default_buckets() if buckets is None else buckets)))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # last slot = overflow (+Inf)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> dict:
        """JSON-friendly view: cumulative counts per upper bound."""
        with self._lock:
            counts = list(self._counts)
            total, sum_ = self._count, self._sum
        cumulative: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            cumulative.append((bound, running))
        return {
            "buckets": cumulative,
            "count": total,
            "sum": round(sum_, 9),
        }

    def samples(self) -> list[tuple[str, dict | None, float]]:
        with self._lock:
            counts = list(self._counts)
            total, sum_ = self._count, self._sum
        base = self.labels or {}
        out: list[tuple[str, dict | None, float]] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            out.append(
                ("_bucket", {**base, "le": _format_value(bound)}, running)
            )
        out.append(("_bucket", {**base, "le": "+Inf"}, total))
        out.append(("_sum", self.labels, sum_))
        out.append(("_count", self.labels, total))
        return out

    def __repr__(self) -> str:
        return f"Histogram({self.name}, count={self._count})"


class Family:
    """A labeled family of one instrument class.

    ``Family(Counter, "repro_retries_total", labelnames=("kind",))``;
    ``family.labels("sqlite")`` gets-or-creates the child.  Children are
    plain instruments, so migrated code can hold one child and bump it
    directly.
    """

    __slots__ = ("cls", "name", "help", "labelnames", "_lock", "_children", "_kwargs")

    def __init__(
        self,
        cls: type,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        **kwargs: Any,
    ):
        if not labelnames:
            raise ValueError("a Family needs at least one label name")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.cls = cls
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}
        self._kwargs = kwargs

    @property
    def kind(self) -> str:
        return self.cls.kind

    def labels(self, *values: Any, **by_name: Any) -> Any:
        if by_name:
            values = tuple(by_name[name] for name in self.labelnames)
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {key}"
            )
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self.cls(
                        self.name,
                        self.help,
                        labels=dict(zip(self.labelnames, key)),
                        **self._kwargs,
                    )
                    self._children[key] = child
        return child

    def get(self, *values: Any) -> Any | None:
        """The child for ``values`` if it exists (no creation)."""
        return self._children.get(tuple(str(v) for v in values))

    def children(self) -> dict[tuple[str, ...], Any]:
        with self._lock:
            return dict(self._children)

    def clear(self) -> None:
        """Test hook: drop every child (counters restart from zero)."""
        with self._lock:
            self._children.clear()

    def samples(self) -> list[tuple[str, dict | None, float]]:
        out: list[tuple[str, dict | None, float]] = []
        for key in sorted(self._children):
            out.extend(self._children[key].samples())
        return out

    def __repr__(self) -> str:
        return (
            f"Family({self.cls.__name__}, {self.name}, "
            f"{len(self._children)} children)"
        )


class _Callback:
    """A collect-time metric: ``fn`` runs per scrape, never per event.

    Without ``labelnames``, ``fn() -> float``.  With them, ``fn`` returns
    a mapping of label value (or tuple of values) to float — the shape
    used for per-session gauges, where the label set changes as sessions
    come and go.  With ``field``, ``fn()`` is a mapping and the metric is
    ``fn()[field]``: callbacks over one ``fn`` share its read within a
    collect (see :meth:`MetricsRegistry.collect`).
    """

    __slots__ = ("name", "help", "kind", "labelnames", "fn", "field")

    def __init__(
        self,
        name: str,
        kind: str,
        fn: Callable[[], Any],
        help: str = "",
        labelnames: tuple[str, ...] = (),
        field: str | None = None,
    ):
        if kind not in ("counter", "gauge"):
            raise ValueError(f"callback metrics are counter|gauge, not {kind}")
        self.name = _check_name(name)
        self.help = help
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self.fn = fn
        self.field = field

    def samples(self, reads: dict) -> list[tuple[str, dict | None, float]]:
        """The current samples; ``reads`` memoizes ``fn`` per collect."""
        try:
            if self.field is None:
                result = self.fn()
            else:
                if self.fn not in reads:
                    reads[self.fn] = self.fn()
                result = reads[self.fn][self.field]
            if not self.labelnames:
                return [("", None, float(result))]
            out: list[tuple[str, dict | None, float]] = []
            for key in sorted(result, key=str):
                values = key if isinstance(key, tuple) else (key,)
                labels = dict(zip(self.labelnames, (str(v) for v in values)))
                out.append(("", labels, float(result[key])))
            return out
        except Exception:
            return []


class MetricsRegistry:
    """A deployment's metric collection: get-or-create plus attach.

    One registry per front door (each serving listener owns one).
    Components keep owning their instruments — :meth:`attach` only
    indexes them for rendering, so unattached components (bare engines
    in tests) pay nothing and never collide across instances.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, Any] = {}

    # -- get-or-create ---------------------------------------------------------

    def _register(self, name: str, factory: Callable[[], Any]) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Counter | Family:
        if labelnames:
            return self._register(
                name, lambda: Family(Counter, name, help, labelnames)
            )
        return self._register(name, lambda: Counter(name, help))

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        fn: Callable[[], float] | None = None,
    ) -> Gauge | Family | _Callback:
        if fn is not None:
            if labelnames:
                raise ValueError("use callback() for labeled collect-time metrics")
            return self.callback(name, fn, help=help)
        if labelnames:
            return self._register(
                name, lambda: Family(Gauge, name, help, labelnames)
            )
        return self._register(name, lambda: Gauge(name, help))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] | None = None,
        labelnames: tuple[str, ...] = (),
    ) -> Histogram | Family:
        if labelnames:
            return self._register(
                name,
                lambda: Family(Histogram, name, help, labelnames, buckets=buckets),
            )
        return self._register(name, lambda: Histogram(name, help, buckets))

    def callback(
        self,
        name: str,
        fn: Callable[[], Any],
        kind: str = "gauge",
        help: str = "",
        labelnames: tuple[str, ...] = (),
        field: str | None = None,
    ) -> _Callback:
        """A collect-time metric; with ``field``, the ``field`` entry of
        the mapping ``fn()`` returns, ``fn`` read once per collect."""
        return self._register(
            name, lambda: _Callback(name, kind, fn, help, labelnames, field)
        )

    def attach(self, metric: Any) -> Any:
        """Index an externally owned instrument/family for rendering."""
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is metric:
                return metric
            if existing is not None:
                raise ValueError(
                    f"metric name {metric.name!r} already registered"
                )
            self._metrics[metric.name] = metric
            return metric

    def unregister(self, name: str) -> None:
        with self._lock:
            self._metrics.pop(name, None)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    # -- output ----------------------------------------------------------------

    def _metrics_sorted(self) -> list[tuple[str, Any]]:
        with self._lock:
            return sorted(self._metrics.items())

    def collect(self) -> list[tuple[str, str, list[tuple[str, dict | None, float]]]]:
        """``(name, kind, samples)`` per metric, sorted by name.

        Callbacks over one source (``field=``) share one read of it.
        """
        reads: dict = {}
        return [
            (name, metric.kind, _samples(metric, reads))
            for name, metric in self._metrics_sorted()
        ]

    def render(self) -> str:
        """Text exposition (format 0.0.4): one ``# TYPE`` per name."""
        lines: list[str] = []
        for name, kind, samples in self.collect():
            if not samples:
                continue
            lines.append(f"# TYPE {name} {kind}")
            for suffix, labels, value in samples:
                lines.append(_format_sample(name + suffix, labels, value))
        return "\n".join(lines) + "\n" if lines else ""

    def as_dict(self) -> dict:
        """JSON-safe snapshot, one key per registered name.

        A counter or gauge is its number (``None`` when its callback
        failed), a labeled family a dict keyed ``label=value[,...]``,
        a histogram its :meth:`Histogram.snapshot`.
        """
        out: dict[str, Any] = {}
        reads: dict = {}
        for name, metric in self._metrics_sorted():
            if metric.kind == "histogram":
                if isinstance(metric, Family):
                    out[name] = {
                        _label_key(child.labels): child.snapshot()
                        for _key, child in sorted(metric.children().items())
                    }
                else:
                    out[name] = metric.snapshot()
                continue
            samples = _samples(metric, reads)
            if getattr(metric, "labelnames", ()):
                out[name] = {
                    _label_key(labels): _number(value)
                    for _suffix, labels, value in samples
                }
            else:
                out[name] = _number(samples[0][2]) if samples else None
        return out


def _samples(metric: Any, reads: dict) -> list[tuple[str, dict | None, float]]:
    if isinstance(metric, _Callback):
        return metric.samples(reads)
    return metric.samples()


def _label_key(labels: dict | None) -> str:
    return ",".join(f"{k}={v}" for k, v in (labels or {}).items())


def _number(value: float) -> int | float:
    return int(value) if float(value).is_integer() else value


# -- exposition validation -----------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(.*)\})?"
    r"\s+(\S+)(?:\s+\d+)?$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_number(text: str) -> float | None:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        return None


def validate_exposition(text: str) -> list[str]:
    """Promtool-style checks over text exposition; returns error strings.

    Asserted invariants: every sample has a preceding ``# TYPE`` for its
    base name, no duplicate ``# TYPE`` lines, no duplicate samples,
    parsable values — and for histograms, ``le``-ordered monotone
    cumulative buckets with a ``+Inf`` bucket equal to ``_count``.
    """
    errors: list[str] = []
    types: dict[str, str] = {}
    seen_samples: set[tuple[str, str]] = set()
    # histogram name -> {"buckets": [(le, value)], "count": float|None}
    histograms: dict[str, dict] = {}

    def base_name(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            stem = sample_name[: -len(suffix)]
            if (
                sample_name.endswith(suffix)
                and types.get(stem) == "histogram"
            ):
                return stem
        return sample_name

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                errors.append(f"line {lineno}: malformed TYPE line {line!r}")
                continue
            _, _, name, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                errors.append(f"line {lineno}: unknown type {kind!r}")
            if name in types:
                errors.append(f"line {lineno}: duplicate TYPE for {name}")
            types[name] = kind
            if kind == "histogram":
                histograms[name] = {"buckets": [], "count": None}
            continue
        if line.startswith("#"):
            continue  # HELP / comments
        match = _SAMPLE_RE.match(line)
        if not match:
            errors.append(f"line {lineno}: unparsable sample {line!r}")
            continue
        sample_name, label_text, value_text = match.groups()
        value = _parse_number(value_text)
        if value is None:
            errors.append(f"line {lineno}: bad value {value_text!r}")
            continue
        labels: dict[str, str] = {}
        if label_text:
            matched_len = 0
            for pair in _LABEL_PAIR_RE.finditer(label_text):
                labels[pair.group(1)] = pair.group(2)
                matched_len += len(pair.group(0))
            stripped = label_text.replace(",", "").replace(" ", "")
            if matched_len != len(stripped):
                errors.append(
                    f"line {lineno}: malformed labels {{{label_text}}}"
                )
        name = base_name(sample_name)
        if name not in types:
            errors.append(
                f"line {lineno}: sample {sample_name} has no TYPE line"
            )
        key = (sample_name, label_text or "")
        if key in seen_samples:
            errors.append(
                f"line {lineno}: duplicate sample {sample_name}"
                f"{{{label_text or ''}}}"
            )
        seen_samples.add(key)
        hist = histograms.get(name)
        if hist is not None:
            if sample_name.endswith("_bucket"):
                if "le" not in labels:
                    errors.append(
                        f"line {lineno}: histogram bucket without le label"
                    )
                else:
                    bound = _parse_number(labels["le"])
                    if bound is None:
                        errors.append(
                            f"line {lineno}: bad le value {labels['le']!r}"
                        )
                    else:
                        hist["buckets"].append((bound, value))
            elif sample_name.endswith("_count"):
                hist["count"] = value

    for name, hist in histograms.items():
        buckets = hist["buckets"]
        if not buckets:
            errors.append(f"histogram {name}: no bucket samples")
            continue
        bounds = [bound for bound, _value in buckets]
        if bounds != sorted(bounds):
            errors.append(f"histogram {name}: buckets not in le order")
        values = [value for _bound, value in buckets]
        if any(b > a for a, b in zip(values[1:], values)):
            errors.append(
                f"histogram {name}: cumulative bucket counts not monotone"
            )
        if bounds and bounds[-1] != math.inf:
            errors.append(f"histogram {name}: missing +Inf bucket")
        elif hist["count"] is not None and values[-1] != hist["count"]:
            errors.append(
                f"histogram {name}: +Inf bucket {values[-1]} != "
                f"_count {hist['count']}"
            )
    return errors
