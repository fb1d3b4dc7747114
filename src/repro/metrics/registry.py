"""Deterministic, mergeable metrics registry with Prometheus exposition.

The engines (middleware, distributed AC, sharded ledger, analyzer batch
sessions) publish into a :class:`MetricsRegistry` only when a run is
*armed* — i.e. the caller passed a registry in.  Unarmed runs take no
metrics branches at all, so admission decisions and legacy
``RunResult`` JSON stay bit-identical to the seed (the same parity
contract the ``REPRO_SANITIZE`` sanitizer enforces).

Determinism contract (see docs/OBSERVABILITY.md):

* :meth:`MetricsRegistry.snapshot` freezes the registry into a
  :class:`MetricsSnapshot` — a frozen value object with total ordering
  over families and series, so two registries holding the same state
  expose byte-identical text.
* :meth:`MetricsSnapshot.merge` is commutative and associative:
  counters add exact event counts, gauges take the elementwise maximum,
  histograms take the multiset union of their samples
  (:class:`repro.metrics.histogram.HistogramSnapshot`).  Folding
  per-cell snapshots returned by ``run_cells`` therefore yields a
  bit-identical aggregate for any worker count.
* Exposition follows the Prometheus text format: ``# HELP``/``# TYPE``
  headers, cumulative ``le`` buckets, ``_sum``/``_count`` per series.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.json_checks import json_field, json_list
from repro.metrics.histogram import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    HistogramSnapshot,
)

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MetricFamilySnapshot",
]

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _METRIC_NAME.match(name):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _check_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    out = tuple(labelnames)
    for label in out:
        if not _LABEL_NAME.match(label) or label.startswith("__"):
            raise ValueError(f"invalid label name: {label!r}")
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate label names: {out!r}")
    return out


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Prometheus-style number rendering: integral floats drop the dot."""
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(
    labelnames: Sequence[str],
    labelvalues: Sequence[str],
    extra: Tuple[Tuple[str, str], ...] = (),
) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    pairs.extend(f'{name}="{_escape_label_value(value)}"' for name, value in extra)
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"


class Counter:
    """Monotonically increasing event count for one label combination."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount!r}")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Point-in-time level (queue depth, shard utilization) for one series."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value) + 0.0

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


@dataclass
class _Family:
    """One named metric with a fixed label schema and many child series."""

    name: str
    help: str
    kind: str
    labelnames: Tuple[str, ...]
    buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    children: Dict[Tuple[str, ...], Union[Counter, Gauge, Histogram]] = field(
        default_factory=dict
    )

    def labels(self, *labelvalues: str) -> Union[Counter, Gauge, Histogram]:
        if len(labelvalues) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames!r}, "
                f"got {len(labelvalues)} value(s)"
            )
        key = tuple(str(v) for v in labelvalues)
        child = self.children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter()
            elif self.kind == "gauge":
                child = Gauge()
            else:
                child = Histogram(buckets=self.buckets)
            self.children[key] = child
        return child

    def snapshot(self) -> "MetricFamilySnapshot":
        series: List[Tuple[Tuple[str, ...], Union[float, HistogramSnapshot]]] = []
        for key in sorted(self.children):
            child = self.children[key]
            if isinstance(child, Histogram):
                series.append((key, child.snapshot()))
            else:
                series.append((key, child.value))
        return MetricFamilySnapshot(
            name=self.name,
            help=self.help,
            kind=self.kind,
            labelnames=self.labelnames,
            buckets=self.buckets if self.kind == "histogram" else (),
            series=tuple(series),
        )


@dataclass(frozen=True)
class MetricFamilySnapshot:
    """Frozen value of one family: ordered (labelvalues, value) series."""

    name: str
    help: str
    kind: str
    labelnames: Tuple[str, ...]
    buckets: Tuple[float, ...]
    series: Tuple[Tuple[Tuple[str, ...], Union[float, HistogramSnapshot]], ...]

    def merge(self, other: "MetricFamilySnapshot") -> "MetricFamilySnapshot":
        if (
            self.name != other.name
            or self.kind != other.kind
            or self.labelnames != other.labelnames
            or self.buckets != other.buckets
        ):
            raise ValueError(
                f"cannot merge incompatible families {self.name!r} / {other.name!r}"
            )
        merged: Dict[Tuple[str, ...], Union[float, HistogramSnapshot]] = dict(
            self.series
        )
        for key, value in other.series:
            if key not in merged:
                merged[key] = value
            elif self.kind == "counter":
                merged[key] = float(merged[key]) + float(value)  # exact event counts
            elif self.kind == "gauge":
                merged[key] = max(float(merged[key]), float(value))
            else:
                assert isinstance(value, HistogramSnapshot)
                prior = merged[key]
                assert isinstance(prior, HistogramSnapshot)
                merged[key] = prior.merge(value)
        series = tuple((key, merged[key]) for key in sorted(merged))
        return MetricFamilySnapshot(
            name=self.name,
            help=self.help,
            kind=self.kind,
            labelnames=self.labelnames,
            buckets=self.buckets,
            series=series,
        )

    def expose(self) -> str:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        for labelvalues, value in self.series:
            if self.kind == "histogram":
                assert isinstance(value, HistogramSnapshot)
                counts = value.bucket_counts()
                bounds = [_format_value(b) for b in value.buckets] + ["+Inf"]
                for bound, count in zip(bounds, counts):
                    labels = _render_labels(
                        self.labelnames, labelvalues, (("le", bound),)
                    )
                    lines.append(f"{self.name}_bucket{labels} {count}")
                labels = _render_labels(self.labelnames, labelvalues)
                lines.append(f"{self.name}_sum{labels} {_format_value(value.total)}")
                lines.append(f"{self.name}_count{labels} {value.count}")
            else:
                labels = _render_labels(self.labelnames, labelvalues)
                lines.append(f"{self.name}{labels} {_format_value(float(value))}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "help": self.help,
            "kind": self.kind,
            "labelnames": list(self.labelnames),
            "series": [
                {
                    "labels": list(key),
                    "value": value.to_json()
                    if isinstance(value, HistogramSnapshot)
                    else value,
                }
                for key, value in self.series
            ],
        }
        if self.kind == "histogram":
            payload["buckets"] = list(self.buckets)
        return payload

    @staticmethod
    def from_json(payload: Mapping[str, Any]) -> "MetricFamilySnapshot":
        """Raises ValueError on a malformed ``payload``."""
        what = "metric family"
        kind = json_field(payload, "kind", str, what)
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric kind: {kind!r}")
        labelnames = _check_labelnames(json_list(payload, "labelnames", str, what))
        series: List[Tuple[Tuple[str, ...], Union[float, HistogramSnapshot]]] = []
        for row in json_field(payload, "series", list, what):
            key = tuple(json_list(row, "labels", str, "metric series"))
            if len(key) != len(labelnames):
                raise ValueError(f"series labels {key!r} do not match {labelnames!r}")
            if kind == "histogram":
                value = json_field(row, "value", Mapping, "metric series")
                series.append((key, HistogramSnapshot.from_json(value)))
            else:
                value = json_field(row, "value", (int, float), "metric series")
                series.append((key, float(value)))
        buckets = (
            json_list(payload, "buckets", (int, float), what)
            if "buckets" in payload
            else ()
        )
        return MetricFamilySnapshot(
            name=_check_name(json_field(payload, "name", str, what)),
            help=json_field(payload, "help", str, what),
            kind=kind,
            labelnames=labelnames,
            buckets=tuple(float(b) for b in buckets),
            series=tuple(sorted(series, key=lambda item: item[0])),
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Frozen multi-family snapshot; the mergeable unit of observability.

    Families are ordered by name; merge is commutative/associative per
    family (counters add, gauges max, histograms multiset-union), so
    folding snapshots in ``run_cells`` submission order is bit-identical
    for any worker count.
    """

    families: Tuple[MetricFamilySnapshot, ...] = ()

    #: Keeps its own wire shape (``to_json``/``from_json``) inside the
    #: JSON of a :class:`~repro.api.RunResult`.
    JSON_LEAF = True

    def family(self, name: str) -> MetricFamilySnapshot:
        for fam in self.families:
            if fam.name == name:
                return fam
        raise KeyError(name)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        merged: Dict[str, MetricFamilySnapshot] = {
            fam.name: fam for fam in self.families
        }
        for fam in other.families:
            prior = merged.get(fam.name)
            merged[fam.name] = fam if prior is None else prior.merge(fam)
        return MetricsSnapshot(
            families=tuple(merged[name] for name in sorted(merged))
        )

    def expose(self) -> str:
        """Prometheus text exposition; trailing newline per the format spec."""
        if not self.families:
            return ""
        return "\n".join(fam.expose() for fam in self.families) + "\n"

    def to_json(self) -> Dict[str, Any]:
        return {"families": [fam.to_json() for fam in self.families]}

    @staticmethod
    def from_json(payload: Mapping[str, Any]) -> "MetricsSnapshot":
        """Raises ValueError on a malformed ``payload``."""
        rows = json_field(payload, "families", list, "metrics snapshot")
        families = tuple(
            sorted(
                (MetricFamilySnapshot.from_json(row) for row in rows),
                key=lambda fam: fam.name,
            )
        )
        names = [fam.name for fam in families]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate metric families in payload: {names!r}")
        return MetricsSnapshot(families=families)


class MetricsRegistry:
    """Get-or-create registry the engines publish into when armed.

    Re-registering a name with a different kind, help string, label
    schema, or bucket layout raises ``ValueError`` — series identity is
    the full schema, not just the name.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def _get_or_create(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: Sequence[str],
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> _Family:
        _check_name(name)
        names = _check_labelnames(labelnames)
        family = self._families.get(name)
        if family is None:
            family = _Family(
                name=name, help=help, kind=kind, labelnames=names, buckets=buckets
            )
            self._families[name] = family
            return family
        if (
            family.kind != kind
            or family.help != help
            or family.labelnames != names
            or (kind == "histogram" and family.buckets != buckets)
        ):
            raise ValueError(
                f"metric {name!r} already registered with a different schema"
            )
        return family

    def counter(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> _Family:
        return self._get_or_create(name, help, "counter", labelnames)

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()) -> _Family:
        return self._get_or_create(name, help, "gauge", labelnames)

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> _Family:
        return self._get_or_create(
            name, help, "histogram", labelnames, tuple(float(b) for b in buckets)
        )

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            families=tuple(
                self._families[name].snapshot() for name in sorted(self._families)
            )
        )

    def expose(self) -> str:
        return self.snapshot().expose()
