"""Deterministic fixed-bucket latency histogram.

The production-observability layer (docs/OBSERVABILITY.md) needs a
histogram that is

* **exact** — p50/p95/p99 come from the retained sample multiset via the
  nearest-rank rule, not from bucket interpolation;
* **mergeable** — merging two histograms is a multiset union, so the
  result is bit-identical regardless of merge order or how samples were
  partitioned across ``run_cells`` workers (the same contract
  :class:`repro.api.StatSnapshot` honours, and what lint rule RL011
  polices in merge paths);
* **exposable** — cumulative ``le`` bucket counts in the Prometheus
  text exposition format are *derived* from the sorted samples with
  :func:`bisect.bisect_right`, so the buckets can never drift from the
  quantiles.

Totals are computed with :func:`math.fsum` over the *sorted* samples, so
``sum`` is a pure function of the multiset — two histograms holding the
same samples expose byte-identical text no matter the observe order.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.json_checks import json_list

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "HistogramSnapshot",
]

# Prometheus' standard duration buckets, extended down to microseconds:
# admission decisions are measured in the tens of microseconds, and the
# stock 5ms lower edge would dump every sample into one bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6,
    5e-6,
    1e-5,
    5e-5,
    1e-4,
    5e-4,
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _validate_buckets(buckets: Sequence[float]) -> Tuple[float, ...]:
    out = tuple(float(b) + 0.0 for b in buckets)
    if not out:
        raise ValueError("histogram needs at least one bucket boundary")
    for lo, hi in zip(out, out[1:]):
        if not lo < hi:
            raise ValueError(f"bucket boundaries must strictly increase: {out!r}")
    for b in out:
        if not math.isfinite(b):
            raise ValueError("bucket boundaries must be finite (+Inf is implicit)")
    return out


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Exact nearest-rank quantile over an ascending sample sequence."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not ordered:
        raise ValueError("quantile of an empty histogram")
    rank = math.ceil(q * len(ordered))
    return ordered[max(0, rank - 1)]


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable value snapshot of a :class:`Histogram`.

    Stores the full ascending sample tuple: quantiles stay exact after
    JSON round-trips and merges, and bucket counts are re-derived rather
    than carried as separable (and thus corruptible) state.
    """

    buckets: Tuple[float, ...]
    samples: Tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return math.fsum(self.samples)

    @property
    def min(self) -> float:
        if not self.samples:
            raise ValueError("min of an empty histogram")
        return self.samples[0]

    @property
    def max(self) -> float:
        if not self.samples:
            raise ValueError("max of an empty histogram")
        return self.samples[-1]

    def mean(self) -> float:
        if not self.samples:
            raise ValueError("mean of an empty histogram")
        return self.total / len(self.samples)

    def quantile(self, q: float) -> float:
        return _nearest_rank(self.samples, q)

    def bucket_counts(self) -> Tuple[int, ...]:
        """Cumulative counts per ``le`` boundary, +Inf bucket last."""
        cumulative = tuple(
            bisect_right(self.samples, bound) for bound in self.buckets
        )
        return cumulative + (len(self.samples),)

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        if self.buckets != other.buckets:
            raise ValueError(
                "cannot merge histograms with different bucket layouts: "
                f"{self.buckets!r} vs {other.buckets!r}"
            )
        merged = sorted(self.samples + other.samples)
        return HistogramSnapshot(buckets=self.buckets, samples=tuple(merged))

    def to_json(self) -> Dict[str, Any]:
        return {"buckets": list(self.buckets), "samples": list(self.samples)}

    @staticmethod
    def from_json(payload: Mapping[str, Any]) -> "HistogramSnapshot":
        """Raises ValueError on a malformed ``payload``."""
        buckets = _validate_buckets(
            json_list(payload, "buckets", (int, float), "histogram")
        )
        raw = json_list(payload, "samples", (int, float), "histogram")
        samples = tuple(sorted(float(s) + 0.0 for s in raw))
        for s in samples:
            if not math.isfinite(s):
                raise ValueError("histogram samples must be finite")
        return HistogramSnapshot(buckets=buckets, samples=samples)


@dataclass
class Histogram:
    """Mutable exact histogram; :meth:`snapshot` freezes the state.

    Samples are kept sorted on insert (:func:`bisect.insort`), so every
    read path — quantiles, buckets, fsum totals — sees the canonical
    ascending order and is independent of observation order.
    """

    buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    _samples: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.buckets = _validate_buckets(self.buckets)

    def observe(self, value: float) -> None:
        value = float(value) + 0.0  # normalise -0.0 without a float ==
        if not math.isfinite(value):
            raise ValueError(f"histogram observations must be finite, got {value!r}")
        insort(self._samples, value)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return math.fsum(self._samples)

    def mean(self) -> float:
        if not self._samples:
            raise ValueError("mean of an empty histogram")
        return self.total / len(self._samples)

    def quantile(self, q: float) -> float:
        return _nearest_rank(self._samples, q)

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(buckets=self.buckets, samples=tuple(self._samples))

    def merge_snapshot(self, other: HistogramSnapshot) -> None:
        """Fold a snapshot's samples into this histogram (multiset union)."""
        if self.buckets != other.buckets:
            raise ValueError(
                "cannot merge histograms with different bucket layouts: "
                f"{self.buckets!r} vs {other.buckets!r}"
            )
        for sample in other.samples:
            insort(self._samples, sample)
