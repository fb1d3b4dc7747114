"""Evaluation metrics.

* :mod:`repro.metrics.ratio` — the paper's primary metric, the **accepted
  utilization ratio**: total utilization of jobs actually released divided
  by total utilization of all jobs arriving; the same collector counts
  the response times and deadline misses of completed jobs.
* :mod:`repro.metrics.overhead` — per-path service delay decomposition
  reproducing the paper's Figure 8 table.
* :mod:`repro.metrics.registry` / :mod:`repro.metrics.histogram` — the
  production-observability layer: deterministic mergeable
  Counter/Gauge/Histogram families with Prometheus text exposition
  (see docs/OBSERVABILITY.md).
"""

from repro.metrics.histogram import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    HistogramSnapshot,
)
from repro.metrics.overhead import OverheadAccounting, OverheadRow
from repro.metrics.ratio import MetricsCollector
from repro.metrics.registry import (
    MetricFamilySnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "HistogramSnapshot",
    "MetricFamilySnapshot",
    "MetricsCollector",
    "MetricsRegistry",
    "MetricsSnapshot",
    "OverheadAccounting",
    "OverheadRow",
]
