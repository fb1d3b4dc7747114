"""Virtual-time tracing.

The paper instruments KURT-Linux with CPU timestamp counters to attribute
delay to individual middleware operations (Figure 7/8).  Our substitute is a
:class:`Tracer` that records ``TraceRecord`` tuples at exact virtual times
when a scenario sets ``trace=True``.  :mod:`repro.sim.timeline` reads the
records back as per-node and per-job views; nothing in the package
subscribes to a tracer, and :mod:`repro.metrics.overhead` records its
samples directly rather than from these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class TraceRecord:
    """A single trace event.

    Attributes
    ----------
    time:
        Virtual time at which the event was recorded.
    category:
        A dotted event category, e.g. ``"ac.admit"`` or ``"te.release"``.
    node:
        The processor name the event happened on (or ``None`` for global).
    data:
        Free-form payload (task ids, decisions, delays, ...).
    """

    time: float
    category: str
    node: Optional[str]
    data: Tuple[Tuple[str, Any], ...]

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.data:
            if k == key:
                return v
        return default


@dataclass
class Tracer:
    """Collects :class:`TraceRecord` instances, optionally filtered.

    A ``Tracer`` may be disabled wholesale (``enabled=False``) for long
    benchmark runs, in which case :meth:`record` is a cheap no-op.
    """

    enabled: bool = True
    records: List[TraceRecord] = field(default_factory=list)
    _listeners: List[Callable[[TraceRecord], None]] = field(default_factory=list)

    def record(
        self,
        time: float,
        category: str,
        node: Optional[str] = None,
        **data: Any,
    ) -> None:
        if not self.enabled:
            return
        rec = TraceRecord(time, category, node, tuple(sorted(data.items())))
        self.records.append(rec)
        for listener in self._listeners:
            listener(rec)

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Register a callback invoked for every recorded trace event."""
        self._listeners.append(listener)

    def by_category(self, category: str) -> List[TraceRecord]:
        """All records whose category equals ``category``."""
        return [r for r in self.records if r.category == category]

    def categories(self) -> Dict[str, int]:
        """Histogram of category -> record count."""
        out: Dict[str, int] = {}
        for rec in self.records:
            out[rec.category] = out.get(rec.category, 0) + 1
        return out

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterable[TraceRecord]:
        return iter(self.records)
