"""Per-layer tracing from outside the program.

:func:`installed` patches the public entry points of each layer for the
duration of a ``with`` block and restores them afterwards, so nothing
under ``src/`` changes and untraced runs execute the original code.

Every wrapped call opens a span on one stack; a span's *self time* is its
duration minus the durations of the spans it directly contains, so the
self times of all layers add up to the root span, which covers one grid
pass.  Core components are attributed by wrapping the callbacks handed
to ``Simulator.schedule_at``/``schedule_batch``, ``Processor.submit`` and
``LocalEventChannel.subscribe``, labelled with the layer of the object
that receives the call.  The wrapper objects compare and hash like the
callback they wrap: ``Simulator.schedule_batch`` groups payloads by the
callback object, and a bound method is a new object on every access.

The first :data:`SPAN_LOG_LIMIT` spans of a traced pass are also kept in memory
(name, start, end, parent, cell) and written out only when asked.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.api.scenario import WorkloadSource
from repro.api.session import Session
from repro.ccm.container import Container
from repro.ccm.ports import EventSinkPort, EventSourcePort
from repro.core import distributed_ac
from repro.core.idle_resetter import IdleResetterComponent
from repro.core.load_balancer import LoadBalancerComponent
from repro.core.subtask import FISubtaskComponent, LastSubtaskComponent
from repro.cpu.processor import Processor
from repro.metrics.histogram import Histogram
from repro.metrics.overhead import OverheadAccounting
from repro.metrics.ratio import MetricsCollector
from repro.metrics.registry import Counter, Gauge
from repro.net.channel import LocalEventChannel
from repro.net.federation import FederatedEventChannel
from repro.net.network import Network
from repro.sched.aub import AubAnalyzer, BatchAdmissionSession, SyntheticUtilizationLedger
from repro.sim.kernel import EventHandle, Simulator

#: Spans kept for writing out; later spans still count towards the metrics.
SPAN_LOG_LIMIT = 200_000

#: Root span of a pass: the benchmark loop itself, and callbacks whose
#: receiver belongs to no known layer.
ROOT = "bench.other"

#: Count of callbacks charged to :data:`ROOT` because their receiver
#: belongs to no known layer; a traced pass fails unless it is 0.
UNATTRIBUTED_CALLBACKS = "bench.unattributed_callbacks"

#: Callback receiver module prefix -> layer (longest prefix wins).
#: ``MiddlewareSystem._arrive`` creates a job and hands it to its task
#: effector, so the centralized system module counts as ``core.te``.
MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.cpu": "cpu",
    "repro.ccm": "ccm",
    "repro.net": "net",
    "repro.core.admission_controller": "core.ac",
    "repro.core.load_balancer": "core.lb",
    "repro.core.idle_resetter": "core.ir",
    "repro.core.task_effector": "core.te",
    "repro.core.middleware": "core.te",
    "repro.core.subtask": "core.subtask",
    "repro.core.distributed_ac": "core.dac",
    "repro.sched": "sched.test",
    "repro.metrics": "metrics",
    "repro.api": "api.run",
}

#: (class or module, attribute, layer): plain spans around public entry
#: points.  The distributed AC evaluates the AUB condition inline with
#: ``aub_term``/``aub_term_inverse``; they are wrapped where that module
#: binds them, so its tests count as ``sched.aub``, not ``core.dac``.
SPANNED: Tuple[Tuple[Any, str, str], ...] = (
    (Session, "__init__", "api.session"),
    (Session, "deploy", "api.deploy"),
    (Session, "run", "api.run"),
    (WorkloadSource, "materialize", "workloads"),
    (Container, "activate_all", "ccm.activate"),
    (Simulator, "run", "sim"),
    (Simulator, "schedule_at", "sim"),
    (Simulator, "schedule_batch", "sim"),
    (Processor, "submit", "cpu"),
    (EventSourcePort, "push", "ccm"),
    (EventSourcePort, "broadcast", "ccm"),
    (Network, "send", "net"),
    (FederatedEventChannel, "send", "net"),
    (FederatedEventChannel, "publish", "net"),
    (LocalEventChannel, "push", "net"),
    (AubAnalyzer, "admissible", "sched.test"),
    (AubAnalyzer, "admissible_batch", "sched.test"),
    (AubAnalyzer, "batch_session", "sched.test"),
    (BatchAdmissionSession, "try_admit", "sched.test"),
    (AubAnalyzer, "prune", "sched.prune"),
    (AubAnalyzer, "register", "sched.registry"),
    (AubAnalyzer, "unregister", "sched.registry"),
    (SyntheticUtilizationLedger, "add", "sched.ledger"),
    (SyntheticUtilizationLedger, "remove", "sched.ledger"),
    (SyntheticUtilizationLedger, "add_batch", "sched.ledger"),
    (SyntheticUtilizationLedger, "remove_batch", "sched.ledger"),
    (distributed_ac, "aub_term", "sched.aub"),
    (distributed_ac, "aub_term_inverse", "sched.aub"),
    (MetricsCollector, "on_arrival", "metrics"),
    (MetricsCollector, "on_release", "metrics"),
    (MetricsCollector, "on_rejection", "metrics"),
    (MetricsCollector, "on_completion", "metrics"),
    (OverheadAccounting, "record_admission_path", "metrics"),
    (OverheadAccounting, "record_ir_ac_side", "metrics"),
    (OverheadAccounting, "record_ir_other", "metrics"),
    (OverheadAccounting, "record_communication", "metrics"),
    (Counter, "inc", "metrics"),
    (Gauge, "set", "metrics"),
    (Gauge, "inc", "metrics"),
    (Gauge, "dec", "metrics"),
    (Histogram, "observe", "metrics"),
    (LoadBalancerComponent, "location", "core.lb"),
    (LoadBalancerComponent, "location_in_batch", "core.lb"),
    (LoadBalancerComponent, "location_for_reserved", "core.lb"),
    (IdleResetterComponent, "complete", "core.ir"),
    (FISubtaskComponent, "release", "core.subtask"),
    (LastSubtaskComponent, "release", "core.subtask"),
)

#: (class, method, counter): calls counted without a span of their own.
COUNTED: Tuple[Tuple[type, str, str], ...] = (
    (WorkloadSource, "materialize", "workloads.materialize_calls"),
    (Container, "install", "ccm.components_installed"),
    (Simulator, "schedule_at", "sim.schedule_calls"),
    (EventHandle, "cancel", "sim.cancels"),
    (Processor, "submit", "cpu.work_items"),
    (EventSourcePort, "push", "ccm.events_pushed"),
    (EventSourcePort, "broadcast", "ccm.events_pushed"),
    (SyntheticUtilizationLedger, "add", "sched.ledger_ops"),
    (SyntheticUtilizationLedger, "remove", "sched.ledger_ops"),
    (SyntheticUtilizationLedger, "add_batch", "sched.ledger_ops"),
    (SyntheticUtilizationLedger, "remove_batch", "sched.ledger_ops"),
) + tuple(
    (cls, name, "metrics.observations")
    for cls, name, layer in SPANNED
    if layer == "metrics"
)


class LayerTracer:
    """Span stack, per-layer self time and call counts for one pass."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.peaks: Dict[str, int] = {"sim.peak_pending": 0, "sched.registered_peak": 0}
        self.cell = -1
        #: Open spans: [layer, start, child seconds, log index].
        self._stack: List[list] = []
        self._layer_ids: Dict[str, int] = {}
        self.log_layer = array("H")
        self.log_cell = array("i")
        self.log_parent = array("i")
        self.log_start = array("d")
        self.log_end = array("d")
        self._module_layer: Dict[str, str] = {}

    # -- spans --------------------------------------------------------------
    def enter(self, layer: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        index = -1
        if len(self.log_start) < SPAN_LOG_LIMIT:
            index = len(self.log_start)
            self.log_layer.append(self._layer_ids.setdefault(layer, len(self._layer_ids)))
            self.log_cell.append(self.cell)
            self.log_parent.append(parent)
            self.log_start.append(0.0)
            self.log_end.append(0.0)
        frame = [layer, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = self.clock()
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span stack out of order at {frame[0]!r}")
        duration = end - frame[1]
        layer = frame[0]
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if frame[3] >= 0:
            self.log_start[frame[3]] = frame[1]
            self.log_end[frame[3]] = end

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks[name]:
            self.peaks[name] = value

    # -- callbacks -------------------------------------------------------------
    def layer_of(self, callback: Callable[..., Any]) -> str:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, EventSinkPort):
            owner = owner.owner
        module = (
            type(owner).__module__
            if owner is not None
            else getattr(callback, "__module__", None) or ""
        )
        layer = self._module_layer.get(module)
        if layer is None:
            matches = [p for p in MODULE_LAYERS if module == p or module.startswith(p + ".")]
            layer = MODULE_LAYERS[max(matches, key=len)] if matches else ROOT
            self._module_layer[module] = layer
        return layer

    def callback(self, fn: Optional[Callable[..., Any]]) -> Any:
        if fn is None or isinstance(fn, TracedCallback):
            return fn
        layer = self.layer_of(fn)
        if layer == ROOT:
            self.count(UNATTRIBUTED_CALLBACKS)
        return TracedCallback(self, fn, layer)

    def spans(self) -> Iterator[Tuple[str, int, int, float, float]]:
        """Logged spans as (layer, cell, parent index, start, end)."""
        names = {i: name for name, i in self._layer_ids.items()}
        for i in range(len(self.log_start)):
            yield (
                names[self.log_layer[i]],
                self.log_cell[i],
                self.log_parent[i],
                self.log_start[i],
                self.log_end[i],
            )


class TracedCallback:
    """A callback that opens a span for its receiver's layer when called.

    Equality and hashing delegate to the wrapped callback, so two wrappers
    of equal bound methods land in the same ``schedule_batch`` batch.
    """

    __slots__ = ("tracer", "fn", "layer")

    def __init__(self, tracer: LayerTracer, fn: Callable[..., Any], layer: str) -> None:
        self.tracer = tracer
        self.fn = fn
        self.layer = layer

    def __call__(self, *args: Any) -> Any:
        frame = self.tracer.enter(self.layer)
        try:
            return self.fn(*args)
        finally:
            self.tracer.exit(frame)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TracedCallback):
            other = other.fn
        return bool(self.fn == other)

    def __hash__(self) -> int:
        return hash(self.fn)


def _spanned(tracer: LayerTracer, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = tracer.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    return wrapper


def _counted(tracer: LayerTracer, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _callback_entry_points(tracer: LayerTracer) -> Dict[Tuple[type, str], Callable[..., Any]]:
    """Wrappers for the entry points that take a callback to attribute."""
    schedule_at = Simulator.schedule_at
    schedule_batch = Simulator.schedule_batch
    submit = Processor.submit
    subscribe = LocalEventChannel.subscribe
    register = AubAnalyzer.register

    def traced_schedule_at(sim: Simulator, time_: float, callback: Any, *args: Any, **kw: Any) -> Any:
        handle = schedule_at(sim, time_, tracer.callback(callback), *args, **kw)
        tracer.peak("sim.peak_pending", sim.pending_events)
        return handle

    def traced_schedule_batch(sim: Simulator, time_: float, callback: Any, *args: Any, **kw: Any) -> Any:
        return schedule_batch(sim, time_, tracer.callback(callback), *args, **kw)

    def traced_submit(processor: Processor, thread: Any, item: Any) -> None:
        item.on_complete = tracer.callback(item.on_complete)
        submit(processor, thread, item)

    def traced_subscribe(channel: LocalEventChannel, topic: str, consumer: Any) -> None:
        subscribe(channel, topic, tracer.callback(consumer))

    def traced_register(analyzer: AubAnalyzer, *args: Any, **kwargs: Any) -> None:
        register(analyzer, *args, **kwargs)
        tracer.peak("sched.registered_peak", analyzer.registered)

    return {
        (Simulator, "schedule_at"): traced_schedule_at,
        (Simulator, "schedule_batch"): traced_schedule_batch,
        (Processor, "submit"): traced_submit,
        (LocalEventChannel, "subscribe"): traced_subscribe,
        (AubAnalyzer, "register"): traced_register,
    }


@contextmanager
def installed(tracer: LayerTracer) -> Iterator[LayerTracer]:
    """Patch every traced entry point for the block; always restore."""
    originals: Dict[Tuple[Any, str], Any] = {}

    def patch(owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        key = (owner, name)
        if key not in originals:
            # None marks a method the class inherits rather than defines.
            originals[key] = owner.__dict__.get(name)
        setattr(owner, name, make(getattr(owner, name)))

    try:
        # Innermost first: the counting and callback wrappers run inside
        # the span the SPANNED wrapper opens around them.
        for (cls, name), wrapper in _callback_entry_points(tracer).items():
            patch(cls, name, lambda _fn, w=wrapper: w)
        for cls, name, counter in COUNTED:
            patch(cls, name, lambda fn, c=counter: _counted(tracer, c, fn))
        for cls, name, layer in SPANNED:
            patch(cls, name, lambda fn, l=layer: _spanned(tracer, l, fn))
        yield tracer
    finally:
        for (owner, name), original in originals.items():
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
