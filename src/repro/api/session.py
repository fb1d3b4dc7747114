"""Session: deploy a :class:`Scenario`, run it, return a :class:`RunResult`.

The session is the one audited execution path behind every experiment,
example, and CLI command.  It dispatches on the scenario's engine:

* ``middleware`` — the paper's Figure 1 deployment via
  :class:`~repro.core.middleware.MiddlewareSystem`, the one assembler that
  a checked deployment plan is also built by;
* ``distributed`` — the per-processor two-phase admission prototype.

:class:`RunResult` replaces the loosely-shaped ``SystemResults`` at the
public surface: a frozen, typed, JSON-serializable record of metrics,
overhead accounting (as mergeable :class:`StatSnapshot` series) and
acceptance ratios, identical in content no matter which worker process
produced it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api.scenario import (
    ENGINE_DISTRIBUTED,
    Burst,
    NodeCrash,
    Partition,
    Scenario,
    Slowdown,
)
from repro.errors import ConfigurationError
from repro.json_checks import decode, encode
from repro.metrics.overhead import ALL_ROWS, OverheadRow
from repro.metrics.registry import MetricsRegistry, MetricsSnapshot
from repro.sim.kernel import USEC
from repro.sim.monitor import StatSeries


# ----------------------------------------------------------------------
# Serializable statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StatSnapshot:
    """Frozen, mergeable snapshot of a :class:`StatSeries`.

    Carries the exact accumulators (count/total/total_sq/min/max), so
    merging snapshots from parallel workers reproduces bit-identically the
    statistics a serial run would have accumulated.
    """

    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    #: +-inf sentinels are not strict JSON: an empty snapshot leaves
    #: them out.
    JSON_OMIT_DEFAULT = ("minimum", "maximum")

    @classmethod
    def from_series(cls, series: StatSeries) -> "StatSnapshot":
        return cls(
            count=series.count,
            total=series.total,
            total_sq=series.total_sq,
            minimum=series.minimum,
            maximum=series.maximum,
        )

    def to_series(self) -> StatSeries:
        return StatSeries(
            count=self.count,
            total=self.total,
            total_sq=self.total_sq,
            minimum=self.minimum,
            maximum=self.maximum,
        )

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


# ----------------------------------------------------------------------
# RunResult
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunResult:
    """Typed, serializable outcome of one scenario run."""

    scenario_label: str
    combo_label: str
    engine: str
    seed: int
    duration: float  # simulated end time, including the drain window
    arrived_jobs: int
    released_jobs: int
    rejected_jobs: int
    completed_jobs: int
    deadline_misses: int
    accepted_utilization_ratio: float
    mean_response_time: float = 0.0
    events_executed: int = 0
    messages_sent: int = 0
    reserve_messages: int = 0
    cpu_utilization: Dict[str, float] = field(default_factory=dict)
    final_synthetic_utilization: Dict[str, float] = field(default_factory=dict)
    overhead: Dict[str, StatSnapshot] = field(default_factory=dict)
    comm_delay: StatSnapshot = StatSnapshot()
    # Chaos layer (all zero on fault-free runs; left out of the JSON
    # while zero, so fault-free JSON stays byte-identical to the seed).
    messages_dropped: int = 0
    messages_delay_spiked: int = 0
    vote_timeouts: int = 0
    retries_sent: int = 0
    transactions_aborted: int = 0
    # Observability layer (None unless the session was armed with a
    # MetricsRegistry; serialized only then, so legacy JSON stays
    # byte-identical — see docs/OBSERVABILITY.md).
    metrics_snapshot: Optional[MetricsSnapshot] = None

    JSON_OMIT_DEFAULT = (
        "messages_dropped",
        "messages_delay_spiked",
        "vote_timeouts",
        "retries_sent",
        "transactions_aborted",
        "metrics_snapshot",
    )

    # -- derived views ----------------------------------------------------
    def overhead_rows(self) -> List[OverheadRow]:
        """Figure-8-style rows (microseconds) for paths that saw samples."""
        rows: List[OverheadRow] = []
        for name in ALL_ROWS:
            snap = self.overhead.get(name)
            if snap is None or snap.count == 0:
                continue
            rows.append(
                OverheadRow(
                    name=name,
                    mean_usec=snap.mean / USEC,
                    max_usec=snap.maximum / USEC,
                    samples=snap.count,
                )
            )
        return rows

    def summary(self) -> Dict[str, float]:
        """The job counts, ratio, misses and mean response time, flat
        (``repro scenario run`` prints it)."""
        return {
            "arrived_jobs": self.arrived_jobs,
            "released_jobs": self.released_jobs,
            "rejected_jobs": self.rejected_jobs,
            "accepted_utilization_ratio": self.accepted_utilization_ratio,
            "completed_jobs": self.completed_jobs,
            "deadline_misses": self.deadline_misses,
            "mean_response_time": self.mean_response_time,
        }

    # -- JSON -------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = encode(self, RunResult)
        return data

    def to_json_str(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, data: Any) -> "RunResult":
        """Raises ConfigurationError on any malformed ``data``: an unknown
        or missing required field, or a value of the wrong type at any
        depth."""
        result: RunResult = decode(cls, data)
        return result


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
class Session:
    """Deploys a scenario into a live system and runs it exactly once.

    ``metrics`` arms the run with a :class:`MetricsRegistry`: the
    engines publish decision counters, latency histograms, and shard
    gauges into it, and the resulting :class:`RunResult` carries
    ``metrics_snapshot``.  Unarmed runs (the default) take no metrics
    branches and stay bit-identical to the seed.
    """

    def __init__(
        self,
        scenario: Scenario,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not isinstance(scenario, Scenario):
            raise ConfigurationError(
                f"Session needs a Scenario, got {type(scenario).__name__}"
            )
        self.scenario = scenario
        self.metrics = metrics
        # The deployed system comes from intentionally-untyped engine
        # modules (middleware / distributed), hence Any.
        self._system: Optional[Any] = None
        self._result: Optional[RunResult] = None
        self._validate_disturbance_nodes()

    def _validate_disturbance_nodes(self) -> None:
        """Reject disturbances that name nodes the scenario never deploys.

        Runs at construction so a typo'd node name fails fast instead of
        silently injecting faults nobody feels (a crash of a nonexistent
        node drops no message) or exploding mid-deploy.
        """
        referencing = [
            d
            for d in self.scenario.disturbances
            if isinstance(d, (NodeCrash, Partition))
            or (isinstance(d, Slowdown) and d.nodes)
        ]
        if not referencing:
            return
        workload = self.scenario.workload.materialize()
        deployed = set(workload.app_nodes)
        for disturbance in referencing:
            if isinstance(disturbance, NodeCrash):
                unknown = {disturbance.node} - deployed
            elif isinstance(disturbance, Partition):
                unknown = (
                    set(disturbance.group_a) | set(disturbance.group_b)
                ) - deployed
            else:
                unknown = set(disturbance.nodes) - deployed
            if unknown:
                kind = type(disturbance).__name__
                raise ConfigurationError(
                    f"{kind} disturbance references unknown node(s) "
                    f"{', '.join(repr(n) for n in sorted(unknown))}; "
                    f"deployed application nodes are "
                    f"{', '.join(repr(n) for n in sorted(deployed))}"
                )

    # -- deployment -------------------------------------------------------
    @property
    def system(self) -> Optional[Any]:
        """The deployed system (None until :meth:`deploy` or :meth:`run`)."""
        return self._system

    def deploy(self) -> Any:
        """Build (and keep) the live system for this scenario."""
        if self._system is not None:
            return self._system
        scenario = self.scenario
        workload = scenario.workload.materialize()
        if scenario.engine == ENGINE_DISTRIBUTED:
            from repro.core.distributed_ac import DistributedMiddlewareSystem

            self._system = DistributedMiddlewareSystem(
                workload,
                seed=scenario.seed,
                cost_model=scenario.cost_model,
                delay_model=scenario.delay_model,
                aperiodic_interarrival_factor=(
                    scenario.aperiodic_interarrival_factor
                ),
                metrics_registry=self.metrics,
            )
            self._install_faults(self._system)
            return self._system
        from repro.core.middleware import MiddlewareSystem

        self._system = MiddlewareSystem(
            workload,
            scenario.strategy_combo,
            cost_model=scenario.cost_model,
            seed=scenario.seed,
            delay_model=scenario.delay_model,
            aperiodic_interarrival_factor=(
                scenario.aperiodic_interarrival_factor
            ),
            arrival_batching=scenario.arrival_batching,
            metrics_registry=self.metrics,
        )
        self._apply_disturbances(self._system)
        self._install_faults(self._system)
        return self._system

    def _apply_disturbances(self, system: Any) -> None:
        self._check_resolved_burst_overlap(system)
        for disturbance in self.scenario.disturbances:
            if isinstance(disturbance, Burst):
                self._schedule_burst(system, disturbance)
            elif isinstance(disturbance, Slowdown):
                self._schedule_slowdown(system, disturbance)

    def _install_faults(self, system: Any) -> None:
        """Install the chaos layer: fault injector + crash/recovery events.

        No-op on fault-free scenarios (``injector_from_disturbances``
        returns ``None``), so ordinary runs never install an injector and
        stay bit-identical to pre-chaos behavior.
        """
        from repro.net.fault import injector_from_disturbances

        injector = injector_from_disturbances(
            self.scenario.disturbances, system.rngs
        )
        if injector is None:
            return
        system.network.install_fault_injector(injector)
        for disturbance in self.scenario.disturbances:
            if not isinstance(disturbance, NodeCrash):
                continue
            system.sim.schedule_at(
                disturbance.time, system.crash_node, disturbance.node
            )
            if disturbance.recovery is not None:
                system.sim.schedule_at(
                    disturbance.recovery, system.recover_node, disturbance.node
                )

    def _check_resolved_burst_overlap(self, system: Any) -> None:
        # Scenario validation catches overlaps keyed by literal task_id,
        # but a burst with task_id=None resolves to the first aperiodic
        # task only now that the workload is live — re-check with the
        # resolved targets so no duplicate job keys reach the admission
        # registry.
        spans: Dict[str, List[Tuple[int, int]]] = {}
        for disturbance in self.scenario.disturbances:
            if not isinstance(disturbance, Burst) or disturbance.jobs == 0:
                continue
            resolved = self._resolve_burst_task(system, disturbance).task_id
            span = (disturbance.base_index,
                    disturbance.base_index + disturbance.jobs)
            for other in spans.get(resolved, ()):
                if span[0] < other[1] and other[0] < span[1]:
                    raise ConfigurationError(
                        f"burst disturbances resolve to the same task "
                        f"{resolved!r} with overlapping job index ranges "
                        f"{other} and {span}; give each burst a distinct "
                        "base_index"
                    )
            spans.setdefault(resolved, []).append(span)

    @staticmethod
    def _resolve_burst_task(system: Any, burst: Burst) -> Any:
        workload = system.workload
        if burst.task_id is None:
            aperiodic = workload.aperiodic_tasks
            if not aperiodic:
                raise ConfigurationError(
                    "burst disturbance needs an aperiodic task in the workload"
                )
            return aperiodic[0]
        return workload.task(burst.task_id)

    @classmethod
    def _schedule_burst(cls, system: Any, burst: Burst) -> None:
        task = cls._resolve_burst_task(system, burst)
        batched = getattr(system, "arrival_batching", False)
        for i in range(burst.jobs):
            arrival = burst.time + i * burst.spacing
            if batched:
                # Burst jobs ride the batched delivery path, so arrivals
                # that land on the same timestamp (or pile up behind the
                # AC's dispatch thread) are admitted as one burst.
                system.sim.schedule_batch(
                    arrival,
                    system._arrive_batch,
                    (task, burst.base_index + i, arrival),
                )
            else:
                system.sim.schedule_at(
                    arrival, system._arrive, task, burst.base_index + i, arrival
                )

    @staticmethod
    def _schedule_slowdown(system: Any, slowdown: Slowdown) -> None:
        nodes = slowdown.nodes or tuple(system.workload.app_nodes)
        for node in nodes:
            if node not in system.processors:
                raise ConfigurationError(
                    f"slowdown disturbance references unknown processor {node!r}"
                )

        def throttle() -> None:
            for node in nodes:
                system.processors[node].set_speed(slowdown.factor)

        system.sim.schedule_at(slowdown.time, throttle)

    # -- execution --------------------------------------------------------
    def run(self) -> RunResult:
        """Deploy (if needed), run to completion, and summarize."""
        if self._result is not None:
            raise ConfigurationError("this session already ran")
        if self.scenario.engine == ENGINE_DISTRIBUTED:
            self._result = self._run_distributed()
        else:
            self._result = self._run_middleware()
        return self._result

    @property
    def result(self) -> Optional[RunResult]:
        return self._result

    def _snapshot_metrics(self) -> Optional[MetricsSnapshot]:
        """Freeze the armed registry after a run; None when unarmed."""
        return self.metrics.snapshot() if self.metrics is not None else None

    def _run_middleware(self) -> RunResult:
        scenario = self.scenario
        system = self.deploy()
        results = system.run(scenario.duration, drain=scenario.drain)
        metrics = results.metrics
        injector = system.network.fault_injector
        return RunResult(
            scenario_label=scenario.effective_label,
            combo_label=results.combo_label,
            engine=scenario.engine,
            seed=scenario.seed,
            duration=results.duration,
            arrived_jobs=metrics.arrived_jobs,
            released_jobs=metrics.released_jobs,
            rejected_jobs=metrics.rejected_jobs,
            completed_jobs=metrics.completed_jobs,
            deadline_misses=metrics.deadline_misses,
            accepted_utilization_ratio=metrics.accepted_utilization_ratio,
            mean_response_time=metrics.response_times.mean,
            events_executed=results.events_executed,
            messages_sent=results.messages_sent,
            cpu_utilization=dict(results.cpu_utilization),
            final_synthetic_utilization=dict(
                results.final_synthetic_utilization
            ),
            overhead={
                name: StatSnapshot.from_series(results.overhead.series(name))
                for name in ALL_ROWS
            },
            comm_delay=StatSnapshot.from_series(system.network.delay_stats),
            messages_dropped=(
                injector.messages_dropped if injector is not None else 0
            ),
            messages_delay_spiked=(
                injector.messages_delay_spiked if injector is not None else 0
            ),
            metrics_snapshot=self._snapshot_metrics(),
        )

    def _run_distributed(self) -> RunResult:
        scenario = self.scenario
        system = self.deploy()
        results = system.run(scenario.duration, drain=scenario.drain)
        metrics = results.metrics
        return RunResult(
            scenario_label=scenario.effective_label,
            combo_label=scenario.strategy_combo.label,
            engine=scenario.engine,
            seed=scenario.seed,
            duration=results.duration,
            arrived_jobs=metrics.arrived_jobs,
            released_jobs=metrics.released_jobs,
            rejected_jobs=metrics.rejected_jobs,
            completed_jobs=metrics.completed_jobs,
            deadline_misses=metrics.deadline_misses,
            accepted_utilization_ratio=metrics.accepted_utilization_ratio,
            mean_response_time=metrics.response_times.mean,
            events_executed=system.sim.events_executed,
            messages_sent=results.messages_sent,
            reserve_messages=results.reserve_messages,
            final_synthetic_utilization=dict(results.final_utilization),
            comm_delay=StatSnapshot.from_series(system.network.delay_stats),
            messages_dropped=results.messages_dropped,
            messages_delay_spiked=results.messages_delay_spiked,
            vote_timeouts=results.vote_timeouts,
            retries_sent=results.retries_sent,
            transactions_aborted=results.transactions_aborted,
            metrics_snapshot=self._snapshot_metrics(),
        )


def run_scenario(scenario: Scenario, with_metrics: bool = False) -> RunResult:
    """One-shot convenience: ``Session(scenario).run()``.

    ``with_metrics=True`` arms the run with a fresh
    :class:`MetricsRegistry` so the result carries ``metrics_snapshot``.
    A plain bool (rather than a registry argument) keeps this function
    picklable-friendly for ``run_cells`` fan-out.
    """
    registry = MetricsRegistry() if with_metrics else None
    return Session(scenario, metrics=registry).run()
