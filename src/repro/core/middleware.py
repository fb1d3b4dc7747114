"""MiddlewareSystem: assemble and run a complete distributed deployment.

This facade builds the paper's Figure 1 architecture for a given workload
and strategy combination: a task-manager processor hosting the AC and LB
components, and application processors each hosting a TE, an IR and a
stage host, whose table has one row per (task, stage) eligible there; a
row stands for Figure 1's F/I or Last Subtask component of that replica
(:mod:`repro.core.subtask`).  It then drives the workload's arrival plan
through the task effectors and collects results.

It is the one description of a centralized system's assembly, and its
one assembler.  A :class:`repro.api.Session` builds one from a scenario,
adding disturbances and a typed :class:`~repro.api.session.RunResult`;
the configuration engine (:mod:`repro.config`) emits such a scenario.
The distributed engine subclasses it and replaces the deploy step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.ccm.container import Container
from repro.core.admission_controller import AdmissionControllerComponent
from repro.core.cost_model import CostModel
from repro.core.idle_resetter import IdleResetterComponent
from repro.core.load_balancer import LoadBalancerComponent
from repro.core.runtime import RuntimeEnv
from repro.core.strategies import ACStrategy, LBStrategy, StrategyCombo
from repro.core.subtask import deploy_stages
from repro.core.task_effector import TaskEffectorComponent
from repro.cpu.processor import Processor
from repro.errors import ConfigurationError
from repro.metrics.overhead import OverheadAccounting
from repro.metrics.ratio import MetricsCollector
from repro.metrics.registry import MetricsRegistry
from repro.net.federation import FederatedEventChannel
from repro.net.latency import DelayModel
from repro.net.network import Network
from repro.sched.task import Job, TaskSpec
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.workloads.arrivals import ArrivalPlan, build_arrival_plan
from repro.workloads.model import Workload


@dataclass
class SystemResults:
    """Everything an experiment needs from one completed run."""

    combo_label: str
    duration: float
    metrics: MetricsCollector
    overhead: OverheadAccounting
    cpu_utilization: Dict[str, float]
    final_synthetic_utilization: Dict[str, float]
    events_executed: int
    messages_sent: int
    arrived_jobs: int

    @property
    def accepted_utilization_ratio(self) -> float:
        return self.metrics.accepted_utilization_ratio

    @property
    def deadline_misses(self) -> int:
        return self.metrics.deadline_misses


class MiddlewareSystem:
    """A fully wired middleware deployment over a simulated testbed."""

    def __init__(
        self,
        workload: Workload,
        combo: StrategyCombo,
        cost_model: Optional[CostModel] = None,
        seed: int = 0,
        delay_model: Optional[DelayModel] = None,
        aperiodic_interarrival_factor: float = 2.0,
        arrival_batching: bool = False,
        metrics_registry: Optional[MetricsRegistry] = None,
    ) -> None:
        combo.validate()
        self.workload = workload
        self.combo = combo
        self.cost_model = cost_model or CostModel()
        self.aperiodic_interarrival_factor = aperiodic_interarrival_factor
        #: Batched hot path: simultaneous arrivals are delivered to the
        #: task effectors as one kernel batch, and the AC drains its
        #: arrival queue through one analyzer batch session per segment
        #: (home, pinned or LB placements alike).
        self.arrival_batching = arrival_batching
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        self.network = Network(self.sim, self.rngs.stream("network"), delay_model)
        self.federation = FederatedEventChannel(self.network)
        self.metrics = MetricsCollector()
        self.overhead = OverheadAccounting()
        #: Observability registry (None = unarmed; see docs/OBSERVABILITY.md).
        self.metrics_registry = metrics_registry
        self.processors: Dict[str, Processor] = {}
        self.containers: Dict[str, Container] = {}

        self.env = RuntimeEnv(
            sim=self.sim,
            network=self.network,
            federation=self.federation,
            combo=combo,
            cost_model=self.cost_model,
            rngs=self.rngs,
            metrics=self.metrics,
            overhead=self.overhead,
            manager_node=workload.manager_node,
            app_nodes=list(workload.app_nodes),
            metrics_registry=metrics_registry,
            tasks={t.task_id: t for t in workload.tasks},
        )
        self._build_infrastructure()
        self.ac: Optional[AdmissionControllerComponent] = None
        self.lb: Optional[LoadBalancerComponent] = None
        self._deploy()
        for container in self.containers.values():
            container.activate_all()
        self._ran = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_infrastructure(self) -> None:
        for node in (self.workload.manager_node,) + tuple(self.workload.app_nodes):
            processor = Processor(self.sim, node)
            self.processors[node] = processor
            self.federation.add_node(node)
            self.containers[node] = Container(processor, self.federation)

    def _deploy(self) -> None:
        """Install every component (subclasses replace this step)."""
        self._deploy_services()
        self._deploy_application()

    def _deploy_services(self) -> None:
        manager = self.containers[self.workload.manager_node]
        self.ac = AdmissionControllerComponent("Central-AC", self.env)
        self.ac.set_configuration(  # type: ignore[union-attr]
            {
                "ac_strategy": self.combo.ac.value,
                "ir_strategy": self.combo.ir.value,
                "lb_strategy": self.combo.lb.value,
                "batching": self.arrival_batching,
            }
        )
        manager.install(self.ac)
        if self.combo.lb is not LBStrategy.NONE:
            self.lb = LoadBalancerComponent("Central-LB", self.env)
            self.lb.set_configuration({"strategy": self.combo.lb.value})
            manager.install(self.lb)
            self.lb.connect_admission_state(self.ac.provide_state_facet())
            self.ac.connect_locator(self.lb.provide_location_facet())

        # The TE holds every job for an AC round trip unless both the
        # admission decision and the placement are fixed per task.
        if (
            self.combo.ac is ACStrategy.PER_TASK
            and self.combo.lb is not LBStrategy.PER_JOB
        ):
            release_mode = "per_task"
        else:
            release_mode = "per_job"

        for node in self.workload.app_nodes:
            container = self.containers[node]
            te = TaskEffectorComponent(f"TE-{node}", self.env)
            te.set_configuration(
                {"processor_id": node, "release_mode": release_mode}
            )
            container.install(te)
            ir = IdleResetterComponent(f"IR-{node}", self.env)
            ir.set_configuration(
                {"processor_id": node, "strategy": self.combo.ir.value}
            )
            container.install(ir)

    def _deploy_application(self) -> None:
        deploy_stages(self.env, self.containers, self.workload.tasks, replicas=True)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def schedule_arrivals(self, plan: ArrivalPlan) -> int:
        """Schedule every arrival in ``plan``; returns the job count.

        With ``arrival_batching`` the kernel coalesces same-timestamp
        arrivals into one batched delivery, so a wave of simultaneous
        releases reaches the task effectors (and, downstream, the AC's
        batched admission queue) as a single burst.
        """
        count = 0
        if self.arrival_batching:
            for arrival_time, task_id, job_index in plan.events():
                task = self.env.tasks[task_id]
                self.sim.schedule_batch(
                    arrival_time,
                    self._arrive_batch,
                    (task, job_index, arrival_time),
                )
                count += 1
            return count
        for arrival_time, task_id, job_index in plan.events():
            task = self.env.tasks[task_id]
            self.sim.schedule_at(
                arrival_time, self._arrive, task, job_index, arrival_time
            )
            count += 1
        return count

    def _arrive(self, task: TaskSpec, job_index: int, arrival_time: float) -> None:
        arrival_node = task.subtasks[0].home
        job = Job(
            task=task,
            index=job_index,
            arrival_time=arrival_time,
            arrival_node=arrival_node,
        )
        self.env.task_effectors[arrival_node].task_arrived(job)

    def _arrive_batch(self, payloads) -> None:
        """Batched kernel delivery: one call per burst of simultaneous
        arrivals (payloads are ``(task, job_index, arrival_time)``)."""
        for task, job_index, arrival_time in payloads:
            self._arrive(task, job_index, arrival_time)

    def run(self, duration: float, drain: bool = True) -> SystemResults:
        """Generate arrivals over ``duration`` seconds and run the system.

        With ``drain=True`` the simulation continues past the arrival
        horizon by the longest task deadline, so late-arriving jobs can
        complete and their contributions expire.
        """
        return self.run_plan(
            build_arrival_plan(
                self.workload,
                duration,
                self.rngs.stream("arrivals"),
                self.aperiodic_interarrival_factor,
            ),
            drain,
        )

    def run_plan(self, plan: ArrivalPlan, drain: bool = True) -> SystemResults:
        """Run a pre-built arrival plan (for paired strategy comparisons
        on identical traces).

        Once the results are read, the application is uninstalled
        (:meth:`_uninstall_application`), as DAnCE ends an application's
        lifecycle by tearing it down: the stage hosts, their rows, the
        rows' threads and any work still queued are freed here, by
        reference counting.  The services (AC, LB, TEs, IRs, distributed
        ACs) stay readable with their counters, as do ``metrics``,
        ``overhead``, ``network``, ``processors`` and ``sim``'s counters.
        """
        if self._ran:
            raise ConfigurationError("this system instance already ran")
        self._ran = True
        arrived = self.schedule_arrivals(plan)
        end = self._prepare_run(plan.horizon, drain)
        self.sim.run(until=end)
        results = self._results(end, arrived)
        self._uninstall_application()
        return results

    def _uninstall_application(self) -> None:
        """Drop every reference the deployment holds to a stage row or
        its host.

        A row is reached only through the kernel's pending events and
        its thread's queued work (the bound methods they carry) and the
        ``(task, stage, node)`` table the Trigger routes close over; its
        host, through its rows and its container's component table.
        Neither sits on a reference cycle of its own (see
        :mod:`repro.ccm.ports`).  Emptying these costs the nodes and the
        pending events, with no step per row, and the rows go as the
        last reference does.
        """
        self.sim.drain()
        for processor in self.processors.values():
            processor.discard_work()
        self.env.subtask_instances.clear()
        for container in self.containers.values():
            container.release_components()

    def _prepare_run(self, horizon: float, drain: bool) -> float:
        """The simulated time the run ends at; called once, after the
        arrivals are scheduled and before the kernel runs."""
        end = horizon
        if drain:
            end += max(t.deadline for t in self.workload.tasks)
        return end

    def _results(self, end: float, arrived: int) -> SystemResults:
        # Under REPRO_SANITIZE=1 the registry proxies every stream; a
        # run may not end with a draw some component took behind them.
        self.env.audit_rngs()
        if self.metrics_registry is not None:
            self._publish_final_metrics(end)
        return SystemResults(
            combo_label=self.combo.label,
            duration=end,
            metrics=self.metrics,
            overhead=self.overhead,
            cpu_utilization={
                node: proc.utilization(end)
                for node, proc in self.processors.items()
            },
            final_synthetic_utilization=self.ac.ledger.snapshot(),
            events_executed=self.sim.events_executed,
            messages_sent=self.network.messages_sent,
            arrived_jobs=arrived,
        )

    def _publish_final_metrics(self, end: float) -> None:
        """End-of-run levels: shard utilization, CPU utilization, kernel
        and network volume.  Only reached when the run is armed."""
        registry = self.metrics_registry
        assert registry is not None and self.ac is not None
        shard = registry.gauge(
            "repro_ledger_shard_utilization",
            "Final synthetic utilization per ledger shard (node).",
            ("node",),
        )
        for node, utilization in sorted(self.ac.ledger.snapshot().items()):
            shard.labels(node).set(utilization)
        entries = registry.gauge(
            "repro_ledger_shard_entries",
            "Live contribution entries per ledger shard (node).",
            ("node",),
        )
        for node in sorted(self.ac.ledger.nodes):
            entries.labels(node).set(self.ac.ledger.contribution_count(node))
        if self.ac.analyzer is not None:
            registry.counter(
                "repro_admission_tests_total",
                "AUB admission tests evaluated by the analyzer.",
            ).labels().inc(self.ac.analyzer.tests_performed)
            registry.counter(
                "repro_analyzer_batch_sessions_total",
                "Burst-admission sessions opened by the analyzer.",
            ).labels().inc(self.ac.analyzer.batch_sessions)
        cpu = registry.gauge(
            "repro_cpu_utilization",
            "Busy fraction of each simulated processor over the run.",
            ("node",),
        )
        for node in sorted(self.processors):
            cpu.labels(node).set(self.processors[node].utilization(end))
        registry.counter(
            "repro_kernel_events_total", "Simulation kernel events executed."
        ).labels().inc(self.sim.events_executed)
        registry.counter(
            "repro_network_messages_total", "Messages sent over the simulated network."
        ).labels().inc(self.network.messages_sent)
