"""What the one assembler installs, and what a configured scenario deploys.

:class:`~repro.core.middleware.MiddlewareSystem` is the only description
of a centralized system's assembly: the paper's Figure 1 architecture
for a workload and a strategy combination.  These tests state that
architecture from the workload and combo alone and check the assembled
system against it, component for component, facet for facet and route
for route.  A scenario the configuration engine emits is the only file
that describes a run; it round-trips through its JSON form and deploys
as the system a direct build of its workload and combo gives.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario, Session, WorkloadSource
from repro.ccm.events import (
    TOPIC_ACCEPT,
    TOPIC_IDLE_RESETTING,
    TOPIC_REJECT,
    TOPIC_TASK_ARRIVE,
    TOPIC_TRIGGER,
    TriggerEvent,
)
from repro.ccm.ports import Receptacle
from repro.config.engine import ConfigurationEngine
from repro.core.admission_controller import AdmissionControllerComponent
from repro.core.cost_model import CostModel
from repro.core.idle_resetter import IdleResetterComponent
from repro.core.load_balancer import LoadBalancerComponent
from repro.core.middleware import MiddlewareSystem
from repro.core.strategies import StrategyCombo, valid_combinations
from repro.core.subtask import (
    FISubtaskComponent,
    LastSubtaskComponent,
    StageHostComponent,
)
from repro.core.task_effector import TaskEffectorComponent
from repro.errors import ConfigurationError
from repro.net.latency import ConstantDelay
from repro.sched.edms import edms_priority
from repro.sched.task import Job, TaskKind
from repro.workloads.generator import RandomWorkloadParams, generate_random_workload
from repro.workloads.model import Workload

from tests.jsonutil import mutate, may_parse
from tests.taskutil import make_task, make_two_node_workload

_COMBOS = pytest.mark.parametrize(
    "combo", valid_combinations(), ids=lambda combo: combo.label
)


def expected_components(workload, combo):
    """``{name: (node, class, attributes)}`` of every component a
    centralized system of ``workload`` under ``combo`` installs.

    The task manager hosts the AC, and the LB unless the combo has none;
    each application processor hosts a TE, an IR and a stage host.  The
    TE releases per task only when both admission and placement are fixed
    per task.  The stages are rows of the hosts (:func:`expected_rows`).
    """
    manager = workload.manager_node
    lb = combo.lb.value
    components = {
        "Central-AC": (manager, AdmissionControllerComponent, {
            "ac_strategy": combo.ac.value,
            "ir_strategy": combo.ir.value,
            "lb_strategy": lb,
            "batching": False,
        }),
    }
    if lb != "N":
        components["Central-LB"] = (
            manager, LoadBalancerComponent, {"strategy": lb}
        )
    release_mode = (
        "per_task" if combo.ac.value == "T" and lb != "J" else "per_job"
    )
    for node in workload.app_nodes:
        components[f"TE-{node}"] = (node, TaskEffectorComponent, {
            "processor_id": node, "release_mode": release_mode,
        })
        components[f"IR-{node}"] = (node, IdleResetterComponent, {
            "processor_id": node, "strategy": combo.ir.value,
        })
        components[f"Stages-{node}"] = (node, StageHostComponent, {})
    return components


def expected_rows(workload):
    """``{(task, stage, node): (class, execution time, priority)}`` of
    every stage a centralized system of ``workload`` deploys: one row per
    (task, stage, eligible processor), a Last Subtask for the final
    stage, with the task's EDMS priority."""
    return {
        (task.task_id, subtask.index, node): (
            LastSubtaskComponent
            if subtask.index == task.n_subtasks - 1
            else FISubtaskComponent,
            subtask.execution_time,
            edms_priority(task),
        )
        for task in workload.tasks
        for subtask in task.subtasks
        for node in subtask.eligible
    }


def check_rows(system, workload):
    """Each deployed stage is the row :func:`expected_rows` states, on
    its node's stage host, with its own thread on that node's processor."""
    rows = system.env.subtask_instances
    expected = expected_rows(workload)
    assert rows.keys() == expected.keys()
    for (task_id, index, node), stated in expected.items():
        row = rows[task_id, index, node]
        assert (type(row), row.execution_time, row.thread.priority) == stated
        assert (row.task_id, row.index, row.name) == (
            task_id, index, f"{task_id}.s{index}@{node}"
        )
        assert row.host is system.containers[node].lookup(f"Stages-{node}")
        assert row.thread.processor is system.processors[node]
    assert len({id(row.thread) for row in rows.values()}) == len(rows)


def installed_components(system):
    """``{name: component}`` over every container; names never repeat."""
    installed = {}
    for container in system.containers.values():
        for component in container.components:
            assert component.name not in installed, component.name
            installed[component.name] = component
    return installed


def _typed(mapping):
    return {name: (type(value), value) for name, value in mapping.items()}


class TestAssemblyFollowsCombo:
    """``MiddlewareSystem(w, c)`` installs exactly what Figure 1 asks of
    ``w`` under ``c``, for every valid combination."""

    @pytest.fixture(scope="class")
    def workload(self):
        workload = generate_random_workload(
            random.Random(11),
            RandomWorkloadParams(n_periodic=3, n_aperiodic=3, n_processors=3),
        )
        assert workload.replicated()
        return workload

    def _check(self, system, expected, names):
        installed = installed_components(system)
        for name in names:
            node, cls, attributes = expected[name]
            component = installed[name]
            assert component.node == node, name
            assert type(component) is cls, name
            # Every attribute is the expected value, or its declared
            # default where the architecture says nothing.
            wanted = {n: spec.default for n, spec in component.ATTRIBUTES.items()}
            wanted.update(attributes)
            configured = {
                n: component.get_attribute(n) for n in component.ATTRIBUTES
            }
            assert _typed(configured) == _typed(wanted), name

    @_COMBOS
    def test_services_follow_the_combo(self, workload, combo):
        system = MiddlewareSystem(workload, combo)
        expected = expected_components(workload, combo)
        services = [
            name for name, (_, cls, _) in expected.items()
            if cls is not StageHostComponent
        ]
        assert len(services) == 2 * len(workload.app_nodes) + (
            1 if combo.lb.value == "N" else 2
        )
        self._check(system, expected, services)
        assert (system.lb is None) == (combo.lb.value == "N")

    @_COMBOS
    def test_one_stage_host_per_node_and_one_row_per_eligible_node(
        self, workload, combo
    ):
        system = MiddlewareSystem(workload, combo)
        expected = expected_components(workload, combo)
        installed = installed_components(system)
        assert sorted(installed) == sorted(expected)
        self._check(system, expected, [f"Stages-{n}" for n in workload.app_nodes])
        check_rows(system, workload)

    @_COMBOS
    def test_facets_wire_each_host_to_its_node_ir(self, workload, combo):
        system = MiddlewareSystem(workload, combo)
        installed = installed_components(system)
        wired = {
            (component.name, port.name, port._facet.owner.name, port._facet.name)
            for component in installed.values()
            for port in vars(component).values()
            if isinstance(port, Receptacle) and port.connected
        }
        expected = set()
        if combo.lb.value != "N":
            expected |= {
                ("Central-AC", "locator", "Central-LB", "location"),
                ("Central-LB", "admission_state", "Central-AC", "admission_state"),
            }
        assert wired == expected
        hosts = [c for c in installed.values() if isinstance(c, StageHostComponent)]
        assert sorted(host.node for host in hosts) == sorted(workload.app_nodes)
        for host in hosts:
            link = host._ir_complete
            if combo.ir.value == "N":
                assert link is None, host.name
            else:
                assert (link.owner.name, link.name) == (f"IR-{host.node}", "complete")

    @_COMBOS
    def test_every_event_route_can_be_delivered(self, workload, combo, monkeypatch):
        """Each node binds the topics its components consume, and a
        Trigger for a stage reaches that stage's component on the node the
        assignment names, through the node's one Trigger route."""
        system = MiddlewareSystem(workload, combo)
        manager = workload.manager_node
        assert set(system.federation._routes) == {
            (manager, TOPIC_TASK_ARRIVE),
            (manager, TOPIC_IDLE_RESETTING),
        } | {
            (node, topic)
            for node in workload.app_nodes
            for topic in (TOPIC_ACCEPT, TOPIC_REJECT, TOPIC_TRIGGER)
        }
        reached = []
        for cls in (FISubtaskComponent, LastSubtaskComponent):
            monkeypatch.setattr(
                cls, "release", lambda stage, job, assignment: reached.append(stage.name)
            )
        triggers = 0
        for task in workload.tasks:
            job = Job(task, 0, 0.0, task.subtasks[0].home)
            for before, after in zip(task.subtasks, task.subtasks[1:]):
                for source in before.eligible:
                    for node in after.eligible:
                        reached.clear()
                        system.federation.send(
                            source, node, TOPIC_TRIGGER,
                            TriggerEvent(job, after.index, {after.index: node}),
                        )
                        system.sim.run()
                        assert reached == [
                            f"{task.task_id}.s{after.index}@{node}"
                        ], (task.task_id, after.index, source, node)
                        triggers += 1
        assert triggers > 0


class TestTwoNodeAssembly:
    """The assembly of the two-node workload, named instance by instance."""

    @pytest.fixture(scope="class")
    def system(self):
        return MiddlewareSystem(
            make_two_node_workload(), StrategyCombo.from_label("J_T_T")
        )

    def test_te_and_ir_per_app_node(self, system):
        for node in ("app1", "app2"):
            names = {c.name for c in system.containers[node].components}
            assert f"TE-{node}" in names and f"IR-{node}" in names

    def test_subtask_instances_cover_replicas(self, system):
        # P1 has 2 subtasks x 2 eligible nodes; A1 has 1 x 2.
        assert sorted(
            row.name for row in system.env.subtask_instances.values()
        ) == [
            "A1.s0@app1", "A1.s0@app2",
            "P1.s0@app1", "P1.s0@app2", "P1.s1@app1", "P1.s1@app2",
        ]

    def test_priorities_follow_edms(self, system):
        rows = system.env.subtask_instances
        p1 = rows["P1", 0, "app1"].thread.priority
        a1 = rows["A1", 0, "app1"].thread.priority
        assert a1 < p1  # A1 deadline 0.5 < P1 deadline 1.0
        # A replica carries its home's priority.
        assert rows["A1", 0, "app2"].thread.priority == a1

    def test_replicas_add_rows_not_components(self, system):
        # The same tasks on the same nodes without their replicas install
        # the same components: a replica is a row of its node's host.
        workload = make_two_node_workload()
        unreplicated = dataclasses.replace(workload, tasks=tuple(
            dataclasses.replace(task, subtasks=tuple(
                dataclasses.replace(s, replicas=()) for s in task.subtasks
            ))
            for task in workload.tasks
        ))
        alone = MiddlewareSystem(unreplicated, system.combo)
        assert len(alone.env.subtask_instances) == 3
        assert len(system.env.subtask_instances) == 6
        assert sorted(installed_components(alone)) == sorted(
            installed_components(system)
        )

def configured_scenario(combo, **fields):
    """The scenario the engine emits for the two-node workload."""
    engine = ConfigurationEngine()
    result = engine.configure(make_two_node_workload(), combo=combo)
    return engine.scenario(result, **fields)


class TestConfiguredScenarioDeploys:
    @_COMBOS
    def test_configured_scenario_deploys_and_runs(self, combo):
        scenario = configured_scenario(
            combo, seed=3, duration=3.0, delay_model=ConstantDelay(0.001)
        )
        reloaded = Scenario.from_json_str(scenario.to_json_str())
        assert reloaded == scenario
        session = Session(reloaded)
        system = session.deploy()
        assert system.combo == combo
        assert system.workload == make_two_node_workload()
        assert session.run().arrived_jobs > 0

    @_COMBOS
    def test_configured_scenario_equals_direct_build(self, combo):
        deployed = Session(
            configured_scenario(combo, seed=9, duration=10.0)
        ).run()
        direct = MiddlewareSystem(make_two_node_workload(), combo, seed=9).run(
            duration=10.0
        )
        assert deployed.accepted_utilization_ratio == direct.accepted_utilization_ratio
        assert deployed.events_executed == direct.events_executed
        assert deployed.arrived_jobs == direct.metrics.arrived_jobs > 0

    def test_special_characters_in_names_round_trip(self):
        nodes = ("line <A> & \"B\"", "lïne\\C")
        workload = Workload(
            tasks=(
                make_task(
                    "belt & <jam>", TaskKind.PERIODIC, deadline=1.0,
                    execs=(0.05, 0.05), homes=nodes, replicas=[nodes[1:], ()],
                ),
                make_task(
                    "\"stop\"", TaskKind.APERIODIC, deadline=0.5,
                    execs=(0.02,), homes=nodes[1:],
                ),
            ),
            app_nodes=nodes,
            manager_node="mgr </manager>",
        )
        scenario = Scenario(
            workload=WorkloadSource.explicit(workload),
            combo="J_T_T",
            duration=3.0,
            label="weird & <plan>",
            cost_model=CostModel.zero(),
        )
        reloaded = Scenario.from_json_str(scenario.to_json_str())
        assert reloaded == scenario
        assert reloaded.workload.materialize() == workload
        system = Session(reloaded).deploy()
        assert sorted(system.containers) == sorted(nodes + ("mgr </manager>",))
        assert "belt & <jam>.s0@" + nodes[0] in {
            row.name for row in system.env.subtask_instances.values()
        }


class TestConfiguredScenarioBoundary:
    """A one-value mutation of a configured scenario's JSON fails with
    ConfigurationError, parsing or deploying; one that deploys builds the
    workload and combo it reads."""

    @pytest.fixture(scope="class", params=["J_T_T", "T_T_N"])
    def scenario(self, request):
        return configured_scenario(
            StrategyCombo.from_label(request.param), seed=3, duration=3.0
        )

    def test_unmutated_scenario_deploys(self, scenario):
        system = Session(Scenario.from_json(scenario.to_json())).deploy()
        assert system.combo.label == scenario.combo
        assert system.workload == make_two_node_workload()

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_scenario_deploys_as_read_or_fails(self, scenario, data):
        mutated = scenario.to_json()
        path, dropped, new = mutate(
            mutated, data, numbers=(math.inf, -math.inf, math.nan)
        )
        try:
            parsed = Scenario.from_json(mutated)
            system = Session(parsed).deploy()
        except ConfigurationError:
            return
        assert may_parse(scenario, path, dropped, new), (path, dropped, new)
        assert system.combo == parsed.strategy_combo
        assert system.workload == parsed.workload.materialize()
