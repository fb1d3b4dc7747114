"""Deploying a deployment plan: checked at the boundary, built by the one
assembler (:class:`~repro.core.middleware.MiddlewareSystem`)."""

import copy
import json
import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccm.ports import Receptacle
from repro.config.characteristics import ApplicationCharacteristics
from repro.config.dance import deploy_plan
from repro.config.engine import ConfigurationEngine
from repro.config.plan import (
    IMPL_AC,
    IMPL_FI_SUBTASK,
    IMPL_IR,
    IMPL_LAST_SUBTASK,
    IMPL_LB,
    IMPL_TE,
    build_deployment_plan,
)
from repro.config.workload_spec import parse_workload_text
from repro.config.xml_io import parse_xml, to_xml
from repro.core.admission_controller import AdmissionControllerComponent
from repro.core.cost_model import CostModel
from repro.core.idle_resetter import IdleResetterComponent
from repro.core.load_balancer import LoadBalancerComponent
from repro.core.middleware import MiddlewareSystem
from repro.core.strategies import StrategyCombo, valid_combinations
from repro.core.subtask import FISubtaskComponent, LastSubtaskComponent
from repro.core.task_effector import TaskEffectorComponent
from repro.errors import ConfigurationError, WorkloadSpecError
from repro.net.latency import ConstantDelay
from repro.workloads.generator import RandomWorkloadParams, generate_random_workload

from tests.jsonutil import WRONG_VALUES, json_kind, json_paths
from tests.taskutil import make_two_node_workload


def deploy(label="J_T_T", **kwargs):
    workload = make_two_node_workload()
    plan = build_deployment_plan(workload, StrategyCombo.from_label(label))
    kwargs.setdefault("cost_model", CostModel.zero())
    kwargs.setdefault("delay_model", ConstantDelay(0.001))
    return deploy_plan(plan, **kwargs)


class TestDeploymentEngine:
    def test_deploy_produces_runnable_system(self):
        system = deploy("J_T_T", seed=3)
        results = system.run(duration=5.0)
        assert results.metrics.arrived_jobs > 0
        assert results.deadline_misses == 0

    def test_deploy_from_xml_string(self):
        workload = make_two_node_workload()
        plan = build_deployment_plan(workload, StrategyCombo.from_label("J_J_J"))
        system = deploy_plan(
            to_xml(plan),
            seed=3,
            cost_model=CostModel.zero(),
            delay_model=ConstantDelay(0.001),
        )
        assert system.combo.label == "J_J_J"
        results = system.run(duration=5.0)
        assert results.metrics.arrived_jobs > 0

    @pytest.mark.parametrize("label", ["T_N_N", "J_N_J", "J_J_T", "T_T_T"])
    def test_deployment_equals_programmatic_build(self, label):
        workload = make_two_node_workload()
        plan = build_deployment_plan(workload, StrategyCombo.from_label(label))
        deployed = deploy_plan(plan, seed=9)
        direct = MiddlewareSystem(workload, StrategyCombo.from_label(label), seed=9)
        a = deployed.run(duration=10.0)
        b = direct.run(duration=10.0)
        assert a.accepted_utilization_ratio == b.accepted_utilization_ratio
        assert a.events_executed == b.events_executed

    @pytest.mark.parametrize(
        "combo", valid_combinations(), ids=lambda combo: combo.label
    )
    def test_generated_xml_deploys_and_runs(self, combo):
        xml = to_xml(build_deployment_plan(make_two_node_workload(), combo))
        system = deploy_plan(xml, seed=3, delay_model=ConstantDelay(0.001))
        assert system.combo == combo
        assert system.run(duration=3.0).metrics.arrived_jobs > 0

    def test_components_configured_from_plan_properties(self):
        system = deploy("J_J_T")
        assert system.ac.get_attribute("ac_strategy") == "J"
        assert system.ac.get_attribute("ir_strategy") == "J"
        assert system.ac.get_attribute("lb_strategy") == "T"
        assert system.lb is not None
        te = system.env.task_effectors["app1"]
        assert te.get_attribute("release_mode") == "per_job"

    def test_no_lb_combo_deploys_without_lb(self):
        system = deploy("J_N_N")
        assert system.lb is None


#: The plan's implementation name of each component class the assembler installs.
_IMPLEMENTATIONS = {
    AdmissionControllerComponent: IMPL_AC,
    LoadBalancerComponent: IMPL_LB,
    TaskEffectorComponent: IMPL_TE,
    IdleResetterComponent: IMPL_IR,
    FISubtaskComponent: IMPL_FI_SUBTASK,
    LastSubtaskComponent: IMPL_LAST_SUBTASK,
}


def _typed(mapping):
    return {name: (type(value), value) for name, value in mapping.items()}


class TestPlanDescribesAssembly:
    """``build_deployment_plan(w, c)`` is what ``MiddlewareSystem(w, c)``
    builds: the plan check lets the deployer build from the workload and
    combo alone, so the two must agree component for component."""

    @pytest.fixture(scope="class")
    def workload(self):
        workload = generate_random_workload(
            random.Random(11),
            RandomWorkloadParams(n_periodic=3, n_aperiodic=3, n_processors=3),
        )
        assert workload.replicated()
        return workload

    @pytest.mark.parametrize(
        "combo", valid_combinations(), ids=lambda combo: combo.label
    )
    def test_plan_describes_the_assembled_system(self, workload, combo):
        plan = build_deployment_plan(workload, combo)
        system = MiddlewareSystem(workload, combo)
        installed = {}
        for container in system.containers.values():
            for component in container.components:
                assert component.name not in installed
                installed[component.name] = component
        assert sorted(installed) == sorted(i.instance_id for i in plan.instances)
        assert len(plan.instances) == len(installed)
        for inst in plan.instances:
            component = installed[inst.instance_id]
            assert component.node == inst.node
            assert _IMPLEMENTATIONS[type(component)] == inst.implementation
            # Every attribute is the plan's value, or its declared default
            # where the plan says nothing.
            expected = {
                name: spec.default for name, spec in component.ATTRIBUTES.items()
            }
            expected.update(inst.property_dict())
            configured = {
                name: component.get_attribute(name)
                for name in component.ATTRIBUTES
            }
            assert _typed(configured) == _typed(expected), inst.instance_id
        wired = {
            (component.name, port.name, port._facet.owner.name, port._facet.name)
            for component in installed.values()
            for port in vars(component).values()
            if isinstance(port, Receptacle) and port.connected
        }
        facets = {
            (c.source_instance, c.source_port, c.target_instance, c.target_port)
            for c in plan.connections
            if c.kind == "facet"
        }
        assert wired == facets
        subtasks = [
            i for i in plan.instances
            if i.implementation in (IMPL_FI_SUBTASK, IMPL_LAST_SUBTASK)
        ]
        assert len(facets) == len(subtasks) + (2 if system.lb else 0)


# ----------------------------------------------------------------------
# The plan boundary: malformed input fails only with ConfigurationError
# ----------------------------------------------------------------------
#: Replacement attribute values and element texts.
_TEXTS = ("", "x", "0", "-1", "2.5", "1e999", "nan", "true", "J", "T", "N",
          "J_T_T", "app1", "app2", "app9", "task_manager", "Central-AC",
          "Central-LB", "facet", "event", "tk_long", "tk_double", "tk_string",
          "tk_boolean", "repro.IdleResetter", "{}", "[1]")


def _canonical(plan):
    """A plan modulo label, element order and JSON formatting."""
    return (
        plan.manager_node,
        sorted(plan.app_nodes),
        sorted(
            (i.instance_id, i.node, i.implementation,
             sorted((k, type(v).__name__, repr(v)) for k, v in i.properties))
            for i in plan.instances
        ),
        sorted(
            (c.name, c.kind, c.source_instance, c.source_port,
             c.target_instance, c.target_port)
            for c in plan.connections
        ),
    )


def _mutate_xml(xml, data):
    """Drop or replace one element, attribute, text or embedded-JSON value."""
    root = ET.fromstring(xml)
    elements = list(root.iter())
    workload_el = root.find("workload")
    doc = json.loads(workload_el.text)
    sites = (
        [("element", parent, child) for parent in elements for child in parent]
        + [("attribute", el, name) for el in elements for name in el.attrib]
        + [("text", el, None) for el in elements if el.text and el.text.strip()]
        + [("json", None, path) for path in json_paths(doc)]
    )
    kind, parent, target = data.draw(st.sampled_from(sites))
    drop = data.draw(st.booleans())
    if kind == "element":
        if drop:
            parent.remove(target)
        else:
            other = data.draw(st.sampled_from(elements[1:]))
            parent[list(parent).index(target)] = copy.deepcopy(other)
    elif kind == "attribute":
        if drop:
            del parent.attrib[target]
        else:
            parent.set(target, data.draw(st.sampled_from(_TEXTS)))
    elif kind == "text":
        parent.text = None if drop else data.draw(st.sampled_from(_TEXTS))
    else:
        holder = doc
        for key in target[:-1]:
            holder = holder[key]
        key = target[-1]
        if drop and isinstance(holder, dict):
            del holder[key]
        else:
            kind = json_kind(holder[key])
            choices = [v for v in WRONG_VALUES if json_kind(v) != kind]
            if kind == "number":
                choices += [0, -1, 1e308, 10**400]
            holder[key] = data.draw(st.sampled_from(choices))
        workload_el.text = json.dumps(doc)
    return ET.tostring(root, encoding="unicode")


class TestPlanBoundary:
    """A mutated plan deploys as the generated plan for its own workload
    and combo, or fails with ConfigurationError."""

    @pytest.fixture(scope="class", params=["J_T_T", "T_T_N"])
    def xml(self, request):
        combo = StrategyCombo.from_label(request.param)
        return to_xml(build_deployment_plan(make_two_node_workload(), combo))

    def test_unmutated_plan_deploys(self, xml):
        system = deploy_plan(xml)
        assert _canonical(parse_xml(xml)) == _canonical(
            build_deployment_plan(system.workload, system.combo)
        )

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_plan_deploys_as_generated_or_fails(self, xml, data):
        mutated = _mutate_xml(xml, data)
        try:
            system = deploy_plan(mutated)
        except ConfigurationError:
            return
        assert _canonical(parse_xml(mutated)) == _canonical(
            build_deployment_plan(system.workload, system.combo)
        )


_SPEC = """\
processors lineA lineB lineC
manager task_manager
task belt periodic deadline=0.5 period=0.5 phase=0.1
  subtask exec=0.02 on=lineA replicas=lineB
  subtask exec=0.03 on=lineB replicas=lineC,lineA
task jam aperiodic deadline=0.25
  subtask exec=0.01 on=lineA
"""

#: Replacement tokens for the text format.
_TOKENS = _TEXTS + (
    "processors", "manager", "task", "subtask", "periodic", "aperiodic",
    "=", "deadline=", "deadline=x", "deadline=-1", "deadline=0.01",
    "deadline=nan", "period=0", "period=inf", "phase=-1", "exec=0",
    "exec=9", "exec=1e999", "on=", "on=lineZ", "replicas=lineA",
    "replicas=lineA,lineA", "belt", "#",
)


class TestWorkloadTextBoundary:
    """A one-token mutation of a text workload spec parses or fails with
    WorkloadSpecError."""

    def test_unmutated_spec_parses(self):
        assert len(parse_workload_text(_SPEC).tasks) == 2

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_spec_fails_only_with_workload_spec_error(self, data):
        lines = [line.split() for line in _SPEC.splitlines()]
        sites = [(row, col) for row, tokens in enumerate(lines)
                 for col in range(len(tokens))]
        row, col = data.draw(st.sampled_from(sites))
        if data.draw(st.booleans()):
            del lines[row][col]
        else:
            lines[row][col] = data.draw(st.sampled_from(_TOKENS))
        try:
            parse_workload_text("\n".join(" ".join(t) for t in lines))
        except WorkloadSpecError:
            pass


class TestConfigurationEngineEndToEnd:
    def test_characteristics_to_running_system(self):
        engine = ConfigurationEngine()
        chars = ApplicationCharacteristics(
            job_skipping=True,
            replicated_components=True,
            state_persistence=False,
        )
        result = engine.configure(make_two_node_workload(), chars)
        assert result.combo.label == "J_T_J"
        system = engine.deploy(result, seed=1, cost_model=CostModel.zero())
        run = system.run(duration=5.0)
        assert run.metrics.arrived_jobs > 0

    def test_default_configuration_is_t_t_t(self):
        engine = ConfigurationEngine()
        result = engine.configure(make_two_node_workload())
        assert result.combo.label == "T_T_T"
        assert any("default" in n for n in result.notes)

    def test_explicit_combo_wins(self):
        engine = ConfigurationEngine()
        result = engine.configure(
            make_two_node_workload(),
            combo=StrategyCombo.from_label("J_J_N"),
        )
        assert result.combo.label == "J_J_N"

    def test_unreplicated_workload_warns_about_lb(self):
        from repro.sched.task import TaskKind
        from repro.workloads.model import Workload
        from tests.taskutil import make_task

        bare = Workload(
            tasks=(make_task("T", TaskKind.APERIODIC, deadline=1.0, execs=(0.1,), homes=("app1",)),),
            app_nodes=("app1",),
        )
        engine = ConfigurationEngine()
        result = engine.configure(bare, combo=StrategyCombo.from_label("J_N_T"))
        assert any("no subtask declares replicas" in n for n in result.notes)

    def test_configure_from_files(self, tmp_path):
        from repro.config.workload_spec import workload_to_json

        path = tmp_path / "workload.json"
        path.write_text(workload_to_json(make_two_node_workload()))
        engine = ConfigurationEngine()
        result = engine.configure_from_files(
            path,
            answers={
                "job_skipping": "Y",
                "replicated_components": "Y",
                "state_persistence": "N",
                "overhead_tolerance": "PJ",
            },
        )
        assert result.combo.label == "J_J_J"
        assert "<DeploymentPlan" in result.xml
