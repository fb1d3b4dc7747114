"""Unit tests for characteristics, Table 1 mapping, workload specs,
deployment plans, XML round-trips and plan validation."""

import random

import pytest

from repro.config.characteristics import (
    ApplicationCharacteristics,
    OverheadTolerance,
)
from repro.config.mapping import DEFAULT_COMBO, map_characteristics
from repro.config.plan import (
    ComponentInstance,
    Connection,
    DeploymentPlan,
    IMPL_AC,
    IMPL_LB,
    build_deployment_plan,
)
from repro.config.validation import validate_plan
from repro.config.workload_spec import (
    load_workload,
    parse_workload_json,
    parse_workload_text,
    workload_to_json,
)
from repro.config.xml_io import parse_xml, to_xml
from repro.core.strategies import StrategyCombo
from repro.errors import ConfigurationError, WorkloadSpecError

from tests.taskutil import make_two_node_workload


# ----------------------------------------------------------------------
# Characteristics questionnaire
# ----------------------------------------------------------------------
class TestCharacteristics:
    def test_paper_figure4_answers(self):
        chars = ApplicationCharacteristics.from_answers(
            {
                "job_skipping": "N",
                "replicated_components": "Y",
                "state_persistence": "Y",
                "overhead_tolerance": "PT",
            }
        )
        assert not chars.job_skipping
        assert chars.replicated_components
        assert chars.state_persistence
        assert chars.overhead_tolerance is OverheadTolerance.PER_TASK

    def test_flexible_yes_no_forms(self):
        chars = ApplicationCharacteristics.from_answers(
            {
                "job_skipping": "yes",
                "replicated_components": "1",
                "state_persistence": "FALSE",
            }
        )
        assert chars.job_skipping and chars.replicated_components
        assert not chars.state_persistence

    def test_bad_answer_rejected(self):
        with pytest.raises(ConfigurationError):
            ApplicationCharacteristics.from_answers({"job_skipping": "maybe"})

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            ApplicationCharacteristics.from_answers(
                {
                    "job_skipping": "Y",
                    "replicated_components": "Y",
                    "state_persistence": "N",
                    "overhead_tolerance": "LOTS",
                }
            )

    def test_describe_mentions_criteria(self):
        chars = ApplicationCharacteristics(True, True, False)
        text = chars.describe()
        assert "C1" in text and "C2" in text and "C3" in text


# ----------------------------------------------------------------------
# Table 1 mapping
# ----------------------------------------------------------------------
class TestMapping:
    def test_paper_example_maps_to_all_per_task(self):
        chars = ApplicationCharacteristics(
            job_skipping=False,
            replicated_components=True,
            state_persistence=True,
            overhead_tolerance=OverheadTolerance.PER_TASK,
        )
        combo, notes = map_characteristics(chars)
        assert combo.label == "T_T_T"
        assert notes == []

    def test_c1_drives_ac(self):
        base = dict(
            replicated_components=True,
            state_persistence=True,
            overhead_tolerance=OverheadTolerance.NONE,
        )
        yes, _ = map_characteristics(
            ApplicationCharacteristics(job_skipping=True, **base)
        )
        no, _ = map_characteristics(
            ApplicationCharacteristics(job_skipping=False, **base)
        )
        assert yes.ac.value == "J" and no.ac.value == "T"

    def test_c3_gates_lb(self):
        combo, notes = map_characteristics(
            ApplicationCharacteristics(True, False, False)
        )
        assert combo.lb.value == "N"

    def test_c2_picks_lb_granularity(self):
        stateful, _ = map_characteristics(
            ApplicationCharacteristics(True, True, True)
        )
        stateless, _ = map_characteristics(
            ApplicationCharacteristics(True, True, False)
        )
        assert stateful.lb.value == "T"
        assert stateless.lb.value == "J"

    def test_tolerance_drives_ir(self):
        for tol, expected in (
            (OverheadTolerance.NONE, "N"),
            (OverheadTolerance.PER_TASK, "T"),
            (OverheadTolerance.PER_JOB, "J"),
        ):
            combo, _ = map_characteristics(
                ApplicationCharacteristics(True, True, False, tol)
            )
            assert combo.ir.value == expected

    def test_invalid_request_clamped_with_note(self):
        # No job skipping (AC per task) + per-job resetting requested.
        combo, notes = map_characteristics(
            ApplicationCharacteristics(
                False, True, False, OverheadTolerance.PER_JOB
            )
        )
        assert combo.label == "T_T_J"
        assert combo.is_valid
        assert any("clamped" in note for note in notes)

    def test_mapping_always_valid(self):
        for skipping in (True, False):
            for replicated in (True, False):
                for stateful in (True, False):
                    for tol in OverheadTolerance:
                        combo, _ = map_characteristics(
                            ApplicationCharacteristics(
                                skipping, replicated, stateful, tol
                            )
                        )
                        assert combo.is_valid

    def test_default_combo_is_paper_default(self):
        assert DEFAULT_COMBO.label == "T_T_T"


# ----------------------------------------------------------------------
# Workload specification files
# ----------------------------------------------------------------------
class TestWorkloadSpec:
    def test_json_roundtrip(self):
        wl = make_two_node_workload()
        assert parse_workload_json(workload_to_json(wl)) == wl

    def test_json_rejects_garbage(self):
        with pytest.raises(WorkloadSpecError):
            parse_workload_json("{not json")
        with pytest.raises(WorkloadSpecError):
            parse_workload_json("[]")
        with pytest.raises(WorkloadSpecError):
            parse_workload_json('{"processors": ["a"]}')

    def test_text_format(self):
        wl = parse_workload_text(
            """
            # demo spec
            processors app1 app2
            manager mgr
            task P1 periodic deadline=1.0 period=1.0 phase=0.25
              subtask exec=0.05 on=app1 replicas=app2
              subtask exec=0.05 on=app2
            task A1 aperiodic deadline=0.5
              subtask exec=0.02 on=app2 replicas=app1
            """
        )
        assert wl.manager_node == "mgr"
        assert wl.task("P1").phase == 0.25
        assert wl.task("P1").subtasks[0].replicas == ("app2",)
        assert wl.task("A1").kind.value == "aperiodic"

    def test_text_rejects_subtask_before_task(self):
        with pytest.raises(WorkloadSpecError):
            parse_workload_text("processors a\nsubtask exec=1 on=a")

    def test_text_rejects_unknown_keyword(self):
        with pytest.raises(WorkloadSpecError):
            parse_workload_text("widgets a b c")

    def test_text_rejects_missing_deadline(self):
        with pytest.raises(WorkloadSpecError):
            parse_workload_text(
                "processors a\ntask T periodic period=1.0\n  subtask exec=0.1 on=a"
            )

    def test_text_task_without_subtasks_rejected(self):
        with pytest.raises(WorkloadSpecError):
            parse_workload_text("processors a\ntask T aperiodic deadline=1.0")

    def test_load_dispatches_on_extension(self, tmp_path):
        wl = make_two_node_workload()
        json_path = tmp_path / "w.json"
        json_path.write_text(workload_to_json(wl))
        assert load_workload(json_path) == wl
        text_path = tmp_path / "w.spec"
        text_path.write_text(
            "processors a\ntask T aperiodic deadline=1.0\n  subtask exec=0.1 on=a"
        )
        assert load_workload(text_path).task("T").deadline == 1.0


# ----------------------------------------------------------------------
# Deployment plans + XML
# ----------------------------------------------------------------------
class TestDeploymentPlan:
    def make_plan(self, label="J_T_T"):
        return build_deployment_plan(
            make_two_node_workload(), StrategyCombo.from_label(label)
        )

    def test_ac_always_present_lb_conditional(self):
        with_lb = self.make_plan("J_T_T")
        without_lb = self.make_plan("J_T_N")
        assert len(with_lb.instances_of(IMPL_AC)) == 1
        assert len(with_lb.instances_of(IMPL_LB)) == 1
        assert len(without_lb.instances_of(IMPL_LB)) == 0

    def test_te_and_ir_per_app_node(self):
        plan = self.make_plan()
        for node in ("app1", "app2"):
            names = {i.instance_id for i in plan.instances_on(node)}
            assert f"TE-{node}" in names and f"IR-{node}" in names

    def test_subtask_instances_cover_replicas(self):
        plan = self.make_plan()
        # P1 has 2 subtasks x 2 eligible nodes; A1 has 1 x 2.
        subtask_ids = [
            i.instance_id for i in plan.instances if "." in i.instance_id
        ]
        assert len(subtask_ids) == 6

    def test_combo_extracted_from_plan(self):
        assert self.make_plan("J_T_T").combo().label == "J_T_T"

    def test_priorities_follow_edms(self):
        plan = self.make_plan()
        p1 = plan.instance("P1.s0@app1").property_dict()["priority"]
        a1 = plan.instance("A1.s0@app1").property_dict()["priority"]
        assert a1 < p1  # A1 deadline 0.5 < P1 deadline 1.0

    def test_invalid_combo_rejected_at_build(self):
        from repro.errors import InvalidStrategyCombination

        with pytest.raises(InvalidStrategyCombination):
            self.make_plan("T_J_N")

    def test_xml_roundtrip(self):
        plan = self.make_plan()
        parsed = parse_xml(to_xml(plan))
        assert parsed == plan

    def test_xml_preserves_property_types(self):
        plan = self.make_plan()
        parsed = parse_xml(to_xml(plan))
        props = parsed.instance("P1.s0@app1").property_dict()
        assert isinstance(props["execution_time"], float)
        assert isinstance(props["subtask_index"], int)
        assert isinstance(props["task_id"], str)

    def test_xml_rejects_malformed(self):
        with pytest.raises(ConfigurationError):
            parse_xml("<notxml")
        with pytest.raises(ConfigurationError):
            parse_xml("<Wrong/>")

    def test_validate_accepts_generated_plan(self):
        plan = self.make_plan()
        workload = validate_plan(plan)
        assert workload == make_two_node_workload()

    def test_validate_rejects_tampered_ir_strategy(self):
        plan = self.make_plan("J_T_T")
        tampered_instances = tuple(
            inst
            if inst.instance_id != "IR-app1"
            else ComponentInstance.make(
                inst.instance_id,
                inst.implementation,
                inst.node,
                {**inst.property_dict(), "strategy": "J"},
            )
            for inst in plan.instances
        )
        tampered = DeploymentPlan(
            label=plan.label,
            manager_node=plan.manager_node,
            app_nodes=plan.app_nodes,
            instances=tampered_instances,
            connections=plan.connections,
            workload_json=plan.workload_json,
        )
        with pytest.raises(ConfigurationError, match="'IR-app1'.*'strategy'"):
            validate_plan(tampered)

    def test_validate_rejects_missing_lb_connection(self):
        plan = self.make_plan("J_T_T")
        pruned = DeploymentPlan(
            label=plan.label,
            manager_node=plan.manager_node,
            app_nodes=plan.app_nodes,
            instances=plan.instances,
            connections=tuple(
                c for c in plan.connections if c.name != "ac_locator"
            ),
            workload_json=plan.workload_json,
        )
        with pytest.raises(ConfigurationError, match="lacks connection 'ac_locator'"):
            validate_plan(pruned)

    @pytest.mark.parametrize(
        "tamper, match",
        [
            # An int where the generated plan writes a float (1 == 1.0).
            (lambda i: i if i.instance_id != "A1.s0@app2" else
             ComponentInstance.make(i.instance_id, i.implementation, i.node,
                                    {**i.property_dict(), "priority": 1}),
             "'A1.s0@app2'.*'priority' 1, generated 0.5"),
            (lambda i: i if i.instance_id != "TE-app2" else
             ComponentInstance.make(i.instance_id, i.implementation, "app1",
                                    i.property_dict()),
             "'TE-app2'.*node 'app1', generated 'app2'"),
            (lambda i: i if i.instance_id != "P1.s1@app1" else
             ComponentInstance.make("P1.s1@app3", i.implementation, i.node,
                                    i.property_dict()),
             "lacks instance 'P1.s1@app1'"),
        ],
        ids=["retyped_property", "moved_instance", "renamed_instance"],
    )
    def test_validate_names_first_difference(self, tamper, match):
        plan = self.make_plan("J_T_T")
        tampered = DeploymentPlan(
            label="hand-edited",
            manager_node=plan.manager_node,
            app_nodes=plan.app_nodes,
            instances=tuple(tamper(inst) for inst in plan.instances),
            connections=plan.connections,
            workload_json=plan.workload_json,
        )
        with pytest.raises(ConfigurationError, match=match):
            validate_plan(tampered)

    def test_validate_ignores_order_label_and_json_format(self):
        plan = self.make_plan("T_T_T")
        shuffled = DeploymentPlan(
            label="hand-written",
            manager_node=plan.manager_node,
            app_nodes=tuple(reversed(plan.app_nodes)),
            instances=tuple(reversed(plan.instances)),
            connections=tuple(reversed(plan.connections)),
            workload_json=workload_to_json(make_two_node_workload(), indent=4),
        )
        assert validate_plan(shuffled) == make_two_node_workload()
        extra = DeploymentPlan(
            label=plan.label,
            manager_node=plan.manager_node,
            app_nodes=plan.app_nodes,
            instances=plan.instances + (plan.instances[-1],),
            connections=plan.connections,
            workload_json=plan.workload_json,
        )
        with pytest.raises(ConfigurationError, match="repeats instance"):
            validate_plan(extra)

    def test_validate_rejects_invalid_combo_in_plan(self):
        plan = self.make_plan("J_J_N")
        bad_instances = tuple(
            inst
            if inst.implementation != IMPL_AC
            else ComponentInstance.make(
                inst.instance_id,
                inst.implementation,
                inst.node,
                {**inst.property_dict(), "ac_strategy": "T"},
            )
            for inst in plan.instances
        )
        bad = DeploymentPlan(
            label=plan.label,
            manager_node=plan.manager_node,
            app_nodes=plan.app_nodes,
            instances=bad_instances,
            connections=plan.connections,
            workload_json=plan.workload_json,
        )
        from repro.errors import InvalidStrategyCombination

        with pytest.raises(InvalidStrategyCombination):
            validate_plan(bad)

    def test_connection_kind_validated(self):
        with pytest.raises(ConfigurationError):
            Connection("c", "telepathy", "a", "p", "b", "q")
