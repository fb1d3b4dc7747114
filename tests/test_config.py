"""Unit tests for characteristics, the Table 1 mapping and the
configuration engine."""

import pytest

from repro.api import Session
from repro.config.characteristics import (
    ApplicationCharacteristics,
    OverheadTolerance,
)
from repro.config.engine import ConfigurationEngine
from repro.config.mapping import DEFAULT_COMBO, map_characteristics
from repro.core.cost_model import CostModel
from repro.core.strategies import StrategyCombo
from repro.errors import ConfigurationError
from repro.sched.task import TaskKind
from repro.workloads.model import Workload

from tests.taskutil import make_task, make_two_node_workload


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
# Configuration engine
# ----------------------------------------------------------------------
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
        scenario = engine.scenario(
            result, seed=1, duration=5.0, cost_model=CostModel.zero()
        )
        assert scenario.combo == "J_T_J"
        assert Session(scenario).run().arrived_jobs > 0

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
        bare = Workload(
            tasks=(make_task("T", TaskKind.APERIODIC, deadline=1.0, execs=(0.1,), homes=("app1",)),),
            app_nodes=("app1",),
        )
        engine = ConfigurationEngine()
        result = engine.configure(bare, combo=StrategyCombo.from_label("J_N_T"))
        assert any("no subtask declares replicas" in n for n in result.notes)
