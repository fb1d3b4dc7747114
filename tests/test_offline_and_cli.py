"""Tests for the offline feasibility analysis and the CLI."""

import pytest

from repro.cli import main
from repro.config.workload_spec import workload_to_json
from repro.sched.offline import analyze_workload, format_report
from repro.sched.task import TaskKind
from repro.workloads.model import Workload

from tests.taskutil import make_task, make_two_node_workload


# ----------------------------------------------------------------------
# Offline analysis
# ----------------------------------------------------------------------
class TestOfflineAnalysis:
    def test_light_workload_schedulable(self):
        report = analyze_workload(make_two_node_workload())
        assert report.all_schedulable_at_home
        assert report.all_schedulable_balanced
        assert report.unschedulable_tasks() == []

    def test_overloaded_home_detected(self):
        heavy_a = make_task(
            "HA", TaskKind.APERIODIC, deadline=1.0, execs=(0.4,),
            homes=("app1",), replicas=[("app2",)],
        )
        heavy_b = make_task(
            "HB", TaskKind.APERIODIC, deadline=1.0, execs=(0.4,),
            homes=("app1",), replicas=[("app2",)],
        )
        workload = Workload(tasks=(heavy_a, heavy_b), app_nodes=("app1", "app2"))
        report = analyze_workload(workload)
        # Both on app1: U=0.8, f(0.8) = 2.4 > 1 -> unschedulable at home.
        assert set(report.unschedulable_tasks()) == {"HA", "HB"}
        # Greedy placement splits them: schedulable balanced.
        assert report.all_schedulable_balanced
        assert report.load_balancing_helps()

    def test_utilization_accounting(self):
        report = analyze_workload(make_two_node_workload())
        assert report.utilization["app1"] == pytest.approx(0.09)
        assert report.utilization["app2"] == pytest.approx(0.05)

    def test_saturated_processor_gives_infinite_sum(self):
        a = make_task(
            "A", TaskKind.APERIODIC, deadline=1.0, execs=(0.6,), homes=("app1",)
        )
        b = make_task(
            "B", TaskKind.APERIODIC, deadline=1.0, execs=(0.6,), homes=("app1",)
        )
        workload = Workload(tasks=(a, b), app_nodes=("app1",))
        report = analyze_workload(workload)
        assert all(r.condition_sum == float("inf") for r in report.home_results)

    def test_format_report_marks_over(self):
        heavy = make_task(
            "H", TaskKind.APERIODIC, deadline=1.0, execs=(0.9,), homes=("app1",)
        )
        workload = Workload(tasks=(heavy,), app_nodes=("app1",))
        text = format_report(analyze_workload(workload))
        assert "OVER" in text

    def test_priority_levels_in_report(self):
        report = analyze_workload(make_two_node_workload())
        by_id = {r.task_id: r for r in report.home_results}
        # A1 deadline 0.5 < P1 deadline 1.0 -> higher priority level 0.
        assert by_id["A1"].priority_level == 0
        assert by_id["P1"].priority_level == 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def spec_file(self, tmp_path):
        path = tmp_path / "workload.json"
        path.write_text(workload_to_json(make_two_node_workload()))
        return str(path)

    def test_combos_lists_fifteen(self, capsys):
        assert main(["combos"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 15

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_analyze(self, tmp_path, capsys):
        assert main(["analyze", self.spec_file(tmp_path)]) == 0
        assert "synthetic utilization" in capsys.readouterr().out

    def test_configure_with_answers(self, tmp_path, capsys):
        assert main(
            ["configure", self.spec_file(tmp_path), "--answers", "Y,Y,N,PJ"]
        ) == 0
        out = capsys.readouterr().out
        assert "strategy combination: J_J_J" in out
        assert "<DeploymentPlan" in out

    def test_configure_writes_xml(self, tmp_path, capsys):
        xml_path = tmp_path / "plan.xml"
        assert main(
            [
                "configure",
                self.spec_file(tmp_path),
                "--answers",
                "N,Y,Y,PT",
                "--xml-out",
                str(xml_path),
            ]
        ) == 0
        assert xml_path.read_text().startswith("<DeploymentPlan")

    def test_run(self, tmp_path, capsys):
        assert main(
            [
                "run",
                self.spec_file(tmp_path),
                "--combo",
                "J_J_T",
                "--duration",
                "5",
            ]
        ) == 0
        assert "accepted_utilization_ratio" in capsys.readouterr().out

    def test_figure8_command(self, capsys):
        assert main(["figure8", "--duration", "10"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_figure5_command_small(self, capsys):
        assert main(
            ["figure5", "--sets", "1", "--duration", "10"]
        ) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_ablation_command_small(self, capsys):
        assert main(["ablation", "--sets", "1", "--duration", "20"]) == 0
        assert "Deferrable Server" in capsys.readouterr().out

    def test_bad_answers_rejected(self, tmp_path, capsys):
        assert main(
            ["configure", self.spec_file(tmp_path), "--answers", "Y,Y"]
        ) != 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("repro: error: --answers")


class TestCliErrors:
    """Bad input is one stderr line and a non-zero exit, not a traceback."""

    @pytest.mark.parametrize(
        "command",
        [["scenario", "run"], ["metrics"], ["analyze"], ["configure"], ["run"]],
        ids="_".join,
    )
    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "malformed"])
    def test_bad_input_file(self, tmp_path, capsys, command, content):
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content)
        assert main(command + [str(path)]) != 0
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("repro: error: "), captured.err
        assert "Traceback" not in captured.out

    @pytest.mark.parametrize("command", ["figure5", "figure6", "ablation"])
    def test_zero_sets_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--sets", "0"])
        assert exit_info.value.code != 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--sets" in err[0], err
