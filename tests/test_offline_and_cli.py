"""Tests for the offline feasibility analysis and the CLI."""

import contextlib
import errno
import os

import pytest

from repro.api import Scenario, WorkloadSource
from repro.cli import main
from repro.sched.offline import analyze_workload, format_report
from repro.sched.task import TaskKind
from repro.workloads.model import Workload

from tests.taskutil import make_task, make_two_node_workload


#: ``repro scenario export`` output, byte for byte.
EXPORTED_BURST_SLOWDOWN = """{
  "aperiodic_interarrival_factor": 2.0,
  "combo": "J_J_T",
  "disturbances": [
    {
      "base_index": 100000,
      "jobs": 10,
      "spacing": 0.001,
      "task_id": null,
      "time": 5.0,
      "type": "burst"
    },
    {
      "factor": 0.5,
      "nodes": [],
      "time": 7.0,
      "type": "slowdown"
    }
  ],
  "drain": true,
  "duration": 60.0,
  "engine": "middleware",
  "label": "x",
  "seed": 0,
  "workload": {
    "kind": "random",
    "seed": 3
  }
}
"""
EXPORTED_DISTRIBUTED = """{
  "aperiodic_interarrival_factor": 2.0,
  "combo": "J_N_N",
  "drain": true,
  "duration": 60.0,
  "engine": "distributed",
  "seed": 0,
  "workload": {
    "kind": "random",
    "seed": 3
  }
}
"""
#: ``repro ablation --sets 3 --duration 40 --seed 11 --json PATH`` output,
#: byte for byte, for any worker count.
ABLATION_JSON = """{
  "aub_mean": 0.4636575351275683,
  "aub_ratios": [
    0.6455917292849239,
    0.5363595773692236,
    0.20902129872855746
  ],
  "ds_mean": 0.8406256849063679,
  "ds_ratios": [
    0.8210901362956371,
    0.7876801717294304,
    0.9131067466940365
  ],
  "experiment": "ablation"
}
"""


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
    @pytest.fixture(params=["explicit", "random"])
    def scenario_file(self, request, tmp_path):
        source = (
            WorkloadSource.explicit(make_two_node_workload())
            if request.param == "explicit"
            else WorkloadSource.random(seed=3)
        )
        path = tmp_path / "scenario.json"
        Scenario(workload=source, combo="J_N_N", duration=5.0).save(path)
        return str(path)

    def test_combos_lists_fifteen(self, capsys):
        assert main(["combos"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 15

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_analyze(self, scenario_file, capsys):
        assert main(["analyze", scenario_file]) == 0
        assert "synthetic utilization" in capsys.readouterr().out

    def test_configure_prints_the_configured_scenario(self, scenario_file, capsys):
        assert main(["configure", scenario_file, "--answers", "Y,Y,N,PJ"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("strategy combination: J_J_J\n")
        configured = Scenario.from_json_str(out[out.index("\n{") + 1:])
        assert configured == Scenario.load(scenario_file).with_changes(combo="J_J_J")

    def test_configure_writes_the_configured_scenario(
        self, scenario_file, tmp_path, capsys
    ):
        out_path = tmp_path / "configured.json"
        assert main(
            ["configure", scenario_file, "--answers", "N,Y,Y,PT",
             "--scenario-out", str(out_path)]
        ) == 0
        assert capsys.readouterr().out.endswith(f"scenario written to {out_path}\n")
        assert Scenario.load(out_path) == Scenario.load(scenario_file).with_changes(
            combo="T_T_T"
        )

    @pytest.mark.parametrize(
        "answers, combo", [("Y,N,N,N", "J_N_N"), ("Y,Y,N,PJ", "J_J_J")]
    )
    def test_configure_keeps_a_distributed_scenario_valid(
        self, tmp_path, capsys, answers, combo
    ):
        path = tmp_path / "scenario.json"
        Scenario(
            workload=WorkloadSource.random(seed=3), combo="J_N_N",
            engine="distributed",
        ).save(path)
        out_path = tmp_path / "configured.json"
        code = main(
            ["configure", str(path), "--answers", answers,
             "--scenario-out", str(out_path)]
        )
        captured = capsys.readouterr()
        if combo == "J_N_N":
            assert code == 0 and Scenario.load(out_path) == Scenario.load(path)
            return
        err = captured.err.splitlines()
        assert code == 1 and len(err) == 1, captured.err
        assert err[0].startswith("repro: error: ") and combo in err[0]
        assert not out_path.exists()

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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_ablation_json_is_the_same_for_any_workers(
        self, tmp_path, capsys, workers
    ):
        path = tmp_path / "ablation.json"
        assert main(
            ["ablation", "--sets", "3", "--duration", "40", "--seed", "11",
             "--workers", workers, "--json", str(path)]
        ) == 0
        assert path.read_text() == ABLATION_JSON
        assert capsys.readouterr().out.endswith(f"JSON written to {path}\n")

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (
                ["--combo", "J_J_T", "--burst", "5:10", "--slowdown", "7:0.5",
                 "--label", "x"],
                EXPORTED_BURST_SLOWDOWN,
            ),
            (["--distributed"], EXPORTED_DISTRIBUTED),
        ],
        ids=["burst-slowdown", "distributed"],
    )
    def test_scenario_export(self, capsys, flags, expected):
        assert main(["scenario", "export", "-", "--random-seed", "3", *flags]) == 0
        assert capsys.readouterr().out == expected

    def test_bad_answers_rejected(self, scenario_file, capsys):
        assert main(["configure", scenario_file, "--answers", "Y,Y"]) != 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("repro: error: --answers")

    def test_unknown_overhead_tolerance_refused(self, scenario_file, capsys):
        assert main(["configure", scenario_file, "--answers", "Y,Y,N,bogus"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "repro: error: answer for 'overhead_tolerance' must be one of "
            "N, PT, PJ; got 'bogus'"
        ]


class TestCliErrors:
    """Bad input is one stderr line and a non-zero exit, not a traceback."""

    @pytest.mark.parametrize(
        "command",
        [["scenario", "run"], ["metrics"], ["analyze"], ["configure"]],
        ids="_".join,
    )
    @pytest.mark.parametrize(
        "content",
        [None, b"{not json", b'{"workload": 3}', b"[" * 100_000, b"\xff\xfe{}"],
        ids=["missing", "malformed", "wrong_type", "too_deep", "not_text"],
    )
    def test_bad_input_file(self, tmp_path, capsys, command, content):
        path = tmp_path / "input.json"
        if content is not None:
            path.write_bytes(content)
        assert main(command + [str(path)]) != 0
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("repro: error: "), captured.err
        assert "Traceback" not in captured.out

    @pytest.mark.parametrize("fails_at", ["write", "flush"])
    def test_closed_pipe_is_not_an_error(self, tmp_path, capsys, fails_at):
        class ClosedPipe:
            """A standard output whose reader went away (``| head``); a
            block-buffered one fails only at the final flush."""

            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                if fails_at == "write":
                    raise BrokenPipeError(errno.EPIPE, "Broken pipe")
                return len(text)

            def flush(self):
                if fails_at == "flush":
                    raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def fileno(self):
                return self.fd

        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            with contextlib.redirect_stdout(ClosedPipe(fd)):
                assert main(["combos"]) == 1
            # The descriptor now points at devnull, so the interpreter's
            # final flush has nowhere to fail.
            redirected = os.fstat(fd)
        finally:
            os.close(fd)
        assert os.path.samestat(redirected, os.stat(os.devnull))
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sensitivity"], "invalid choice: 'sensitivity'"),
            (["disturbance"], "invalid choice: 'disturbance'"),
            (["chaos"], "invalid choice: 'chaos'"),
            (["table1", "--workers", "2"], "unrecognized arguments: --workers 2"),
        ],
        ids=["sensitivity", "disturbance", "chaos", "table1_workers"],
    )
    def test_removed_command_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("repro: error: "), err
        assert message in err[0]

    @pytest.mark.parametrize("command", ["figure5", "figure6", "ablation"])
    def test_zero_sets_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--sets", "0"])
        assert exit_info.value.code != 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--sets" in err[0], err
