"""Every ``ConfigurationError`` branch in ``repro.api.scenario``.

One test per raise site, each asserting on the message so a future
reword (or a branch silently becoming unreachable) fails loudly.  The
sections mirror the module: the JSON codec on its value types,
:class:`WorkloadSource`, disturbances, :class:`Scenario` validation,
and JSON loading.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.api import (
    Burst,
    DelaySpike,
    MessageLoss,
    NodeCrash,
    Partition,
    Scenario,
    Slowdown,
    WorkloadSource,
)
from repro.api.scenario import MAX_WORKLOAD_INDEX, Disturbance
from repro.cli import main
from repro.core.cost_model import CostModel
from repro.errors import ConfigurationError
from repro.json_checks import decode, encode
from repro.net.latency import DelayModel
from repro.sim.rng import RngRegistry
from repro.workloads.generator import (
    RandomWorkloadParams,
    generate_random_workload,
)
from repro.workloads.imbalanced import ImbalancedWorkloadParams
from repro.workloads.model import Workload


def _workload(seed=2008):
    return generate_random_workload(RngRegistry(seed).stream("wl"))


def _scenario(**overrides):
    kwargs = dict(workload=WorkloadSource.random(seed=1), duration=5.0)
    kwargs.update(overrides)
    return Scenario(**kwargs)


# ----------------------------------------------------------------------
# The JSON codec on the embedded value types
# ----------------------------------------------------------------------
class TestCodecErrors:
    def test_workload_unknown_field(self):
        with pytest.raises(
            ConfigurationError, match=r"\$\.bogus: unknown key of Workload"
        ):
            decode(Workload, {"app_nodes": ["n1"], "bogus": 1})

    def test_task_unknown_field(self):
        data = {
            "app_nodes": ["n1"],
            "tasks": [{"task_id": "t", "wcet": 1}],
        }
        with pytest.raises(
            ConfigurationError,
            match=r"\$\.tasks\[0\]\.wcet: unknown key of TaskSpec",
        ):
            decode(Workload, data)

    def test_subtask_unknown_field(self):
        data = {
            "app_nodes": ["n1"],
            "tasks": [
                {
                    "task_id": "t",
                    "kind": "periodic",
                    "deadline": 1.0,
                    "subtasks": [{"index": 0, "nope": 1}],
                }
            ],
        }
        with pytest.raises(
            ConfigurationError,
            match=r"\$\.tasks\[0\]\.subtasks\[0\]\.nope: unknown key of SubtaskSpec",
        ):
            decode(Workload, data)

    def test_cost_model_unknown_field(self):
        with pytest.raises(
            ConfigurationError, match=r"\$\.warp: unknown key of CostModel"
        ):
            decode(CostModel, {"warp": 9})

    def test_delay_model_without_json_form(self):
        class Opaque(DelayModel):  # pragma: no cover - sample() never runs
            def sample(self, rng):
                return 0.0

        with pytest.raises(
            ConfigurationError, match="Opaque has no JSON representation"
        ):
            encode(Opaque(), DelayModel)
        with pytest.raises(
            ConfigurationError, match="Opaque has no JSON representation"
        ):
            _scenario(delay_model=Opaque()).to_json()

    def test_delay_model_unknown_type(self):
        with pytest.raises(
            ConfigurationError, match=r"\$\.type: unknown tag 'gamma'"
        ):
            decode(DelayModel, {"type": "gamma"})

    def test_delay_model_unknown_field(self):
        with pytest.raises(
            ConfigurationError, match=r"\$\.skew: unknown key of ConstantDelay"
        ):
            decode(DelayModel, {"type": "constant", "delay": 1.0, "skew": 2})

    def test_delay_model_incomplete(self):
        with pytest.raises(
            ConfigurationError, match=r"\$\.high: missing key of UniformDelay"
        ):
            decode(DelayModel, {"type": "uniform", "low": 0.1})


# ----------------------------------------------------------------------
# WorkloadSource validation
# ----------------------------------------------------------------------
class TestWorkloadSourceErrors:
    def test_unknown_kind(self):
        with pytest.raises(
            ConfigurationError, match="unknown workload source kind 'psychic'"
        ):
            WorkloadSource(kind="psychic")

    def test_explicit_needs_workload(self):
        with pytest.raises(
            ConfigurationError, match="explicit workload source needs a workload"
        ):
            WorkloadSource(kind="explicit")

    def test_explicit_rejects_generator_fields(self):
        with pytest.raises(ConfigurationError, match="conflicting fields"):
            WorkloadSource(kind="explicit", workload=_workload(), seed=3)

    def test_generated_rejects_embedded_workload(self):
        with pytest.raises(
            ConfigurationError, match="must not embed an explicit workload"
        ):
            WorkloadSource(kind="random", seed=1, workload=_workload())

    def test_generated_needs_seed(self):
        with pytest.raises(
            ConfigurationError, match="random workload source needs a generator seed"
        ):
            WorkloadSource(kind="random")

    def test_negative_index(self):
        with pytest.raises(
            ConfigurationError, match="workload index must be >= 0"
        ):
            WorkloadSource(kind="random", seed=1, index=-1)

    def test_index_past_the_maximum(self):
        # Only constructed, never drawn: unbounded, this source would
        # draw 10 million task sets before its own.
        WorkloadSource(kind="random", seed=1, index=MAX_WORKLOAD_INDEX)
        with pytest.raises(
            ConfigurationError,
            match=rf"workload index must be <= {MAX_WORKLOAD_INDEX}, got 10000000",
        ):
            WorkloadSource(kind="random", seed=1, index=10_000_000)
        with pytest.raises(ConfigurationError, match="got 100$"):
            WorkloadSource(kind="imbalanced", seed=1, index=MAX_WORKLOAD_INDEX + 1)

    def test_saved_index_past_the_maximum(self, tmp_path, capsys):
        saved = _scenario().to_json()
        saved["workload"]["index"] = 10_000_000
        with pytest.raises(
            ConfigurationError, match=r"\$\.workload: workload index must be <= 99"
        ):
            Scenario.from_json(saved)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(saved))
        assert main(["scenario", "run", str(path)]) != 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("repro: error: "), err
        assert "workload index must be <=" in err[0]

    def test_params_type_mismatch(self):
        with pytest.raises(
            ConfigurationError,
            match="imbalanced workload source needs ImbalancedWorkloadParams",
        ):
            WorkloadSource(
                kind="imbalanced", seed=1, params=RandomWorkloadParams()
            )
        with pytest.raises(
            ConfigurationError,
            match="random workload source needs RandomWorkloadParams",
        ):
            WorkloadSource(
                kind="random", seed=1, params=ImbalancedWorkloadParams()
            )

    def test_from_json_unknown_field(self):
        with pytest.raises(
            ConfigurationError, match=r"\$\.extra: unknown key of WorkloadSource"
        ):
            decode(WorkloadSource, {"kind": "random", "seed": 1, "extra": 2})

    def test_from_json_explicit_without_workload(self):
        with pytest.raises(
            ConfigurationError,
            match=r"\$: explicit workload source needs a workload",
        ):
            decode(WorkloadSource, {"kind": "explicit"})

    def test_from_json_unknown_kind(self):
        with pytest.raises(
            ConfigurationError,
            match=r"\$: unknown workload source kind 'psychic'",
        ):
            decode(WorkloadSource, {"kind": "psychic"})

    def test_from_json_unknown_params_field(self):
        with pytest.raises(
            ConfigurationError,
            match=r"\$\.params\.n_moons: unknown key of RandomWorkloadParams",
        ):
            decode(
                WorkloadSource,
                {"kind": "random", "seed": 1, "params": {"n_moons": 4}},
            )

    def test_from_json_params_follow_the_kind(self):
        data = {"kind": "imbalanced", "seed": 1, "params": {"n_periodic": 2}}
        source = decode(WorkloadSource, data)
        assert source.params == ImbalancedWorkloadParams(n_periodic=2)
        data["kind"] = "psychic"
        with pytest.raises(
            ConfigurationError, match=r"\$\.params: no params for kind 'psychic'"
        ):
            decode(WorkloadSource, data)


# ----------------------------------------------------------------------
# Disturbances
# ----------------------------------------------------------------------
class TestDisturbanceErrors:
    def test_burst_negative_time(self):
        with pytest.raises(ConfigurationError, match="burst time must be >= 0"):
            Burst(time=-1.0, jobs=1)

    def test_burst_negative_jobs(self):
        with pytest.raises(
            ConfigurationError, match="burst job count must be >= 0"
        ):
            Burst(time=1.0, jobs=-1)

    def test_burst_nonpositive_spacing(self):
        with pytest.raises(ConfigurationError, match="burst spacing must be > 0"):
            Burst(time=1.0, jobs=1, spacing=0.0)

    def test_slowdown_negative_time(self):
        with pytest.raises(
            ConfigurationError, match="slowdown time must be >= 0"
        ):
            Slowdown(time=-1.0, factor=0.5)

    def test_slowdown_nonpositive_factor(self):
        with pytest.raises(
            ConfigurationError, match="slowdown factor must be > 0"
        ):
            Slowdown(time=1.0, factor=0.0)

    def test_from_json_unknown_burst_field(self):
        with pytest.raises(
            ConfigurationError, match=r"\$\.volume: unknown key of Burst"
        ):
            decode(
                Disturbance,
                {"type": "burst", "time": 1.0, "jobs": 2, "volume": 11},
            )

    def test_from_json_unknown_slowdown_field(self):
        with pytest.raises(
            ConfigurationError, match=r"\$\.why: unknown key of Slowdown"
        ):
            decode(
                Disturbance,
                {"type": "slowdown", "time": 1.0, "factor": 0.5, "why": "x"},
            )

    def test_from_json_unknown_type(self):
        with pytest.raises(
            ConfigurationError,
            match=(
                r"\$\.type: unknown tag 'quake'; expected one of 'burst', "
                "'slowdown', 'node_crash', 'partition', 'delay_spike', "
                "'message_loss'"
            ),
        ):
            decode(Disturbance, {"type": "quake"})


# ----------------------------------------------------------------------
# Chaos (fault) disturbances
# ----------------------------------------------------------------------
class TestFaultDisturbanceErrors:
    def test_node_crash_needs_node(self):
        with pytest.raises(
            ConfigurationError, match="node crash needs a node name"
        ):
            NodeCrash(node="", time=1.0)

    def test_node_crash_negative_time(self):
        with pytest.raises(
            ConfigurationError, match="node crash time must be >= 0"
        ):
            NodeCrash(node="n1", time=-1.0)

    def test_node_crash_recovery_before_crash(self):
        with pytest.raises(
            ConfigurationError,
            match="node crash recovery must be after the crash time",
        ):
            NodeCrash(node="n1", time=2.0, recovery=2.0)

    def test_partition_negative_time(self):
        with pytest.raises(
            ConfigurationError, match="partition time must be >= 0"
        ):
            Partition(time=-1.0, heal=2.0, group_a=("a",), group_b=("b",))

    def test_partition_heal_before_start(self):
        with pytest.raises(
            ConfigurationError,
            match="partition heal must be after the partition time",
        ):
            Partition(time=2.0, heal=2.0, group_a=("a",), group_b=("b",))

    def test_partition_needs_both_groups(self):
        with pytest.raises(
            ConfigurationError, match="partition needs two non-empty node groups"
        ):
            Partition(time=1.0, heal=2.0, group_a=("a",), group_b=())

    def test_partition_groups_must_be_disjoint(self):
        with pytest.raises(
            ConfigurationError,
            match="partition groups must be disjoint; both sides contain \\['b'\\]",
        ):
            Partition(time=1.0, heal=2.0, group_a=("a", "b"), group_b=("b", "c"))

    def test_delay_spike_negative_time(self):
        with pytest.raises(
            ConfigurationError, match="delay spike time must be >= 0"
        ):
            DelaySpike(time=-1.0, until=2.0, factor=3.0)

    def test_delay_spike_until_before_start(self):
        with pytest.raises(
            ConfigurationError,
            match="delay spike until must be after its start time",
        ):
            DelaySpike(time=2.0, until=2.0, factor=3.0)

    def test_delay_spike_nonpositive_factor(self):
        with pytest.raises(
            ConfigurationError, match="delay spike factor must be > 0"
        ):
            DelaySpike(time=1.0, until=2.0, factor=0.0)

    def test_message_loss_probability_out_of_range(self):
        with pytest.raises(
            ConfigurationError,
            match="message loss probability must be in \\(0, 1\\], got 0.0",
        ):
            MessageLoss(probability=0.0)
        with pytest.raises(
            ConfigurationError,
            match="message loss probability must be in \\(0, 1\\], got 1.5",
        ):
            MessageLoss(probability=1.5)

    def test_message_loss_negative_time(self):
        with pytest.raises(
            ConfigurationError, match="message loss time must be >= 0"
        ):
            MessageLoss(probability=0.5, time=-1.0)

    def test_message_loss_until_before_start(self):
        with pytest.raises(
            ConfigurationError,
            match="message loss until must be after its start time",
        ):
            MessageLoss(probability=0.5, time=2.0, until=2.0)

    def test_message_loss_needs_stream(self):
        with pytest.raises(
            ConfigurationError, match="message loss needs an RNG stream name"
        ):
            MessageLoss(probability=0.5, stream="")

    def test_from_json_unknown_node_crash_field(self):
        with pytest.raises(
            ConfigurationError, match=r"\$\.blast: unknown key of NodeCrash"
        ):
            decode(
                Disturbance,
                {"type": "node_crash", "node": "n1", "time": 1.0, "blast": 2},
            )

    def test_from_json_unknown_partition_field(self):
        with pytest.raises(
            ConfigurationError, match=r"\$\.depth: unknown key of Partition"
        ):
            decode(
                Disturbance,
                {
                    "type": "partition",
                    "time": 1.0,
                    "heal": 2.0,
                    "group_a": ["a"],
                    "group_b": ["b"],
                    "depth": 3,
                }
            )

    def test_from_json_unknown_delay_spike_field(self):
        with pytest.raises(
            ConfigurationError, match=r"\$\.shape: unknown key of DelaySpike"
        ):
            decode(
                Disturbance,
                {
                    "type": "delay_spike",
                    "time": 1.0,
                    "until": 2.0,
                    "factor": 3.0,
                    "shape": "saw",
                }
            )

    def test_from_json_unknown_message_loss_field(self):
        with pytest.raises(
            ConfigurationError,
            match=r"\$\.burstiness: unknown key of MessageLoss",
        ):
            decode(
                Disturbance,
                {"type": "message_loss", "probability": 0.5, "burstiness": 2},
            )

    def test_middleware_rejects_fault_disturbances(self):
        for disturbance in (
            NodeCrash(node="n1", time=1.0),
            Partition(time=1.0, heal=2.0, group_a=("n1",), group_b=("n2",)),
            MessageLoss(probability=0.5),
        ):
            with pytest.raises(
                ConfigurationError,
                match=(
                    "node crash/partition/message loss disturbances require "
                    "the distributed engine"
                ),
            ):
                _scenario(disturbances=(disturbance,))

    def test_middleware_allows_delay_spike(self):
        scenario = _scenario(
            disturbances=(DelaySpike(time=1.0, until=2.0, factor=3.0),)
        )
        assert scenario.disturbances

    def test_distributed_allows_fault_disturbances(self):
        scenario = _scenario(
            engine="distributed",
            combo="J_N_N",
            disturbances=(
                NodeCrash(node="n1", time=1.0, recovery=2.0),
                MessageLoss(probability=0.1, until=4.0),
            ),
        )
        assert len(scenario.disturbances) == 2


# ----------------------------------------------------------------------
# Session-time node-reference validation
# ----------------------------------------------------------------------
class TestSessionNodeValidation:
    def _session(self, *disturbances, engine="distributed", combo="J_N_N"):
        from repro.api import Session

        return Session(
            _scenario(
                engine=engine, combo=combo, disturbances=tuple(disturbances)
            )
        )

    def test_node_crash_unknown_node(self):
        with pytest.raises(
            ConfigurationError,
            match="NodeCrash disturbance references unknown node\\(s\\) 'ghost'",
        ):
            self._session(NodeCrash(node="ghost", time=1.0))

    def test_partition_unknown_node(self):
        nodes = tuple(
            WorkloadSource.random(seed=1).materialize().app_nodes
        )
        with pytest.raises(
            ConfigurationError,
            match="Partition disturbance references unknown node\\(s\\) 'phantom'",
        ):
            self._session(
                Partition(
                    time=1.0,
                    heal=2.0,
                    group_a=(nodes[0],),
                    group_b=("phantom",),
                )
            )

    def test_slowdown_unknown_node(self):
        with pytest.raises(
            ConfigurationError,
            match="Slowdown disturbance references unknown node\\(s\\) 'nope'",
        ):
            self._session(
                Slowdown(time=1.0, factor=0.5, nodes=("nope",)),
                engine="middleware",
                combo="J_J_J",
            )

    def test_known_nodes_pass(self):
        nodes = tuple(
            WorkloadSource.random(seed=1).materialize().app_nodes
        )
        session = self._session(
            NodeCrash(node=nodes[0], time=1.0, recovery=2.0),
            Partition(
                time=1.0, heal=2.0, group_a=nodes[:1], group_b=nodes[1:2]
            ),
        )
        assert session.scenario.disturbances


# ----------------------------------------------------------------------
# Scenario validation
# ----------------------------------------------------------------------
class TestScenarioErrors:
    def test_workload_must_be_source(self):
        with pytest.raises(
            ConfigurationError, match="workload must be a WorkloadSource"
        ):
            Scenario(workload=_workload())

    def test_nonpositive_duration(self):
        with pytest.raises(
            ConfigurationError,
            match="scenario duration must be finite and > 0, got 0.0",
        ):
            _scenario(duration=0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_duration(self, value):
        with pytest.raises(
            ConfigurationError,
            match=f"scenario duration must be finite and > 0, got {value}",
        ):
            _scenario(duration=value)

    def test_nonpositive_interarrival_factor(self):
        with pytest.raises(
            ConfigurationError,
            match="aperiodic_interarrival_factor must be finite and > 0, got -2.0",
        ):
            _scenario(aperiodic_interarrival_factor=-2.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_interarrival_factor(self, value):
        with pytest.raises(
            ConfigurationError,
            match=f"aperiodic_interarrival_factor must be finite and > 0, got {value}",
        ):
            _scenario(aperiodic_interarrival_factor=value)

    def test_unknown_engine(self):
        with pytest.raises(
            ConfigurationError, match="unknown engine 'quantum'"
        ):
            _scenario(engine="quantum")

    def test_unknown_combo_surfaces_at_build_time(self):
        with pytest.raises(
            ConfigurationError, match="unknown strategy combo 'X_X_X'"
        ):
            _scenario(combo="X_X_X")

    def test_distributed_requires_jnn(self):
        with pytest.raises(
            ConfigurationError, match="only the J_N_N\\s+configuration, got 'T_T_T'"
        ):
            _scenario(engine="distributed", combo="T_T_T")

    def test_distributed_rejects_burst_slowdown_disturbances(self):
        with pytest.raises(
            ConfigurationError,
            match=(
                "burst/slowdown disturbances are not supported by the "
                "distributed engine"
            ),
        ):
            _scenario(
                engine="distributed",
                combo="J_N_N",
                disturbances=(Slowdown(time=1.0, factor=0.5),),
            )

    def test_unknown_disturbance_object(self):
        with pytest.raises(
            ConfigurationError, match="unknown disturbance object"
        ):
            _scenario(disturbances=("tornado",))

    def test_overlapping_burst_index_ranges(self):
        with pytest.raises(
            ConfigurationError,
            match=r"overlapping job index ranges \(100000, 100005\) and "
            r"\(100003, 100007\)",
        ):
            _scenario(
                disturbances=(
                    Burst(time=1.0, jobs=5),
                    Burst(time=2.0, jobs=4, base_index=100_003),
                )
            )

    def test_zero_job_bursts_do_not_overlap(self):
        scenario = _scenario(
            disturbances=(
                Burst(time=1.0, jobs=0),
                Burst(time=2.0, jobs=0),
            )
        )
        assert len(scenario.disturbances) == 2


# ----------------------------------------------------------------------
# Scenario JSON loading
# ----------------------------------------------------------------------
class TestScenarioJsonErrors:
    def test_from_json_rejects_non_object(self):
        with pytest.raises(
            ConfigurationError, match=r"\$: expected an object, got list"
        ):
            Scenario.from_json([1, 2, 3])

    def test_from_json_unknown_field(self):
        with pytest.raises(
            ConfigurationError, match=r"\$\.turbo: unknown key of Scenario"
        ):
            Scenario.from_json(
                {"workload": {"kind": "random", "seed": 1}, "turbo": True}
            )

    def test_from_json_needs_workload(self):
        with pytest.raises(
            ConfigurationError, match=r"\$\.workload: missing key of Scenario"
        ):
            Scenario.from_json({"duration": 5.0})

    @pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN", "1e999"])
    @pytest.mark.parametrize(
        "key", ["duration", "aperiodic_interarrival_factor", "seed"]
    )
    def test_from_json_str_refuses_non_finite_numbers(self, key, text):
        saved = _scenario().to_json_str()
        doc = saved.replace(f'"{key}": {json.loads(saved)[key]!r}', f'"{key}": {text}')
        assert doc != saved
        with pytest.raises(
            ConfigurationError, match=rf"\$\.{key}: (non-finite number|expected an int)"
        ):
            Scenario.from_json_str(doc)

    def test_from_json_refuses_non_finite_numbers_at_any_depth(self):
        data = _scenario(
            disturbances=(Slowdown(time=1.0, factor=0.5),)
        ).to_json()
        data["disturbances"][0]["factor"] = math.inf
        with pytest.raises(
            ConfigurationError,
            match=r"\$\.disturbances\[0\]\.factor: non-finite number inf",
        ):
            Scenario.from_json(data)

    def test_from_json_str_rejects_invalid_json(self):
        with pytest.raises(
            ConfigurationError, match="invalid scenario JSON"
        ):
            Scenario.from_json_str("{not json")

    def test_saved_batched_distributed_refused(self):
        # A distributed scenario saved with the flag on is refused, not
        # run unbatched.
        saved = _scenario(engine="distributed", combo="J_N_N").to_json()
        saved["arrival_batching"] = True
        with pytest.raises(
            ConfigurationError,
            match="arrival_batching conflicts with the distributed engine",
        ):
            Scenario.from_json_str(json.dumps(saved))


# ----------------------------------------------------------------------
# Keys of removed Scenario fields
# ----------------------------------------------------------------------
#: Each key a scenario saved with the replay engine's fields or the
#: tracer's ``trace`` flag may hold, and the error (after its JSON path)
#: that refuses it.
_REMOVED_KEYS = {
    "policy": ("aub", ".policy: unknown key of Scenario"),
    "policy_params": (
        {"server_period": 0.1},
        ".policy_params: unknown key of Scenario",
    ),
    "arrival_stream": ("arrivals", ".arrival_stream: unknown key of Scenario"),
    "engine": (
        "replay",
        ": unknown engine 'replay'; expected one of middleware, distributed",
    ),
    "trace": (False, ".trace: unknown key of Scenario"),
}


#: ``repro scenario export - --random-seed 3 --distributed`` as written
#: while the replay engine existed: with the ``trace`` line every saved
#: scenario held until that flag went, and the workload's default
#: ``index`` and ``stream``, which still load.
_SAVED_WITH_ARRIVAL_STREAM = """{
  "aperiodic_interarrival_factor": 2.0,
  "arrival_stream": "arrivals",
  "combo": "J_N_N",
  "drain": true,
  "duration": 60.0,
  "engine": "distributed",
  "seed": 0,
  "trace": false,
  "workload": {
    "index": 0,
    "kind": "random",
    "seed": 3,
    "stream": "task_sets"
  }
}
"""


class TestRemovedKeys:
    def test_saved_file_loads_once_its_arrival_stream_line_is_deleted(self):
        with pytest.raises(ConfigurationError) as refused:
            Scenario.from_json_str(_SAVED_WITH_ARRIVAL_STREAM)
        assert str(refused.value) == "$.arrival_stream: unknown key of Scenario"
        edited = "".join(
            line
            for line in _SAVED_WITH_ARRIVAL_STREAM.splitlines(keepends=True)
            if '"arrival_stream"' not in line and '"trace"' not in line
        )
        assert Scenario.from_json_str(edited) == Scenario(
            workload=WorkloadSource.random(seed=3),
            engine="distributed",
            combo="J_N_N",
        )

    @pytest.mark.parametrize("key", sorted(_REMOVED_KEYS))
    def test_scenario_json_refused(self, key):
        value, error = _REMOVED_KEYS[key]
        saved = _scenario().to_json()
        saved[key] = value
        with pytest.raises(ConfigurationError) as refused:
            Scenario.from_json(saved)
        assert str(refused.value) == "$" + error

    @pytest.mark.parametrize("key", sorted(_REMOVED_KEYS))
    def test_scenario_run_prints_one_error_line(self, key, tmp_path, capsys):
        value, error = _REMOVED_KEYS[key]
        saved = _scenario().to_json()
        saved[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(saved))
        assert main(["scenario", "run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["repro: error: $" + error]
