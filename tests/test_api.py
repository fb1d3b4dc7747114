"""Tests for the ``repro.api`` public surface.

Covers the strategy registry (name resolution + unknown-name errors),
Scenario validation (unknown/conflicting fields fail with
ConfigurationError), the JSON round trip (Scenario -> JSON -> Scenario ->
Session reproduces the direct-construction result exactly), RunResult
serialization, and the ExperimentSuite fan-out.
"""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Burst,
    ExperimentSuite,
    MappingCell,
    RunResult,
    Scenario,
    Session,
    Slowdown,
    StatSnapshot,
    WorkloadSource,
    default_registry,
    delay_model_from_json,
    delay_model_to_json,
    workload_from_json,
    workload_to_json,
)
from repro.core.cost_model import CostModel
from repro.core.middleware import MiddlewareSystem
from repro.core.strategies import StrategyCombo, valid_combinations
from repro.errors import AttributeConfigError, ConfigurationError
from repro.metrics.registry import MetricsRegistry
from repro.net.latency import (
    ConstantDelay,
    NormalDelay,
    TriangularDelay,
    UniformDelay,
)
from repro.sched.task import TaskKind
from repro.sim.rng import RngRegistry
from repro.workloads.generator import RandomWorkloadParams, generate_random_workload
from repro.workloads.model import Workload

from tests.jsonutil import WRONG_VALUES, json_kind, json_paths
from tests.taskutil import make_task


def _workload(seed=2008):
    return generate_random_workload(RngRegistry(seed).stream("wl"))


class TestRegistry:
    def test_all_valid_combos_resolve(self):
        registry = default_registry()
        for combo in valid_combinations():
            assert registry.combo(combo.label) == combo

    def test_aliases(self):
        registry = default_registry()
        assert registry.combo("default").label == "T_T_T"
        assert registry.combo("paper-best").label == "J_J_J"
        assert registry.combo("distributed").label == "J_N_N"

    def test_unknown_combo_raises(self):
        with pytest.raises(ConfigurationError, match="unknown strategy combo"):
            default_registry().combo("X_Y_Z")

    def test_invalid_combo_label_raises(self):
        # T_J_* is the paper's contradictory combination.
        with pytest.raises(ConfigurationError):
            default_registry().combo("T_J_N")

    def test_policies_resolve(self):
        registry = default_registry()
        assert registry.policy("aub", ["a", "b"]) is not None
        assert registry.policy(
            "deferrable_server", ["a"], server_utilization=0.2
        ) is not None

    def test_unknown_policy_raises(self):
        with pytest.raises(ConfigurationError, match="unknown admission policy"):
            default_registry().policy("nope", ["a"])

    def test_bad_policy_params_raise(self):
        with pytest.raises(ConfigurationError, match="bad parameters"):
            default_registry().policy("deferrable_server", ["a"], bogus=1)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            default_registry().register_combo(
                "default", StrategyCombo.from_label("J_J_J")
            )


class TestScenarioValidation:
    def test_needs_workload_source(self):
        with pytest.raises(ConfigurationError, match="WorkloadSource"):
            Scenario(workload=_workload())

    def test_builder_requires_workload(self):
        with pytest.raises(ConfigurationError, match="workload source"):
            Scenario.builder().combo("J_J_J").build()

    def test_builder_rejects_two_sources(self):
        builder = Scenario.builder().workload(_workload())
        with pytest.raises(ConfigurationError, match="conflicting"):
            builder.random_workload(seed=1)

    def test_unknown_combo_rejected_at_build(self):
        with pytest.raises(ConfigurationError, match="unknown strategy combo"):
            Scenario.builder().workload(_workload()).combo("WAT").build()

    def test_bad_duration(self):
        with pytest.raises(ConfigurationError, match="duration"):
            Scenario.builder().workload(_workload()).duration(0).build()

    def test_policy_conflicts_with_middleware_engine(self):
        with pytest.raises(ConfigurationError, match="replay engine"):
            Scenario(
                workload=WorkloadSource.explicit(_workload()), policy="aub"
            )

    def test_replay_requires_policy(self):
        with pytest.raises(ConfigurationError, match="admission policy"):
            Scenario(
                workload=WorkloadSource.explicit(_workload()), engine="replay"
            )

    def test_replay_rejects_disturbances(self):
        with pytest.raises(ConfigurationError, match="disturbances"):
            Scenario(
                workload=WorkloadSource.explicit(_workload()),
                engine="replay",
                policy="aub",
                disturbances=(Burst(time=1.0, jobs=5),),
            )

    def test_distributed_requires_jnn(self):
        with pytest.raises(ConfigurationError, match="J_N_N"):
            Scenario(
                workload=WorkloadSource.explicit(_workload()),
                engine="distributed",
                combo="J_J_J",
            )

    def test_unknown_engine(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            Scenario(
                workload=WorkloadSource.explicit(_workload()), engine="magic"
            )

    def test_explicit_source_rejects_generator_fields(self):
        with pytest.raises(ConfigurationError, match="conflicting"):
            WorkloadSource(kind="explicit", workload=_workload(), seed=3)

    def test_generated_source_rejects_embedded_workload(self):
        with pytest.raises(ConfigurationError, match="conflicting"):
            WorkloadSource(kind="random", workload=_workload(), seed=3)

    def test_generated_source_needs_seed(self):
        with pytest.raises(ConfigurationError, match="seed"):
            WorkloadSource(kind="random")

    def test_bad_disturbance_values(self):
        with pytest.raises(ConfigurationError):
            Burst(time=-1.0, jobs=5)
        with pytest.raises(ConfigurationError):
            Slowdown(time=1.0, factor=0.0)

    def test_overlapping_burst_indices_rejected(self):
        builder = (
            Scenario.builder().workload(_workload())
            .burst(time=5.0, jobs=10).burst(time=6.0, jobs=10)
        )
        with pytest.raises(ConfigurationError, match="overlapping"):
            builder.build()

    def test_disjoint_burst_indices_accepted(self):
        scenario = (
            Scenario.builder().workload(_workload())
            .burst(time=5.0, jobs=10)
            .burst(time=6.0, jobs=10, base_index=200_000)
            .build()
        )
        assert len(scenario.disturbances) == 2

    def test_explicit_source_rejects_generator_index_stream(self):
        with pytest.raises(ConfigurationError, match="conflicting"):
            WorkloadSource(kind="explicit", workload=_workload(), index=3)
        with pytest.raises(ConfigurationError, match="conflicting"):
            WorkloadSource(kind="explicit", workload=_workload(), stream="x")

    def test_unknown_json_fields_rejected(self):
        scenario = Scenario.builder().random_workload(seed=1).build()
        data = scenario.to_json()
        data["speed_hack"] = True
        with pytest.raises(ConfigurationError, match="unknown scenario field"):
            Scenario.from_json(data)

    def test_unknown_workload_json_fields_rejected(self):
        data = workload_to_json(_workload())
        data["tasks"][0]["surprise"] = 1
        with pytest.raises(ConfigurationError, match="unknown task field"):
            workload_from_json(data)

    def test_unknown_delay_type_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown delay model"):
            delay_model_from_json({"type": "wormhole", "delay": 1.0})

    def test_incomplete_delay_model_rejected(self):
        with pytest.raises(ConfigurationError, match="incomplete uniform"):
            delay_model_from_json({"type": "uniform"})

    def test_policy_params_normalized_for_round_trip(self):
        unsorted = Scenario(
            workload=WorkloadSource.explicit(_workload()),
            engine="replay",
            policy="deferrable_server",
            policy_params=(
                ("server_utilization", 0.3),
                ("server_period", 0.1),
            ),
        )
        assert unsorted.policy_params == (
            ("server_period", 0.1),
            ("server_utilization", 0.3),
        )
        assert Scenario.from_json_str(unsorted.to_json_str()) == unsorted

    def test_duplicate_policy_params_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate policy"):
            Scenario(
                workload=WorkloadSource.explicit(_workload()),
                engine="replay",
                policy="deferrable_server",
                policy_params=(
                    ("server_period", 0.1),
                    ("server_period", 0.2),
                ),
            )

    def test_custom_arrival_stream_rejected_off_replay(self):
        with pytest.raises(ConfigurationError, match="arrival_stream"):
            Scenario(
                workload=WorkloadSource.explicit(_workload()),
                arrival_stream="custom",
            )


class TestJsonRoundTrip:
    def test_workload_round_trip(self):
        workload = _workload()
        assert workload_from_json(workload_to_json(workload)) == workload

    @pytest.mark.parametrize(
        "model",
        [
            ConstantDelay(0.001),
            UniformDelay(0.0, 0.002),
            TriangularDelay(0.0, 0.001, 0.003),
            NormalDelay(0.001, 0.0002, floor=0.0),
        ],
    )
    def test_delay_model_round_trip(self, model):
        restored = delay_model_from_json(delay_model_to_json(model))
        assert repr(restored) == repr(model)

    def test_full_scenario_round_trip(self):
        scenario = (
            Scenario.builder()
            .random_workload(seed=5, index=2, params=RandomWorkloadParams(
                n_processors=3, min_subtasks=1, max_subtasks=3))
            .combo("J_T_N")
            .duration(42.0)
            .seed(9)
            .cost_model(CostModel().scaled(2.0))
            .delay_model(ConstantDelay(0.002))
            .interarrival_factor(1.5)
            .burst(time=10.0, jobs=7)
            .slowdown(time=20.0, factor=0.5)
            .label("everything")
            .build()
        )
        assert Scenario.from_json_str(scenario.to_json_str()) == scenario

    def test_replay_scenario_round_trip(self):
        scenario = (
            Scenario.builder()
            .workload(_workload())
            .replay("deferrable_server", server_utilization=0.25,
                    server_period=0.2)
            .duration(30.0)
            .seed(4)
            .arrival_stream("arrivals:3")
            .build()
        )
        assert Scenario.from_json_str(scenario.to_json_str()) == scenario

    @pytest.mark.parametrize("label", ["T_N_N", "T_T_T", "J_N_J", "J_J_J"])
    def test_round_trip_matches_direct_construction(self, label):
        """Scenario -> JSON -> Scenario -> Session == direct
        MiddlewareSystem construction, bit for bit."""
        workload = _workload(seed=31)
        scenario = (
            Scenario.builder()
            .workload(workload)
            .combo(label)
            .duration(20.0)
            .seed(13)
            .build()
        )
        restored = Scenario.from_json_str(scenario.to_json_str())
        api_result = Session(restored).run()

        direct = MiddlewareSystem(
            workload, StrategyCombo.from_label(label), seed=13
        ).run(20.0)
        assert api_result.accepted_utilization_ratio == (
            direct.metrics.accepted_utilization_ratio
        )
        assert api_result.deadline_misses == direct.metrics.latency.deadline_misses
        assert api_result.arrived_jobs == direct.metrics.arrived_jobs
        assert api_result.events_executed == direct.events_executed
        assert api_result.messages_sent == direct.messages_sent
        assert api_result.cpu_utilization == direct.cpu_utilization

    def test_generated_source_reproduces_shared_stream_draw(self):
        gen = RngRegistry(77).stream("task_sets")
        drawn = [generate_random_workload(gen) for _ in range(3)]
        for index, expected in enumerate(drawn):
            source = WorkloadSource.random(seed=77, index=index)
            assert source.materialize() == expected

    def test_run_result_round_trip(self):
        scenario = (
            Scenario.builder().workload(_workload()).combo("J_J_J")
            .duration(10.0).seed(2).build()
        )
        result = Session(scenario).run()
        restored = RunResult.from_json(result.to_json())
        assert restored == result
        assert restored.overhead_rows() == result.overhead_rows()

    def test_stat_snapshot_empty_round_trip(self):
        empty = StatSnapshot()
        restored = StatSnapshot.from_json(empty.to_json())
        assert restored.count == 0
        assert math.isinf(restored.minimum)


class TestRunResultBoundary:
    """Malformed RunResult JSON fails with ConfigurationError, at any depth."""

    @pytest.fixture(scope="class")
    def payload(self):
        # Armed and under message loss: the chaos counters, the overhead
        # and delay snapshots and the metrics snapshot are all present.
        scenario = (
            Scenario.builder()
            .random_workload(seed=3, params=RandomWorkloadParams(
                n_periodic=4, n_aperiodic=4, n_processors=3))
            .distributed()
            .duration(5.0)
            .seed(11)
            .message_loss(0.2)
            .build()
        )
        data = Session(scenario, metrics=MetricsRegistry()).run().to_json()
        assert data["messages_dropped"] and data["metrics_snapshot"]["families"]
        return data

    def test_unmutated_payload_round_trips(self, payload):
        assert RunResult.from_json(payload).to_json() == payload

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_payload_fails_only_with_configuration_error(
        self, payload, data
    ):
        mutated = copy.deepcopy(payload)
        path = data.draw(st.sampled_from(json_paths(mutated)))
        parent = mutated
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        drop = isinstance(parent, dict) and data.draw(st.booleans())
        if drop:
            del parent[key]
        else:
            kind = json_kind(parent[key])
            parent[key] = data.draw(st.sampled_from(
                [v for v in WRONG_VALUES if json_kind(v) != kind]
            ))
        try:
            RunResult.from_json(mutated)
        except ConfigurationError:
            return
        # Only a dropped optional field or an absent snapshot parses.
        assert drop or (path == ("metrics_snapshot",) and parent[key] is None)

    @pytest.mark.parametrize("data", [None, [], "x", 7])
    def test_non_object_payload_rejected(self, data):
        with pytest.raises(ConfigurationError):
            RunResult.from_json(data)
        with pytest.raises(ConfigurationError):
            StatSnapshot.from_json(data)


class TestSession:
    def test_session_runs_once(self):
        scenario = (
            Scenario.builder().workload(_workload()).duration(5.0).build()
        )
        session = Session(scenario)
        session.run()
        with pytest.raises(ConfigurationError, match="already ran"):
            session.run()

    def test_replay_has_no_deployment(self):
        scenario = (
            Scenario.builder().workload(_workload())
            .replay("aub").duration(5.0).build()
        )
        with pytest.raises(ConfigurationError, match="no deployment"):
            Session(scenario).deploy()

    def test_distributed_scenario_runs(self):
        scenario = (
            Scenario.builder().workload(_workload(seed=3))
            .distributed().duration(10.0).seed(1).build()
        )
        result = Session(scenario).run()
        assert result.engine == "distributed"
        assert 0.0 <= result.accepted_utilization_ratio <= 1.0
        assert result.reserve_messages > 0

    def test_burst_disturbance_unknown_task_rejected(self):
        scenario = (
            Scenario.builder().workload(_workload())
            .burst(time=1.0, jobs=3, task_id="ghost").duration(5.0).build()
        )
        with pytest.raises(Exception):
            Session(scenario).run()

    def test_resolved_burst_overlap_rejected_at_deploy(self):
        # None resolves to the first aperiodic task at deploy time — a
        # second burst naming that task explicitly collides on job keys
        # even though literal task_id fields differ.
        workload = _workload()
        first_aperiodic = workload.aperiodic_tasks[0].task_id
        scenario = (
            Scenario.builder().workload(workload)
            .burst(time=1.0, jobs=5)
            .burst(time=2.0, jobs=5, task_id=first_aperiodic)
            .duration(5.0)
            .build()
        )
        with pytest.raises(ConfigurationError, match="overlapping"):
            Session(scenario).deploy()


class TestExperimentSuite:
    def test_results_order_is_worker_invariant(self):
        workload = _workload(seed=21)
        suite = ExperimentSuite(
            name="order",
            cells=tuple(
                Scenario.builder().workload(workload).combo(label)
                .duration(8.0).seed(5).build()
                for label in ("T_N_N", "J_N_N", "J_J_J")
            ),
        )
        serial = [r.to_json() for r in suite.run_results(n_workers=1)]
        parallel = [r.to_json() for r in suite.run_results(n_workers=3)]
        assert serial == parallel
        assert [r["combo_label"] for r in serial] == ["T_N_N", "J_N_N", "J_J_J"]

    def test_mixed_suite_dispatches_both_cell_kinds(self):
        suite = ExperimentSuite(
            name="mixed",
            cells=(
                Scenario.builder().workload(_workload()).duration(5.0).build(),
                MappingCell(
                    category="demo",
                    job_skipping=True,
                    replicated_components=True,
                    state_persistence=False,
                    overhead_tolerance="PJ",
                ),
            ),
        )
        run_result, row = suite.run(n_workers=1)
        assert isinstance(run_result, RunResult)
        assert row.combo_label == "J_J_J"

    def test_run_results_rejects_mapping_cells_before_running(self):
        ran = []
        suite = ExperimentSuite(
            name="mapped",
            cells=(
                Scenario.builder().workload(_workload()).duration(5.0).build(),
                MappingCell(
                    category="demo",
                    job_skipping=True,
                    replicated_components=True,
                    state_persistence=False,
                    overhead_tolerance="PJ",
                ),
            ),
        )
        original_run = ExperimentSuite.run
        ExperimentSuite.run = lambda self, n_workers=None: ran.append(True)
        try:
            with pytest.raises(ConfigurationError, match="non-scenario"):
                suite.run_results(n_workers=1)
        finally:
            ExperimentSuite.run = original_run
        assert not ran, "mixed suite must be rejected before any cell runs"

    def test_suite_json_round_trip(self):
        suite = ExperimentSuite(
            name="round",
            description="both cell kinds",
            cells=(
                Scenario.builder().random_workload(seed=3).duration(6.0).build(),
                MappingCell(
                    category="demo",
                    job_skipping=False,
                    replicated_components=True,
                    state_persistence=True,
                    overhead_tolerance="PT",
                ),
            ),
        )
        restored = ExperimentSuite.from_json(suite.to_json())
        assert restored == suite


class TestGeneratedWorkloadMemo:
    """A generated source materializes once per recipe (bounded memo)."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        WorkloadSource._generate.cache_clear()
        yield
        WorkloadSource._generate.cache_clear()

    def test_equal_recipes_share_one_workload(self):
        first = WorkloadSource.random(seed=11, index=2).materialize()
        assert WorkloadSource.random(seed=11, index=2).materialize() is first

    @pytest.mark.parametrize(
        "other",
        [
            WorkloadSource.random(seed=11, index=3),
            WorkloadSource.random(seed=11, index=2, stream="other_sets"),
            WorkloadSource.random(
                seed=11, index=2, params=RandomWorkloadParams(n_periodic=4)
            ),
            WorkloadSource.imbalanced(seed=11, index=2),
        ],
        ids=["index", "stream", "params", "kind"],
    )
    def test_recipes_that_differ_do_not_share(self, other):
        base = WorkloadSource.random(seed=11, index=2).materialize()
        assert other.materialize() is not base

    def test_memoized_workload_equals_direct_generation(self):
        params = RandomWorkloadParams(n_periodic=3, n_aperiodic=2)
        source = WorkloadSource.random(seed=11, index=2, params=params, stream="s")
        source.materialize()  # the second call is served by the memo
        rng = RngRegistry(11).stream("s")
        for _ in range(2):
            generate_random_workload(rng, params)
        assert source.materialize() == generate_random_workload(rng, params)

    def test_evicted_recipe_regenerates_equal(self):
        first = WorkloadSource.random(seed=0).materialize()
        size = WorkloadSource._generate.cache_info().maxsize
        for seed in range(1, size + 1):
            WorkloadSource.random(seed=seed).materialize()
        assert WorkloadSource._generate.cache_info().currsize == size
        again = WorkloadSource.random(seed=0).materialize()
        assert again is not first and again == first


class TestDeployRefusesBadValues:
    """The home replica checks a subtask's values; the others copy them."""

    @staticmethod
    def _workload(execution_time, deadline):
        task = make_task(
            "P1", TaskKind.PERIODIC, deadline=deadline, execs=(execution_time,),
            homes=("app1",), replicas=[("app2",)],
        )
        return Workload(tasks=(task,), app_nodes=("app1", "app2"))

    @pytest.mark.parametrize(
        "execution_time, deadline, attribute",
        [(1, 4.0, "execution_time"), (0.5, 4, "priority")],
        ids=["int-execution-time", "int-deadline"],
    )
    @pytest.mark.parametrize("distributed", [False, True], ids=["central", "J_N_N"])
    def test_home_replica_refuses(self, execution_time, deadline, attribute, distributed):
        builder = Scenario.builder().workload(self._workload(execution_time, deadline))
        builder = builder.distributed() if distributed else builder.combo("J_J_J")
        session = Session(builder.duration(5.0).build())
        with pytest.raises(AttributeConfigError, match=attribute) as refused:
            session.deploy()
        assert "'P1.s0@app1'" in str(refused.value)
