"""Tests for the ``repro.api`` public surface.

Covers combo name resolution (+ unknown-name errors), Scenario
validation (unknown/conflicting fields fail with
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
    DelaySpike,
    ExperimentSuite,
    MessageLoss,
    NodeCrash,
    Partition,
    RunResult,
    Scenario,
    Session,
    Slowdown,
    StatSnapshot,
    WorkloadSource,
    resolve_combo,
)
from repro.core.cost_model import CostModel
from repro.core.middleware import MiddlewareSystem
from repro.core.strategies import StrategyCombo, valid_combinations
from repro.errors import AttributeConfigError, ConfigurationError
from repro.json_checks import decode, encode
from repro.metrics.registry import MetricsRegistry
from repro.net.latency import (
    ConstantDelay,
    DelayModel,
    NormalDelay,
    TriangularDelay,
    UniformDelay,
)
from repro.sched.task import TaskKind
from repro.sim.rng import RngRegistry
from repro.workloads.generator import RandomWorkloadParams, generate_random_workload
from repro.workloads.imbalanced import ImbalancedWorkloadParams
from repro.workloads.model import Workload

from tests.jsonutil import may_parse, mutate
from tests.taskutil import make_task


def _workload(seed=2008):
    return generate_random_workload(RngRegistry(seed).stream("wl"))


#: The names ``resolve_combo`` lists after an unknown one.
_KNOWN_NAMES = (
    "J_J_J, J_J_N, J_J_T, J_N_J, J_N_N, J_N_T, J_T_J, J_T_N, J_T_T, "
    "T_N_J, T_N_N, T_N_T, T_T_J, T_T_N, T_T_T, default, distributed, "
    "paper-best"
)


class TestRegistry:
    def test_all_valid_combos_resolve(self):
        for combo in valid_combinations():
            assert resolve_combo(combo.label) == combo

    @pytest.mark.parametrize(
        "spelling",
        [
            str.lower,
            lambda label: label[0].lower() + label[1:],
            lambda label: f"  {label.lower()}\t\n",
        ],
        ids=["lower", "mixed", "spaces"],
    )
    def test_labels_resolve_in_any_case_and_spacing(self, spelling):
        for combo in valid_combinations():
            assert resolve_combo(spelling(combo.label)) == combo

    def test_aliases(self):
        assert resolve_combo("default").label == "T_T_T"
        assert resolve_combo("paper-best").label == "J_J_J"
        assert resolve_combo(" distributed ").label == "J_N_N"

    def test_unknown_combo_raises(self):
        with pytest.raises(ConfigurationError) as refused:
            resolve_combo("X_Y_Z")
        assert str(refused.value) == (
            f"unknown strategy combo 'X_Y_Z'; known names: {_KNOWN_NAMES}"
        )

    def test_invalid_combo_label_raises(self):
        # T_J_* is the paper's contradictory combination.
        with pytest.raises(ConfigurationError) as refused:
            resolve_combo("T_J_N")
        assert str(refused.value) == (
            f"unknown strategy combo 'T_J_N'; known names: {_KNOWN_NAMES}"
        )

    @pytest.mark.parametrize("name", [None, 7, StrategyCombo.from_label("J_J_J")])
    def test_non_string_raises(self, name):
        with pytest.raises(
            ConfigurationError, match="strategy combo must be a name string, got"
        ):
            resolve_combo(name)


class TestPackageSurface:
    def test_resolve_combo_is_exported_by_both_packages(self):
        import repro
        import repro.api
        from repro.api import registry

        assert repro.resolve_combo is registry.resolve_combo
        assert repro.api.resolve_combo is registry.resolve_combo
        assert "resolve_combo" in repro.__all__
        assert "resolve_combo" in repro.api.__all__

    def test_one_way_to_build_a_scenario_and_name_a_combo(self):
        import repro
        import repro.api
        from repro.api import registry, scenario

        removed = (
            "ENGINE_REPLAY",
            "REGISTRY",
            "ScenarioBuilder",
            "StrategyRegistry",
            "default_registry",
            "register_combo",
            "register_policy",
        )
        for module in (repro, repro.api, registry, scenario):
            for name in removed:
                assert not hasattr(module, name), (module.__name__, name)
        assert not hasattr(Scenario, "builder")
        assert scenario.ENGINES == ("middleware", "distributed")

    def test_package_quickstart_doctest_passes(self):
        import doctest

        import repro

        failed, attempted = doctest.testmod(repro, report=False)
        assert (failed, attempted) == (0, 4)


class TestScenarioValidation:
    def test_needs_workload_source(self):
        with pytest.raises(ConfigurationError, match="WorkloadSource"):
            Scenario(workload=_workload())

    def test_unknown_combo_rejected_at_build(self):
        with pytest.raises(ConfigurationError, match="unknown strategy combo"):
            Scenario(workload=WorkloadSource.explicit(_workload()), combo="WAT")

    def test_bad_duration(self):
        with pytest.raises(ConfigurationError, match="duration"):
            Scenario(workload=WorkloadSource.explicit(_workload()), duration=0)

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
        bursts = (Burst(time=5.0, jobs=10), Burst(time=6.0, jobs=10))
        with pytest.raises(ConfigurationError, match="overlapping"):
            Scenario(
                workload=WorkloadSource.explicit(_workload()),
                disturbances=bursts,
            )

    def test_disjoint_burst_indices_accepted(self):
        scenario = Scenario(
            workload=WorkloadSource.explicit(_workload()),
            disturbances=(
                Burst(time=5.0, jobs=10),
                Burst(time=6.0, jobs=10, base_index=200_000),
            ),
        )
        assert len(scenario.disturbances) == 2

    def test_explicit_source_rejects_generator_index_stream(self):
        with pytest.raises(ConfigurationError, match="conflicting"):
            WorkloadSource(kind="explicit", workload=_workload(), index=3)
        with pytest.raises(ConfigurationError, match="conflicting"):
            WorkloadSource(kind="explicit", workload=_workload(), stream="x")

    def test_unknown_json_fields_rejected(self):
        scenario = Scenario(workload=WorkloadSource.random(seed=1))
        data = scenario.to_json()
        data["speed_hack"] = True
        with pytest.raises(
            ConfigurationError, match=r"\$\.speed_hack: unknown key of Scenario"
        ):
            Scenario.from_json(data)

    def test_unknown_workload_json_fields_rejected(self):
        data = encode(_workload(), Workload)
        data["tasks"][0]["surprise"] = 1
        with pytest.raises(
            ConfigurationError,
            match=r"\$\.tasks\[0\]\.surprise: unknown key of TaskSpec",
        ):
            decode(Workload, data)

    def test_unknown_delay_type_rejected(self):
        with pytest.raises(
            ConfigurationError, match=r"\$\.type: unknown tag 'wormhole'"
        ):
            decode(DelayModel, {"type": "wormhole", "delay": 1.0})

    def test_incomplete_delay_model_rejected(self):
        with pytest.raises(
            ConfigurationError, match=r"\$\.low: missing key of UniformDelay"
        ):
            decode(DelayModel, {"type": "uniform"})


class TestJsonRoundTrip:
    def test_workload_round_trip(self):
        workload = _workload()
        assert decode(Workload, encode(workload, Workload)) == workload

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
        restored = decode(DelayModel, encode(model, DelayModel))
        assert repr(restored) == repr(model)

    def test_full_scenario_round_trip(self):
        scenario = Scenario(
            workload=WorkloadSource.random(
                seed=5,
                index=2,
                params=RandomWorkloadParams(
                    n_processors=3, min_subtasks=1, max_subtasks=3
                ),
            ),
            combo="J_T_N",
            duration=42.0,
            seed=9,
            cost_model=CostModel().scaled(2.0),
            delay_model=ConstantDelay(0.002),
            aperiodic_interarrival_factor=1.5,
            disturbances=(
                Burst(time=10.0, jobs=7),
                Slowdown(time=20.0, factor=0.5),
            ),
            label="everything",
        )
        assert Scenario.from_json_str(scenario.to_json_str()) == scenario

    @pytest.mark.parametrize("label", ["T_N_N", "T_T_T", "J_N_J", "J_J_J"])
    def test_round_trip_matches_direct_construction(self, label):
        """Scenario -> JSON -> Scenario -> Session == direct
        MiddlewareSystem construction, bit for bit."""
        workload = _workload(seed=31)
        scenario = Scenario(
            workload=WorkloadSource.explicit(workload),
            combo=label,
            duration=20.0,
            seed=13,
        )
        restored = Scenario.from_json_str(scenario.to_json_str())
        api_result = Session(restored).run()

        direct = MiddlewareSystem(
            workload, StrategyCombo.from_label(label), seed=13
        ).run(20.0)
        assert api_result.accepted_utilization_ratio == (
            direct.metrics.accepted_utilization_ratio
        )
        assert api_result.deadline_misses == direct.metrics.deadline_misses
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
        scenario = Scenario(
            workload=WorkloadSource.explicit(_workload()),
            combo="J_J_J",
            duration=10.0,
            seed=2,
        )
        result = Session(scenario).run()
        restored = RunResult.from_json(result.to_json())
        assert restored == result
        assert restored.overhead_rows() == result.overhead_rows()

    def test_stat_snapshot_empty_round_trip(self):
        empty = StatSnapshot()
        restored = decode(StatSnapshot, encode(empty, StatSnapshot))
        assert restored.count == 0
        assert math.isinf(restored.minimum)


#: A source of each kind at the default ``index`` and ``stream``.
_DEFAULT_SOURCES = {
    "explicit": WorkloadSource.explicit(_workload()),
    "imbalanced": WorkloadSource.imbalanced(seed=3),
    "random": WorkloadSource.random(seed=3),
}


class TestSavedWorkloadSource:
    """A saved source leaves out ``index`` and ``stream`` while they hold
    their defaults, writes any other value, and still loads a file that
    carries the defaults."""

    @pytest.mark.parametrize("kind", sorted(_DEFAULT_SOURCES))
    def test_default_index_and_stream_are_left_out(self, kind):
        saved = Scenario(workload=_DEFAULT_SOURCES[kind]).to_json()["workload"]
        assert saved["kind"] == kind
        assert "index" not in saved and "stream" not in saved

    @pytest.mark.parametrize("kind", sorted(_DEFAULT_SOURCES))
    def test_file_with_the_default_lines_still_loads(self, kind):
        scenario = Scenario(workload=_DEFAULT_SOURCES[kind])
        saved = scenario.to_json()
        saved["workload"].update(index=0, stream="task_sets")
        assert Scenario.from_json(saved) == scenario

    @pytest.mark.parametrize("kind", ["imbalanced", "random"])
    def test_other_index_and_stream_are_written(self, kind):
        source = WorkloadSource(kind=kind, seed=3, index=2, stream="other_sets")
        scenario = Scenario(workload=source)
        saved = scenario.to_json()
        assert (saved["workload"]["index"], saved["workload"]["stream"]) == (
            2,
            "other_sets",
        )
        assert Scenario.from_json(saved) == scenario


#: Number replacements besides the wrong-typed ones: no JSON number the
#: codec reads may be NaN or infinite.
_NON_FINITE = (math.inf, -math.inf, math.nan)


class TestRunResultBoundary:
    """Malformed RunResult JSON fails with ConfigurationError, at any depth."""

    @pytest.fixture(scope="class")
    def payload(self):
        # Armed and under message loss: the chaos counters, the overhead
        # and delay snapshots and the metrics snapshot are all present.
        scenario = Scenario(
            workload=WorkloadSource.random(
                seed=3,
                params=RandomWorkloadParams(
                    n_periodic=4, n_aperiodic=4, n_processors=3
                ),
            ),
            engine="distributed",
            combo="J_N_N",
            duration=5.0,
            seed=11,
            disturbances=(MessageLoss(0.2),),
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
        path, dropped, new = mutate(mutated, data, numbers=_NON_FINITE)
        try:
            RunResult.from_json(mutated)
        except ConfigurationError:
            return
        # Only a dropped optional field or an absent snapshot parses.
        assert dropped or (path == ("metrics_snapshot",) and new is None)

    @pytest.mark.parametrize("data", [None, [], "x", 7])
    def test_non_object_payload_rejected(self, data):
        with pytest.raises(ConfigurationError):
            RunResult.from_json(data)
        with pytest.raises(ConfigurationError):
            decode(StatSnapshot, data)


def _boundary_scenarios():
    """A centralized, a distributed and an imbalanced-workload scenario
    that between them set every field a saved scenario leaves out at its
    default, and reach all three workload sources' JSON forms.  Their one
    null is an aperiodic task's period: a mutator replaces a null with a
    value of another type, which a field such as a burst's ``task_id``
    takes."""
    workload = generate_random_workload(
        RngRegistry(5).stream("wl"),
        RandomWorkloadParams(n_periodic=2, n_aperiodic=2, n_processors=3),
    )
    nodes = workload.app_nodes
    return {
        "centralized": Scenario(
            workload=WorkloadSource.random(
                seed=3,
                index=1,
                params=RandomWorkloadParams(
                    n_periodic=3, n_aperiodic=2, n_processors=3
                ),
            ),
            combo="J_J_J",
            duration=10.0,
            seed=4,
            cost_model=CostModel(),
            delay_model=UniformDelay(0.0001, 0.0004),
            disturbances=(
                Burst(time=2.0, jobs=5, task_id="A1"),
                Slowdown(time=4.0, factor=0.5, nodes=("app1",)),
            ),
            label="centralized",
        ),
        "distributed": Scenario(
            workload=WorkloadSource.explicit(workload),
            engine="distributed",
            combo="J_N_N",
            duration=10.0,
            seed=5,
            delay_model=TriangularDelay(0.0001, 0.0002, 0.0004),
            disturbances=(
                NodeCrash(nodes[0], time=2.0, recovery=5.0),
                Partition(time=3.0, heal=6.0, group_a=nodes[:1], group_b=nodes[1:]),
                DelaySpike(time=1.0, until=4.0, factor=3.0),
                MessageLoss(0.1, time=0.0, until=8.0),
            ),
        ),
        "imbalanced": Scenario(
            workload=WorkloadSource.imbalanced(
                seed=6,
                index=2,
                params=ImbalancedWorkloadParams(n_periodic=2, n_aperiodic=3),
                stream="sets",
            ),
            combo="J_N_J",
            duration=10.0,
            seed=7,
            aperiodic_interarrival_factor=3.0,
            arrival_batching=True,
            drain=False,
        ),
    }


class TestScenarioBoundary:
    """Malformed Scenario JSON fails with ConfigurationError, at any depth;
    a mutation parses only where a default or a null may stand."""

    @pytest.fixture(
        scope="class", params=["centralized", "distributed", "imbalanced"]
    )
    def scenario(self, request):
        return _boundary_scenarios()[request.param]

    def test_unmutated_scenario_round_trips(self, scenario):
        assert Scenario.from_json(scenario.to_json()) == scenario

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_scenario_fails_only_with_configuration_error(
        self, scenario, data
    ):
        mutated = scenario.to_json()
        path, dropped, new = mutate(mutated, data, numbers=_NON_FINITE)
        try:
            Scenario.from_json(mutated)
        except ConfigurationError:
            return
        assert may_parse(scenario, path, dropped, new), (path, dropped, new)

    @pytest.mark.parametrize("data", [None, [], "x", 7, {"workload": 3}])
    def test_non_object_scenario_rejected(self, data):
        with pytest.raises(ConfigurationError, match=r"^\$"):
            Scenario.from_json(data)


class TestSession:
    def test_session_runs_once(self):
        scenario = Scenario(
            workload=WorkloadSource.explicit(_workload()), duration=5.0
        )
        session = Session(scenario)
        session.run()
        with pytest.raises(ConfigurationError, match="already ran"):
            session.run()

    def test_distributed_scenario_runs(self):
        scenario = Scenario(
            workload=WorkloadSource.explicit(_workload(seed=3)),
            engine="distributed",
            combo="J_N_N",
            duration=10.0,
            seed=1,
        )
        result = Session(scenario).run()
        assert result.engine == "distributed"
        assert 0.0 <= result.accepted_utilization_ratio <= 1.0
        assert result.reserve_messages > 0

    def test_burst_disturbance_unknown_task_rejected(self):
        scenario = Scenario(
            workload=WorkloadSource.explicit(_workload()),
            disturbances=(Burst(time=1.0, jobs=3, task_id="ghost"),),
            duration=5.0,
        )
        with pytest.raises(Exception):
            Session(scenario).run()

    def test_resolved_burst_overlap_rejected_at_deploy(self):
        # None resolves to the first aperiodic task at deploy time — a
        # second burst naming that task explicitly collides on job keys
        # even though literal task_id fields differ.
        workload = _workload()
        first_aperiodic = workload.aperiodic_tasks[0].task_id
        scenario = Scenario(
            workload=WorkloadSource.explicit(workload),
            disturbances=(
                Burst(time=1.0, jobs=5),
                Burst(time=2.0, jobs=5, task_id=first_aperiodic),
            ),
            duration=5.0,
        )
        with pytest.raises(ConfigurationError, match="overlapping"):
            Session(scenario).deploy()


class TestExperimentSuite:
    def test_results_order_is_worker_invariant(self):
        workload = _workload(seed=21)
        suite = ExperimentSuite(
            name="order",
            cells=tuple(
                Scenario(
                    workload=WorkloadSource.explicit(workload),
                    combo=label,
                    duration=8.0,
                    seed=5,
                )
                for label in ("T_N_N", "J_N_N", "J_J_J")
            ),
        )
        serial = [r.to_json() for r in suite.run_results(n_workers=1)]
        parallel = [r.to_json() for r in suite.run_results(n_workers=3)]
        assert serial == parallel
        assert [r["combo_label"] for r in serial] == ["T_N_N", "J_N_N", "J_J_J"]

    def test_non_scenario_cell_refused(self):
        saved = Scenario(workload=WorkloadSource.random(seed=3)).to_json()
        with pytest.raises(
            ConfigurationError,
            match=r"^suite 'raw': a cell must be a Scenario, got dict$",
        ):
            ExperimentSuite(name="raw", cells=(saved,))


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
    """Each (task, stage)'s values are checked once, by ``deploy_stages``,
    and its rows take the checked values."""

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
        session = Session(
            Scenario(
                workload=WorkloadSource.explicit(
                    self._workload(execution_time, deadline)
                ),
                engine="distributed" if distributed else "middleware",
                combo="J_N_N" if distributed else "J_J_J",
                duration=5.0,
            )
        )
        with pytest.raises(AttributeConfigError, match=attribute) as refused:
            session.deploy()
        assert "'P1.s0@app1'" in str(refused.value)
