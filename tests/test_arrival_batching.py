"""Integration tests for the batched arrival hot path.

The batching flag must (a) actually engage — arrivals drain through the
AC's batched decision pass — (b) respect every strategy's semantics,
(c) decide exactly as the sequential path wherever no drain decides more
than one arrival, and (d) refuse engines that have no admission
controller.
"""

import random

import pytest

from repro.api import Scenario, Session
from repro.core.admission_controller import AUB_REJECT
from repro.core.strategies import valid_combinations
from repro.errors import ConfigurationError
from repro.workloads.generator import RandomWorkloadParams

PARAMS = RandomWorkloadParams(n_periodic=4, n_aperiodic=4)

COMBOS = [combo.label for combo in valid_combinations()]


def _scenario(combo="J_J_N", batching=True, **kwargs):
    builder = (
        Scenario.builder()
        .random_workload(seed=17, params=PARAMS)
        .combo(combo)
        .duration(15.0)
        .seed(5)
        .arrival_batching(batching)
    )
    for name, value in kwargs.items():
        builder = getattr(builder, name)(*value if isinstance(value, tuple) else (value,))
    return builder.build()


class TestMiddlewareBatching:
    def test_batched_arrivals_drain_through_batch_calls(self):
        session = Session(_scenario(burst=(4.0, 30, None, 1e-4)))
        result = session.run()
        ac = session.system.ac
        assert ac.batch_calls > 0
        assert ac.batched_arrivals >= ac.batch_calls
        # Every arrival was decided exactly once.
        assert result.released_jobs + result.rejected_jobs <= result.arrived_jobs
        assert result.released_jobs > 0

    def test_per_task_strategy_caches_through_the_batch_path(self):
        session = Session(_scenario(combo="T_N_N"))
        session.run()
        ac = session.system.ac
        assert ac.batch_calls > 0
        # AC-per-Task: periodic tasks carry a cached decision after their
        # first arrival (aperiodic tasks are always tested per arrival,
        # so their records legitimately stay undecided).
        workload = session.system.workload
        periodic = {t.task_id for t in workload.tasks if t.is_periodic}
        assert periodic
        for task_id in periodic:
            record = ac._records.get(task_id)
            if record is not None:
                assert record.admitted is not None

    def test_same_periodic_task_twice_in_one_batch_defers_to_cache(self):
        """Regression: under AC-per-Task, a burst delivering several jobs
        of one periodic task into a single drained batch must not stage
        duplicate RESERVED ledger keys — later jobs wait for the first
        job's cached decision, as the sequential path would."""
        workload = Session(_scenario()).deploy().workload  # reuse generator
        periodic = next(t for t in workload.tasks if t.is_periodic)
        scenario = (
            Scenario.builder()
            .random_workload(seed=17, params=PARAMS)
            .combo("T_N_N")
            .duration(10.0)
            .seed(5)
            .arrival_batching()
            .burst(0.0, 5, task_id=periodic.task_id, spacing=1e-9)
            .build()
        )
        session = Session(scenario)
        result = session.run()  # used to raise SchedulingError
        ac = session.system.ac
        assert ac.batch_calls > 0
        record = ac._records[periodic.task_id]
        assert record.admitted is not None
        assert result.released_jobs + result.rejected_jobs > 0

    def test_lb_combos_place_through_batch_sessions(self):
        session = Session(_scenario(combo="J_J_J", burst=(4.0, 30, None, 1e-4)))
        result = session.run()
        ac = session.system.ac
        lb = session.system.lb
        # The queue drains in batches and placements run through the
        # batch admission session, which opens one session per segment.
        assert ac.batch_calls > 0
        assert lb.location_calls > 0
        assert 0 < ac.analyzer.batch_sessions <= ac.batch_calls
        assert result.released_jobs > 0

    @pytest.mark.parametrize("batching", [False, True])
    def test_one_analyzer_test_per_decision(self, batching):
        """The LB only plans and the AC tests each plan once: on a light
        AC-per-job + LB-per-job run every decision costs exactly one AUB
        test, sequential or batched (no relocations under AC per job)."""
        session = Session(_scenario(combo="J_N_J", batching=batching, trace=True))
        session.run()
        ac = session.system.ac
        reasons = {
            record.get("reason")
            for record in session.system.tracer.by_category("ac.reject")
        }
        # A job that expired in the AC queue is decided without a test.
        assert reasons <= {AUB_REJECT}
        assert ac.admitted_jobs > 0
        assert ac.analyzer.tests_performed == ac.admitted_jobs + ac.rejected_jobs

    @pytest.mark.parametrize("combo", ["J_J_J", "T_T_T", "T_T_J", "J_N_T"])
    def test_lb_batching_matches_sequential_decisions(self, combo):
        """Batched LB placement is bit-identical to the sequential path:
        same admitted/rejected/released counts on the same trace."""
        outcomes = []
        for batching in (False, True):
            session = Session(
                _scenario(
                    combo=combo,
                    batching=batching,
                    burst=(4.0, 30, None, 1e-4),
                )
            )
            result = session.run()
            ac = session.system.ac
            outcomes.append(
                (
                    ac.admitted_jobs,
                    ac.rejected_jobs,
                    result.released_jobs,
                    result.final_synthetic_utilization,
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_batching_preserves_admission_accounting(self):
        """On/off runs agree on the ledger bookkeeping invariants."""
        for batching in (False, True):
            session = Session(_scenario(batching=batching))
            result = session.run()
            # Synthetic utilization fully drains after the run (drain
            # window covers the longest deadline).
            for node, value in result.final_synthetic_utilization.items():
                assert value == pytest.approx(0.0, abs=1e-9), (
                    f"batching={batching}: residue on {node}"
                )

    def test_distributed_engine_supports_batching(self):
        scenario = (
            Scenario.builder()
            .random_workload(seed=17, params=PARAMS)
            .distributed()
            .duration(10.0)
            .seed(5)
            .arrival_batching()
            .build()
        )
        session = Session(scenario)
        result = session.run()
        assert sum(ac.batch_calls for ac in session.system.acs.values()) > 0
        assert result.released_jobs > 0


def _generated_scenario(rng, combo):
    """A fault-free centralized scenario builder drawn from ``rng``: a
    small random workload with short deadlines, so drains are frequent."""
    params = RandomWorkloadParams(
        n_periodic=rng.randint(2, 5),
        n_aperiodic=rng.randint(1, 4),
        n_processors=rng.randint(2, 4),
        max_subtasks=3,
        max_deadline=2.0,
        target_utilization=rng.uniform(0.3, 0.9),
    )
    return (
        Scenario.builder()
        .random_workload(seed=rng.randrange(10**6), params=params)
        .combo(combo)
        .duration(20.0)
        .seed(rng.randrange(10**6))
    )


class TestBatchedEqualsSequential:
    """The AC's two entry points, pinned to each other.

    Where no drain decided more than one arrival
    (``batched_arrivals == batch_calls``), the batched run must give the
    byte-identical RunResult of the sequential one.  The precondition is
    checked, not assumed: arrivals at distinct times still share a drain
    when they queue behind a busy dispatch thread, and such a drain
    decides the later arrivals earlier than the sequential path would.
    """

    EXAMPLES = 8

    @pytest.mark.parametrize("combo", COMBOS)
    def test_generated_scenarios(self, combo):
        compared = 0
        for k in range(self.EXAMPLES):
            rng = random.Random(COMBOS.index(combo) * 1000 + k)
            builder = _generated_scenario(rng, combo)
            sequential = Session(builder.arrival_batching(False).build()).run()
            session = Session(builder.arrival_batching(True).build())
            batched = session.run()
            ac = session.system.ac
            assert ac.batch_calls > 0
            if ac.batched_arrivals != ac.batch_calls:
                continue
            compared += 1
            assert batched.to_json_str() == sequential.to_json_str(), (
                f"{combo} example {k}: batched and sequential runs differ"
            )
        # Most examples must meet the precondition, or the test is vacuous.
        assert compared > self.EXAMPLES // 2


class TestBatchingValidation:
    def test_replay_engine_rejects_arrival_batching(self):
        with pytest.raises(ConfigurationError, match="arrival_batching"):
            (
                Scenario.builder()
                .random_workload(seed=1, params=PARAMS)
                .replay("aub")
                .arrival_batching()
                .build()
            )

    def test_round_trip_preserves_flag(self):
        scenario = _scenario()
        assert scenario.arrival_batching
        restored = Scenario.from_json_str(scenario.to_json_str())
        assert restored == scenario
        # Default-off scenarios omit the key entirely (format stability).
        assert "arrival_batching" not in _scenario(batching=False).to_json()
