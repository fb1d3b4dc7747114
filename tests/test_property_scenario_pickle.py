"""Property test: builder-produced Scenarios survive process boundaries.

Scenarios are the unit of work handed to worker processes (suite runs
pickle them into cells), so *every* value the fluent builder can produce
must (a) pickle-round-trip to an equal value and (b) re-serialize to
byte-identical pickle and JSON forms — otherwise which process built the
scenario would become observable.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.core.cost_model import CostModel
from repro.net.latency import ConstantDelay, NormalDelay, TriangularDelay, UniformDelay

COMBOS = ("T_T_T", "T_N_N", "J_J_J", "J_N_N", "default", "paper-best")
POLICIES = ("aub", "deferrable_server")

seeds = st.integers(min_value=0, max_value=2**31 - 1)
durations = st.floats(
    min_value=1.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)


node_names = st.sampled_from(("n1", "n2", "n3", "n4"))

jitters = st.just(0.0) | st.floats(0.0, 0.99, allow_nan=False)
cost_models = st.one_of(
    st.builds(CostModel, jitter=jitters),
    st.just(CostModel.zero()),
    st.builds(
        lambda jitter, factor: CostModel(jitter=jitter).scaled(factor),
        jitters,
        st.floats(0.0, 4.0, allow_nan=False),
    ),
)

delays = st.floats(0.0, 1e-3, allow_nan=False)
delay_models = st.one_of(
    st.builds(ConstantDelay, delays),
    st.builds(lambda a, b: UniformDelay(*sorted((a, b))), delays, delays),
    st.builds(
        lambda a, b, c: TriangularDelay(*sorted((a, b, c))), delays, delays, delays
    ),
    st.builds(NormalDelay, delays, delays, delays),
)


def _draw_fault(draw, builder) -> None:
    """Append one random fault disturbance via its builder method."""
    kind = draw(st.sampled_from(
        ("node_crash", "partition", "delay_spike", "message_loss")
    ))
    start = draw(st.floats(0.0, 100.0, allow_nan=False))
    span = draw(st.floats(0.1, 50.0, allow_nan=False))
    if kind == "node_crash":
        builder.node_crash(
            node=draw(node_names),
            time=start,
            recovery=start + span if draw(st.booleans()) else None,
        )
    elif kind == "partition":
        builder.partition(
            time=start,
            heal=start + span,
            group_a=("n1",),
            group_b=draw(st.sampled_from((("n2",), ("n2", "n3")))),
        )
    elif kind == "delay_spike":
        builder.delay_spike(
            time=start,
            until=start + span,
            factor=draw(st.floats(0.1, 10.0, allow_nan=False)),
        )
    else:
        builder.message_loss(
            probability=draw(st.floats(0.01, 1.0, allow_nan=False)),
            time=start,
            until=start + span if draw(st.booleans()) else None,
            stream=draw(st.sampled_from(("message_loss", "chaos_loss"))),
        )


@st.composite
def scenarios(draw) -> Scenario:
    builder = Scenario.builder()
    if draw(st.booleans()):
        builder.random_workload(draw(seeds), index=draw(st.integers(0, 4)))
    else:
        builder.imbalanced_workload(draw(seeds), index=draw(st.integers(0, 4)))
    engine = draw(st.sampled_from(("middleware", "distributed", "replay")))
    if engine == "distributed":
        builder.distributed()
        # Fault (chaos) disturbances are distributed-engine features.
        for _ in range(draw(st.integers(0, 2))):
            _draw_fault(draw, builder)
    elif engine == "replay":
        builder.replay(draw(st.sampled_from(POLICIES)))
    else:
        builder.combo(draw(st.sampled_from(COMBOS)))
        # Disturbances and tracing are middleware-engine-only features.
        for i in range(draw(st.integers(0, 2))):
            if draw(st.booleans()):
                builder.burst(
                    time=draw(st.floats(0.0, 100.0, allow_nan=False)),
                    jobs=draw(st.integers(1, 50)),
                    base_index=100_000 + 1_000 * i,
                )
            else:
                builder.slowdown(
                    time=draw(st.floats(0.0, 100.0, allow_nan=False)),
                    factor=draw(st.floats(0.1, 4.0, allow_nan=False)),
                )
        if draw(st.booleans()):
            builder.trace()
        if draw(st.booleans()):
            # The one fault disturbance the middleware engine accepts.
            start = draw(st.floats(0.0, 100.0, allow_nan=False))
            builder.delay_spike(
                time=start,
                until=start + draw(st.floats(0.1, 50.0, allow_nan=False)),
                factor=draw(st.floats(0.1, 10.0, allow_nan=False)),
            )
    if engine != "replay":
        # Replay scenarios are overhead-free: no cost or delay model.
        if draw(st.booleans()):
            builder.cost_model(draw(cost_models))
        if draw(st.booleans()):
            builder.delay_model(draw(delay_models))
    builder.duration(draw(durations))
    builder.seed(draw(seeds))
    if draw(st.booleans()):
        builder.interarrival_factor(draw(st.floats(0.5, 16.0, allow_nan=False)))
    if draw(st.booleans()):
        builder.drain(draw(st.booleans()))
    if draw(st.booleans()):
        builder.label(draw(st.text(min_size=1, max_size=12)))
    return builder.build()


@given(scenarios())
@settings(max_examples=80, deadline=None)
def test_scenario_pickle_round_trips_to_equal_value(scenario):
    blob = pickle.dumps(scenario, protocol=pickle.HIGHEST_PROTOCOL)
    restored = pickle.loads(blob)
    assert restored == scenario
    # Re-serialization is bit-identical: the unpickled copy is
    # structurally indistinguishable from the original.
    assert pickle.dumps(restored, protocol=pickle.HIGHEST_PROTOCOL) == blob


@given(scenarios())
@settings(max_examples=80, deadline=None)
def test_scenario_json_form_is_stable_across_pickling(scenario):
    restored = pickle.loads(pickle.dumps(scenario))
    assert restored.to_json_str() == scenario.to_json_str()
    # And the JSON form itself round-trips to the same scenario.
    assert Scenario.from_json_str(scenario.to_json_str()) == scenario
