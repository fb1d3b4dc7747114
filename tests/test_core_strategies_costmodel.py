"""Unit tests for strategy combinations and the cost model."""

import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cost_model import (
    CostModel,
    OP_ADMISSION_TEST,
    OP_HOLD_AND_PUSH,
    OP_IR_REPORT,
    OP_IR_UPDATE,
    OP_LB_PLAN,
    OP_RELEASE,
    OP_RELEASE_DUPLICATE,
)
from repro.core.strategies import (
    ACStrategy,
    IRStrategy,
    LBStrategy,
    StrategyCombo,
    all_combinations,
    valid_combinations,
)
from repro.errors import ConfigurationError, InvalidStrategyCombination
from repro.sim.kernel import USEC


# ----------------------------------------------------------------------
# Strategy combinations (paper section 4.5)
# ----------------------------------------------------------------------
class TestStrategyCombo:
    def test_eighteen_total_combinations(self):
        assert len(all_combinations()) == 18

    def test_fifteen_valid_combinations(self):
        assert len(valid_combinations()) == 15

    def test_exactly_the_ac_task_ir_job_combos_are_invalid(self):
        invalid = [c for c in all_combinations() if not c.is_valid]
        assert len(invalid) == 3
        for combo in invalid:
            assert combo.ac is ACStrategy.PER_TASK
            assert combo.ir is IRStrategy.PER_JOB

    def test_paper_figure_order(self):
        labels = [c.label for c in valid_combinations()]
        assert labels == [
            "T_N_N", "T_N_T", "T_N_J",
            "T_T_N", "T_T_T", "T_T_J",
            "J_N_N", "J_N_T", "J_N_J",
            "J_T_N", "J_T_T", "J_T_J",
            "J_J_N", "J_J_T", "J_J_J",
        ]

    def test_validate_raises_for_invalid(self):
        combo = StrategyCombo(
            ACStrategy.PER_TASK, IRStrategy.PER_JOB, LBStrategy.NONE
        )
        with pytest.raises(InvalidStrategyCombination):
            combo.validate()

    def test_validate_returns_self_for_valid(self):
        combo = StrategyCombo.from_label("J_J_J")
        assert combo.validate() is combo

    def test_label_roundtrip(self):
        for combo in all_combinations():
            assert StrategyCombo.from_label(combo.label) == combo

    def test_from_label_case_insensitive(self):
        assert StrategyCombo.from_label("j_t_n").label == "J_T_N"

    def test_from_label_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            StrategyCombo.from_label("X_Y_Z")
        with pytest.raises(ConfigurationError):
            StrategyCombo.from_label("J_T")
        with pytest.raises(ConfigurationError):
            StrategyCombo.from_label("N_T_J")  # AC cannot be N

    def test_str_is_label(self):
        assert str(StrategyCombo.from_label("T_N_J")) == "T_N_J"


# ----------------------------------------------------------------------
# Cost model (paper Figures 7/8 calibration)
# ----------------------------------------------------------------------
class TestCostModel:
    def test_default_decompositions_match_paper_means(self):
        cm = CostModel()
        comm = 322 * USEC
        # AC without LB: 1 + 2 + 4 + 2 + 5 = 1114 us
        total = cm.hold_and_push + comm + cm.admission_test + comm + cm.release
        assert total == pytest.approx(1114 * USEC, rel=1e-6)
        # AC with LB, no re-allocation: 1 + 2 + 3 + 2 + 5 = 1116 us
        total = cm.hold_and_push + comm + cm.lb_plan + comm + cm.release
        assert total == pytest.approx(1116 * USEC, rel=1e-6)
        # AC with LB, re-allocation: 1 + 2 + 3 + 2 + 6 = 1201 us
        total = cm.hold_and_push + comm + cm.lb_plan + comm + cm.release_duplicate
        assert total == pytest.approx(1201 * USEC, rel=1e-6)
        # IR rows
        assert cm.ir_update == pytest.approx(17 * USEC)
        assert cm.ir_report + comm == pytest.approx(662 * USEC)

    def test_all_operations_below_two_ms(self):
        cm = CostModel()
        assert all(v < 2e-3 for v in cm.as_dict().values())

    def test_sample_jitter_within_bounds(self):
        cm = CostModel(jitter=0.1)
        r = random.Random(0)
        for _ in range(200):
            s = cm.sample(OP_ADMISSION_TEST, r)
            assert 0.9 * cm.admission_test <= s <= 1.1 * cm.admission_test

    def test_zero_model(self):
        cm = CostModel.zero()
        r = random.Random(0)
        for op in (
            OP_HOLD_AND_PUSH,
            OP_LB_PLAN,
            OP_ADMISSION_TEST,
            OP_RELEASE,
            OP_RELEASE_DUPLICATE,
            OP_IR_REPORT,
            OP_IR_UPDATE,
        ):
            assert cm.sample(op, r) == 0.0

    def test_no_jitter_means_exact(self):
        cm = CostModel(jitter=0.0)
        r = random.Random(0)
        assert cm.sample(OP_RELEASE, r) == cm.release

    def test_unknown_operation_rejected(self):
        cm = CostModel()
        with pytest.raises(ConfigurationError):
            cm.mean("warp_drive")
        for model in (cm, CostModel.zero()):
            with pytest.raises(ConfigurationError):
                model.sample("warp_drive", random.Random(0))

    @given(
        mean=st.just(0.0) | st.floats(min_value=0.0, max_value=1e-2),
        jitter=st.just(0.0)
        | st.floats(min_value=0.0, max_value=0.99, exclude_max=True),
        op=st.sampled_from(sorted(CostModel().as_dict())),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    # Subnormal mean: the bounds round to one value, and the stdlib draws
    # once before returning it.
    @example(mean=5e-324, jitter=0.5, op=OP_RELEASE, seed=0)
    @settings(max_examples=400, deadline=None)
    def test_sample_is_stdlib_triangular_bit_for_bit(self, mean, jitter, op, seed):
        """The precomputed draw equals ``random.triangular`` bit for bit
        (or is the undrawn mean), and leaves the generator where the
        stdlib call does."""
        cm = CostModel(**{op: mean}, jitter=jitter)
        drawn, oracle = random.Random(seed), random.Random(seed)
        sample = cm.sample(op, drawn)
        if jitter == 0 or mean == 0:
            expected = mean
        else:
            expected = oracle.triangular(
                mean * (1.0 - jitter), mean * (1.0 + jitter), mean
            )
        assert sample.hex() == expected.hex()
        assert drawn.random() == oracle.random()

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(release=-1.0)

    def test_bad_jitter_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(jitter=1.0)

    def test_scaled(self):
        cm = CostModel().scaled(2.0)
        assert cm.admission_test == pytest.approx(400 * USEC)
        with pytest.raises(ConfigurationError):
            CostModel().scaled(-1.0)

    @pytest.mark.parametrize(
        "model",
        [CostModel(), CostModel.zero(), CostModel().scaled(1.7), CostModel(jitter=0.0)],
        ids=["default", "zero", "scaled", "jitter-0"],
    )
    def test_pickled_copy_repickles_to_the_same_bytes(self, model):
        """A pickled copy equals the original, pickles to the same bytes
        (what the run_cells canary checks) and draws the same samples."""
        blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        copy = pickle.loads(blob)
        assert copy == model
        assert pickle.dumps(copy, protocol=pickle.HIGHEST_PROTOCOL) == blob
        for op in sorted(model.as_dict()):
            drawn, oracle = random.Random(11), random.Random(11)
            for _ in range(3):
                assert copy.sample(op, drawn).hex() == model.sample(op, oracle).hex()
