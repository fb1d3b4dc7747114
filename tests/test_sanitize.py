"""Runtime determinism sanitizer (REPRO_SANITIZE=1): arming + fault injection.

The positive half proves the sanitizer is pure observation: a full API run
under ``REPRO_SANITIZE=1`` completes with zero violations and produces a
bit-identical result to the unsanitized run.  The negative half injects a
deliberate fault behind each of the four checks and requires the exact
:class:`~repro.sanitize.SanitizeViolation` to fire — a sanitizer that
cannot catch its target bug is just overhead.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import Scenario, Session
from repro.sanitize import (
    LedgerShadow,
    RngDrawLedger,
    SanitizeViolation,
    pickle_canary,
)
from repro.sched import aub
from repro.sched.aub import (
    AubAnalyzer,
    SyntheticUtilizationLedger,
)
from repro.sim.rng import RngRegistry


@pytest.fixture
def sanitize(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


def _scenario() -> Scenario:
    return (
        Scenario.builder()
        .random_workload(seed=7)
        .combo("T_T_T")
        .duration(40.0)
        .seed(7)
        .build()
    )


# ----------------------------------------------------------------------
# Positive: sanitizer on == sanitizer off, zero violations
# ----------------------------------------------------------------------
class TestSanitizedRunIsObservationOnly:
    def test_full_run_matches_unsanitized_bit_for_bit(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plain = Session(_scenario()).run()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitized = Session(_scenario()).run()
        assert (
            sanitized.accepted_utilization_ratio
            == plain.accepted_utilization_ratio
        )
        assert sanitized.completed_jobs == plain.completed_jobs
        assert sanitized.deadline_misses == plain.deadline_misses
        assert sanitized.cpu_utilization == plain.cpu_utilization
        assert (
            sanitized.final_synthetic_utilization
            == plain.final_synthetic_utilization
        )

    def test_rng_registry_attributes_all_run_draws(self, sanitize):
        # The middleware run audits its registry at result time; reaching
        # here without SanitizeViolation means every draw was attributed.
        result = Session(_scenario()).run()
        assert 0.0 < result.accepted_utilization_ratio <= 1.0


# ----------------------------------------------------------------------
# Negative 1: pickle canary
# ----------------------------------------------------------------------
class TestPickleCanary:
    def test_clean_payload_passes(self):
        pickle_canary(("cell", 0, (1.0, 2.0)), "test payload")

    def test_unpicklable_payload_is_reported(self):
        with pytest.raises(SanitizeViolation, match="not picklable"):
            pickle_canary(threading.Lock(), "test payload")

    def test_run_cells_canary_rejects_lock_in_cell(self, sanitize):
        from repro.experiments.runner import run_cells

        cells = [(0, threading.Lock())]
        with pytest.raises(SanitizeViolation, match="run_cells cell #0"):
            run_cells(_square_cell, cells, n_workers=1)

    def test_run_cells_clean_payload_still_runs(self, sanitize):
        from repro.experiments.runner import run_cells

        assert run_cells(_square_cell, [(0, 2), (1, 3)], n_workers=1) == [
            4,
            9,
        ]


def _square_cell(index, value):
    return value**2


# ----------------------------------------------------------------------
# Negative 2: ledger shard vs unsharded shadow
# ----------------------------------------------------------------------
class TestLedgerShadow:
    def test_tampered_shard_total_is_caught_on_next_mutation(self, sanitize):
        ledger = SyntheticUtilizationLedger(["n1", "n2"])
        ledger.add("n1", ("t1", 0, 0), 0.2)
        ledger._shards["n1"].total += 0.5  # the injected bookkeeping bug
        with pytest.raises(SanitizeViolation, match="drifted"):
            ledger.add("n1", ("t1", 1, 0), 0.1)

    def test_tampered_contribution_value_is_caught(self, sanitize):
        ledger = SyntheticUtilizationLedger(["n1"])
        ledger.add("n1", ("t1", 0, 0), 0.2)
        shard = ledger._shards["n1"]
        shard.contribs[("t1", 0, 0)] = 0.3
        shard.total = 0.3
        with pytest.raises(SanitizeViolation, match="shadow recorded"):
            ledger.add("n1", ("t1", 1, 0), 0.1)

    def test_shadow_verify_rejects_leaked_key(self):
        shadow = LedgerShadow()
        shadow.add("n1", ("t1", 0, 0), 0.2)
        with pytest.raises(SanitizeViolation, match="unexpected keys"):
            shadow.verify_shard(
                "n1",
                {("t1", 0, 0): 0.2, ("t9", 0, 0): 0.1},
                0.3,
            )

    def test_without_sanitize_tampering_goes_unnoticed(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        ledger = SyntheticUtilizationLedger(["n1"])
        ledger.add("n1", ("t1", 0, 0), 0.2)
        ledger._shards["n1"].total += 0.5
        ledger.add("n1", ("t1", 1, 0), 0.1)  # no shadow, no violation


# ----------------------------------------------------------------------
# Negative 3: analyzer cached terms vs fresh recompute
# ----------------------------------------------------------------------
class TestAnalyzerCacheAudit:
    def test_tampered_node_term_is_caught_on_admission(self, sanitize):
        ledger = SyntheticUtilizationLedger(["n1", "n2"])
        analyzer = AubAnalyzer(ledger)
        analyzer.register(("t1", 0), ["n1", "n2"], expiry=None)
        assert analyzer.admissible(["n1"], {"n1": 0.1}, now=0.0)
        analyzer._node_terms["n1"] = 0.123  # the injected stale cache
        with pytest.raises(SanitizeViolation, match="cached f\\(U\\)"):
            analyzer.admissible(["n1"], {"n1": 0.1}, now=1.0)

    def test_wrong_violator_set_is_caught(self, sanitize, monkeypatch):
        ledger = SyntheticUtilizationLedger(["n1", "n2"])
        analyzer = AubAnalyzer(ledger)
        # An untested add leaves t1 over the bound: f(0.7) > 1.
        ledger.add("n1", ("t1", 0, 0), 0.7)
        analyzer.register(("t1", 0), ["n1"], expiry=None)
        burst = [(["n2"], [("n2", 0.1)])]
        assert analyzer.admissible_batch(burst, now=0.0) == [False]
        # The injected screen bug: a guard that clears routes over the
        # bound, so the screen names no violator.
        monkeypatch.setattr(aub, "SCREEN_GUARD", -1.0)
        with pytest.raises(SanitizeViolation, match="violators"):
            analyzer.admissible_batch(burst, now=1.0)

    @pytest.mark.skipif(aub._np is None, reason="the rows need numpy")
    def test_tampered_visit_count_row_is_caught(self, sanitize):
        ledger = SyntheticUtilizationLedger(["n1", "n2"])
        analyzer = AubAnalyzer(ledger)
        analyzer.register(("t1", 0), ["n1", "n2"], expiry=None)
        analyzer.register(("t2", 0), ["n2"], expiry=None)
        burst = [(["n1"], [("n1", 0.1)])]
        # The first burst screen builds the rows.
        assert analyzer.admissible_batch(burst, now=0.0) == [True]
        # The injected stale row: t1's visit to n1 goes uncounted.
        analyzer._rows[analyzer._row_of[("t1", 0)], 0] = 0.0
        with pytest.raises(SanitizeViolation, match="visit-count row"):
            analyzer.admissible_batch(burst, now=1.0)

    @pytest.mark.skipif(aub._np is None, reason="the rows need numpy")
    def test_nonzero_free_row_is_caught(self, sanitize):
        ledger = SyntheticUtilizationLedger(["n1", "n2"])
        analyzer = AubAnalyzer(ledger)
        analyzer.register(("t1", 0), ["n1", "n2"], expiry=None)
        session = analyzer.batch_session(0.0, {"n1": 0.1})
        assert session.try_admit(["n1"], [("n1", 0.1)])
        row = analyzer._row_of[("t1", 0)]
        analyzer.unregister(("t1", 0))
        analyzer._rows[row, 1] = 1.0  # a freed row left holding a count
        with pytest.raises(SanitizeViolation, match="holds no registration"):
            analyzer.batch_session(1.0, {"n1": 0.1})

    def test_clean_analyzer_is_silent(self, sanitize):
        ledger = SyntheticUtilizationLedger(["n1"])
        analyzer = AubAnalyzer(ledger)
        analyzer.register(("t1", 0), ["n1"], expiry=None)
        ledger.add("n1", ("t1", 0, 0), 0.2)
        for step in range(5):
            analyzer.admissible(["n1"], {"n1": 0.05}, now=float(step))


# ----------------------------------------------------------------------
# Negative 4: RNG draw attribution
# ----------------------------------------------------------------------
class TestRngDrawAttribution:
    def test_ambient_draw_fails_the_audit(self, sanitize):
        rngs = RngRegistry(1)
        rngs.stream("arrivals").random()  # attributed
        rngs._streams["arrivals"].random()  # behind the wrapper's back
        with pytest.raises(SanitizeViolation, match="unattributed"):
            rngs.audit()

    def test_distributed_run_audits_its_registry(self, sanitize):
        scenario = (
            Scenario.builder().random_workload(seed=7).distributed()
            .duration(5.0).seed(7).build()
        )
        session = Session(scenario)
        system = session.deploy()
        # Behind the wrapper's back, after the run drew its arrivals.
        system.sim.schedule_at(
            1.0, lambda: system.rngs._streams["arrivals"].random()
        )
        with pytest.raises(SanitizeViolation, match="'arrivals'"):
            session.run()

    def test_attributed_draws_audit_clean(self, sanitize):
        rngs = RngRegistry(1)
        stream = rngs.stream("arrivals")
        for _ in range(10):
            stream.random()
        stream.gauss(0.0, 1.0)
        rngs.stream("network").uniform(0.0, 1.0)
        rngs.audit()
        assert rngs.draw_ledger is not None
        assert rngs.draw_ledger.counts["arrivals"] == 11
        assert rngs.draw_ledger.counts["network"] == 1

    def test_audited_streams_reproduce_unsanitized_sequences(
        self, monkeypatch
    ):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plain = [RngRegistry(3).stream("s").random() for _ in range(1)]
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        audited = [RngRegistry(3).stream("s").random() for _ in range(1)]
        assert plain == audited

    def test_ledger_audit_reports_the_offending_stream(self):
        ledger = RngDrawLedger()
        ledger.baseline("a", state=(1, 2))
        ledger.baseline("b", state=(3, 4))
        with pytest.raises(SanitizeViolation, match=r"\['b'\]"):
            ledger.audit([("a", (1, 2)), ("b", (9, 9))])
