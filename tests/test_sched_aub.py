"""Unit tests for AUB analysis: term, ledger, analyzer."""

import math

import pytest

from repro.errors import SchedulingError
from repro.sched import aub
from repro.sched.aub import (
    RESERVED,
    AubAnalyzer,
    SyntheticUtilizationLedger,
    aub_term,
    aub_term_inverse,
    task_condition_holds,
)

from tests.aub_oracle import NaiveAubAnalyzer


# ----------------------------------------------------------------------
# aub_term — the f(u) = u(1-u/2)/(1-u) term of condition (1)
# ----------------------------------------------------------------------
class TestAubTerm:
    def test_zero(self):
        assert aub_term(0.0) == 0.0

    def test_known_value(self):
        # f(0.5) = 0.5 * 0.75 / 0.5 = 0.75
        assert aub_term(0.5) == pytest.approx(0.75)

    def test_monotonically_increasing(self):
        values = [aub_term(u / 100) for u in range(0, 100)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_saturation_gives_infinity(self):
        assert aub_term(1.0) == math.inf
        assert aub_term(1.5) == math.inf

    def test_negative_rejected(self):
        with pytest.raises(SchedulingError):
            aub_term(-0.1)

    def test_single_stage_bound(self):
        # For a single-stage task, f(u) <= 1 iff u <= 2 - sqrt(2) ~ 0.586
        # (the classic aperiodic utilization bound for one processor).
        bound = 2 - math.sqrt(2)
        assert aub_term(bound) == pytest.approx(1.0, abs=1e-9)
        assert task_condition_holds([bound - 1e-9])
        assert not task_condition_holds([bound + 1e-6])


class TestAubTermInverse:
    def test_zero(self):
        assert aub_term_inverse(0.0) == 0.0

    def test_infinity_maps_to_saturation(self):
        assert aub_term_inverse(math.inf) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(SchedulingError):
            aub_term_inverse(-1e-6)

    def test_round_trip_small_and_moderate(self):
        for t in (1e-12, 1e-6, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3, 1e6):
            u = aub_term_inverse(t)
            assert 0.0 <= u < 1.0
            assert aub_term(u) == pytest.approx(t, rel=1e-9)

    def test_large_t_no_catastrophic_cancellation(self):
        # The old form (1+t) - sqrt((1+t)^2 - 2t) collapses to exactly 1.0
        # (and f then to +inf) once t reaches ~1e8; the conjugate form must
        # stay strictly below 1 and keep the round trip tight far beyond.
        for t in (1e8, 1e10, 1e12):
            u = aub_term_inverse(t)
            assert u < 1.0, f"inverse saturated at t={t}"
            # Round-trip error is dominated by representing u near 1 (the
            # irreducible part); it must stay tiny, not blow up to inf.
            assert aub_term(u) == pytest.approx(t, rel=1e-3)
        # Even at 1e15 the inverse stays below 1 and f stays finite.
        u = aub_term_inverse(1e15)
        assert u < 1.0
        assert math.isfinite(aub_term(u))

    def test_inverse_round_trip_from_utilization(self):
        for u in (0.0, 0.1, 0.3, 0.586, 0.9, 0.99, 0.9999):
            assert aub_term_inverse(aub_term(u)) == pytest.approx(u, rel=1e-9)

    def test_monotone_in_t(self):
        values = [aub_term_inverse(10.0 ** k) for k in range(-3, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestTaskCondition:
    def test_empty_visits_hold(self):
        assert task_condition_holds([])

    def test_multi_stage_sum(self):
        # Two stages at 0.5: 0.75 + 0.75 = 1.5 > 1 -> fails.
        assert not task_condition_holds([0.5, 0.5])
        # Two stages at 0.3: f(0.3) = 0.3*0.85/0.7 ~ 0.364 -> 0.729 <= 1.
        assert task_condition_holds([0.3, 0.3])

    def test_saturated_stage_fails(self):
        assert not task_condition_holds([1.0])


# ----------------------------------------------------------------------
# SyntheticUtilizationLedger
# ----------------------------------------------------------------------
class TestLedger:
    def make(self, track_time=False):
        return SyntheticUtilizationLedger(["a", "b"], track_time=track_time)

    def test_starts_empty(self):
        ledger = self.make()
        assert ledger.utilization("a") == 0.0
        assert ledger.snapshot() == {"a": 0.0, "b": 0.0}

    def test_add_accrues(self):
        ledger = self.make()
        ledger.add("a", ("T", 0, 0), 0.2)
        ledger.add("a", ("T", 0, 1), 0.1)
        assert ledger.utilization("a") == pytest.approx(0.3)
        assert ledger.utilization("b") == 0.0

    def test_duplicate_key_rejected(self):
        ledger = self.make()
        ledger.add("a", ("T", 0, 0), 0.2)
        with pytest.raises(SchedulingError):
            ledger.add("a", ("T", 0, 0), 0.2)

    def test_same_key_different_nodes_allowed(self):
        ledger = self.make()
        ledger.add("a", ("T", 0, 0), 0.2)
        ledger.add("b", ("T", 0, 0), 0.2)
        assert ledger.utilization("b") == pytest.approx(0.2)

    def test_remove_returns_presence(self):
        ledger = self.make()
        ledger.add("a", ("T", 0, 0), 0.2)
        assert ledger.remove("a", ("T", 0, 0))
        assert not ledger.remove("a", ("T", 0, 0))
        assert ledger.utilization("a") == 0.0

    def test_negative_contribution_rejected(self):
        ledger = self.make()
        with pytest.raises(SchedulingError):
            ledger.add("a", ("T", 0, 0), -0.1)

    def test_unknown_node_rejected(self):
        ledger = self.make()
        with pytest.raises(SchedulingError):
            ledger.add("zz", ("T", 0, 0), 0.1)
        with pytest.raises(SchedulingError):
            ledger.utilization("zz")

    def test_contains(self):
        ledger = self.make()
        ledger.add("a", ("T", 0, 0), 0.2)
        assert ledger.contains("a", ("T", 0, 0))
        assert not ledger.contains("b", ("T", 0, 0))

    def test_contribution_count(self):
        ledger = self.make()
        ledger.add("a", ("T", 0, 0), 0.2)
        ledger.add("a", ("T", 1, 0), 0.2)
        assert ledger.contribution_count("a") == 2

    def test_time_weighted_average(self):
        ledger = self.make(track_time=True)
        ledger.add("a", ("T", 0, 0), 0.4, now=0.0)
        ledger.remove("a", ("T", 0, 0), now=5.0)
        assert ledger.average_utilization("a", 10.0) == pytest.approx(0.2)

    def test_average_requires_tracking(self):
        ledger = self.make(track_time=False)
        with pytest.raises(SchedulingError):
            ledger.average_utilization("a", 1.0)

    def test_needs_at_least_one_node(self):
        with pytest.raises(SchedulingError):
            SyntheticUtilizationLedger([])


# ----------------------------------------------------------------------
# AubAnalyzer
# ----------------------------------------------------------------------
class TestAnalyzer:
    def make(self):
        ledger = SyntheticUtilizationLedger(["a", "b"])
        return ledger, AubAnalyzer(ledger)

    def test_empty_system_admits_feasible_task(self):
        _ledger, analyzer = self.make()
        assert analyzer.admissible(["a"], {"a": 0.3}, now=0.0)

    def test_candidate_over_bound_rejected(self):
        _ledger, analyzer = self.make()
        # Two stages at 0.5 each on the same processor: U=1 -> saturated.
        assert not analyzer.admissible(["a", "a"], {"a": 1.0}, now=0.0)

    def test_existing_task_protected(self):
        ledger, analyzer = self.make()
        # Existing two-stage task at 0.3 per stage: sum f(0.3)*2 ~ 0.73.
        ledger.add("a", ("T1", 0, 0), 0.3)
        ledger.add("b", ("T1", 0, 1), 0.3)
        analyzer.register(("T1", 0), ["a", "b"], expiry=100.0)
        # Candidate pushing processor "a" to 0.75 would be fine for itself
        # (single stage: f(0.75) ~ 1.875 > 1 actually fails)...
        assert not analyzer.admissible(["a"], {"a": 0.45}, now=0.0)
        # A small candidate on "a" keeps everyone schedulable.
        assert analyzer.admissible(["a"], {"a": 0.1}, now=0.0)

    def test_candidate_rejected_when_it_breaks_existing_task(self):
        ledger, analyzer = self.make()
        # Existing task visits both processors at 0.4: 2*f(0.4) ~ 1.07 > 1?
        # f(0.4) = 0.4*0.8/0.6 = 0.5333 -> 1.067 > 1. Use 0.35 instead:
        # f(0.35) = 0.35*0.825/0.65 = 0.4442 -> 0.888 <= 1. OK.
        ledger.add("a", ("T1", 0, 0), 0.35)
        ledger.add("b", ("T1", 0, 1), 0.35)
        analyzer.register(("T1", 0), ["a", "b"], expiry=100.0)
        # Candidate only visits "a" and is fine alone, but pushes T1 over.
        # After adding 0.2 to "a": f(0.55)+f(0.35) = 0.886+0.444 = 1.33 > 1.
        assert not analyzer.admissible(["a"], {"a": 0.2}, now=0.0)

    def test_expired_registrations_pruned(self):
        ledger, analyzer = self.make()
        ledger.add("a", ("T1", 0, 0), 0.35)
        ledger.add("b", ("T1", 0, 1), 0.35)
        analyzer.register(("T1", 0), ["a", "b"], expiry=10.0)
        assert analyzer.registered == 1
        # After expiry (contributions would also have been removed).
        ledger.remove("a", ("T1", 0, 0))
        ledger.remove("b", ("T1", 0, 1))
        assert analyzer.admissible(["a"], {"a": 0.2}, now=11.0)
        assert analyzer.registered == 0

    def test_exclude_skips_relocating_task(self):
        ledger, analyzer = self.make()
        ledger.add("a", ("T1", RESERVED, 0), 0.5)
        analyzer.register(("T1", RESERVED), ["a"], expiry=None)
        # Moving T1 from "a" to "b": delta -0.5 on a, +0.5 on b.
        assert analyzer.admissible(
            ["b"], {"a": -0.5, "b": 0.5}, now=0.0, exclude=("T1", RESERVED)
        )

    def test_negative_delta_clamps_at_zero(self):
        _ledger, analyzer = self.make()
        # A bogus negative delta on an empty node must not produce a
        # negative utilization in the hypothetical totals.
        assert analyzer.admissible(["a"], {"a": -0.2}, now=0.0)

    def test_unregister(self):
        _ledger, analyzer = self.make()
        analyzer.register(("T1", 0), ["a"], expiry=None)
        analyzer.unregister(("T1", 0))
        assert analyzer.registered == 0

    def test_tests_performed_counter(self):
        _ledger, analyzer = self.make()
        analyzer.admissible(["a"], {"a": 0.1}, now=0.0)
        analyzer.admissible(["a"], {"a": 0.1}, now=0.0)
        assert analyzer.tests_performed == 2

    def test_reregister_replaces_previous_entry(self):
        ledger, analyzer = self.make()
        ledger.add("a", ("T1", RESERVED, 0), 0.4)
        analyzer.register(("T1", RESERVED), ["a"], expiry=None)
        # Relocate: the same key now visits "b" only.
        ledger.remove("a", ("T1", RESERVED, 0))
        ledger.add("b", ("T1", RESERVED, 0), 0.4)
        analyzer.register(("T1", RESERVED), ["b"], expiry=None)
        assert analyzer.registered == 1
        # A candidate saturating "a" is constrained only by itself now:
        # T1's condition must be evaluated against "b", not the stale "a".
        assert analyzer.admissible(["a"], {"a": 0.5}, now=0.0)
        # ...while a candidate pushing "b" over the bound still fails.
        assert not analyzer.admissible(["b"], {"b": 0.3}, now=0.0)

    def test_expiry_heap_ignores_stale_entries(self):
        ledger, analyzer = self.make()
        ledger.add("a", ("T1", 0, 0), 0.3)
        analyzer.register(("T1", 0), ["a"], expiry=5.0)
        # Re-register the same key with a later expiry; the stale heap
        # entry for t=5 must not retire the live registration.
        analyzer.register(("T1", 0), ["a"], expiry=50.0)
        analyzer.prune(10.0)
        assert analyzer.registered == 1
        analyzer.prune(60.0)
        assert analyzer.registered == 0


class TestIncrementalMatchesNaiveScripted:
    """Scripted parity checks between the incremental and naive analyzers
    (randomized sequences live in test_property_aub.py)."""

    def make_pair(self, nodes=("a", "b", "c")):
        ledger_i = SyntheticUtilizationLedger(nodes)
        ledger_n = SyntheticUtilizationLedger(nodes)
        return (ledger_i, AubAnalyzer(ledger_i)), (ledger_n, NaiveAubAnalyzer(ledger_n))

    def test_admit_expire_relocate_sequence(self):
        (ledger_i, inc), (ledger_n, nai) = self.make_pair()
        script = [
            (["a", "b"], {"a": 0.2, "b": 0.2}, 0.0, 10.0),
            (["b", "c"], {"b": 0.25, "c": 0.25}, 1.0, 4.0),
            (["a", "a"], {"a": 0.3}, 2.0, 8.0),
            (["c"], {"c": 0.5}, 3.0, 9.0),
            (["b"], {"b": 0.4}, 5.0, 12.0),   # after T1 expired at t=5
            (["a", "b", "c"], {"a": 0.1, "b": 0.1, "c": 0.1}, 6.0, 20.0),
        ]
        admitted = []
        for i, (visits, contribs, now, expiry) in enumerate(script):
            # Expire committed entries whose deadline passed, like the AC's
            # _expire_job events would.
            for key, nodes_used, t_exp in list(admitted):
                if t_exp <= now:
                    for j, node in enumerate(nodes_used):
                        ledger_i.remove(node, (key[0], key[1], j), now)
                        ledger_n.remove(node, (key[0], key[1], j), now)
                    inc.unregister(key)
                    nai.unregister(key)
                    admitted.remove((key, nodes_used, t_exp))
            got = inc.admissible(visits, contribs, now)
            want = nai.admissible(visits, contribs, now)
            assert got == want, f"step {i}: incremental={got} naive={want}"
            if got:
                key = (f"T{i}", 0)
                for j, node in enumerate(visits):
                    share = contribs[node] / sum(
                        1 for n in visits if n == node
                    )
                    ledger_i.add(node, (key[0], key[1], j), share, now)
                    ledger_n.add(node, (key[0], key[1], j), share, now)
                inc.register(key, list(visits), expiry)
                nai.register(key, list(visits), expiry)
                admitted.append((key, list(visits), expiry))
        assert inc.registered == nai.registered

    def test_relocation_with_exclude_matches(self):
        (ledger_i, inc), (ledger_n, nai) = self.make_pair()
        for ledger, analyzer in ((ledger_i, inc), (ledger_n, nai)):
            ledger.add("a", ("T1", RESERVED, 0), 0.5)
            analyzer.register(("T1", RESERVED), ["a"], None)
            ledger.add("b", ("T2", RESERVED, 0), 0.3)
            analyzer.register(("T2", RESERVED), ["b"], None)
        delta = {"a": -0.5, "b": 0.5}
        assert inc.admissible(
            ["b"], delta, now=0.0, exclude=("T1", RESERVED)
        ) == nai.admissible(["b"], delta, now=0.0, exclude=("T1", RESERVED))

    def test_idle_reset_style_removal_invalidate_caches(self):
        (ledger_i, inc), (ledger_n, nai) = self.make_pair()
        for ledger, analyzer in ((ledger_i, inc), (ledger_n, nai)):
            ledger.add("a", ("T1", 0, 0), 0.55)
            analyzer.register(("T1", 0), ["a"], 100.0)
        # Too heavy now on both:
        assert inc.admissible(["a"], {"a": 0.2}, 0.0) == nai.admissible(
            ["a"], {"a": 0.2}, 0.0
        )
        # An idle reset reclaims the contribution (ledger-only removal,
        # registration stays) — the cached terms must follow.
        ledger_i.remove("a", ("T1", 0, 0))
        ledger_n.remove("a", ("T1", 0, 0))
        got = inc.admissible(["a"], {"a": 0.2}, 0.0)
        assert got == nai.admissible(["a"], {"a": 0.2}, 0.0)
        assert got is True


# ----------------------------------------------------------------------
# The array-backed burst screen (numpy only)
# ----------------------------------------------------------------------
@pytest.mark.skipif(aub._np is None, reason="the array screen needs numpy")
class TestArrayScreen:
    NODES = ("a", "b", "c")

    def make(self):
        ledger = SyntheticUtilizationLedger(self.NODES)
        return ledger, AubAnalyzer(ledger)

    @staticmethod
    def commit(ledger, analyzer, key, stages, expiry=None):
        for j, (node, u) in enumerate(stages):
            ledger.add(node, (key[0], key[1], j), u)
        analyzer.register(key, [node for node, _u in stages], expiry)

    @staticmethod
    def rows(analyzer):
        """key -> its visit-count row, once the sanitizer's audit has
        checked every row (live ones against their visits, free ones
        for zero)."""
        analyzer._sanitize_audit_caches()
        return {
            key: analyzer._rows[row].tolist()
            for key, row in analyzer._row_of.items()
        }

    def test_saturated_node_keeps_rows_that_skip_it_on_watch(self):
        # Node a is saturated (term inf) and no registration visits it.
        # 0 * inf is NaN, which compares false: an unclamped product would
        # clear every row, including T1's, which a burst on b pushes over.
        ledger, analyzer = self.make()
        ledger.add("a", ("X", 0, 0), 1.0)
        self.commit(ledger, analyzer, ("T1", 0), [("b", 0.2), ("c", 0.35)])
        self.commit(ledger, analyzer, ("T2", 0), [("c", 0.05)])
        watch, violators, screen_terms = analyzer._screen_burst(
            {"b": aub_term(0.5)}
        )
        assert watch == {("T1", 0)}
        # T1 passes under the current terms: on watch, not a violator.
        assert violators == set()
        assert screen_terms == {
            "a": math.inf, "b": aub_term(0.5),
            "c": aub_term(ledger.utilization("c")),
        }
        # The candidate's own condition holds (f(0.5) = 0.75); T1's fails.
        burst = [(["b"], [("b", 0.3)])]
        assert analyzer.admissible_batch(burst, now=0.0) == [False]

    def test_burst_on_a_node_unknown_to_the_ledger_takes_the_loop(
        self, monkeypatch
    ):
        ledger, analyzer = self.make()
        naive = NaiveAubAnalyzer(ledger)
        self.commit(ledger, analyzer, ("T1", 0), [("a", 0.3), ("b", 0.3)])
        naive.register(("T1", 0), ["a", "b"], None)
        products = []
        screen_rows = AubAnalyzer._screen_rows

        def spy(self, *args):
            products.append(args)
            return screen_rows(self, *args)

        monkeypatch.setattr(AubAnalyzer, "_screen_rows", spy)
        outside = [(["a", "zz"], [("a", 0.1), ("zz", 0.2)])]
        assert analyzer.admissible_batch(outside, now=0.0) == (
            naive.admissible_batch(outside, now=0.0)
        )
        analyzer.batch_session(0.0, {"a": 0.1, "zz": 0.2})
        assert products == []
        inside = [(["a"], [("a", 0.1)])]
        assert analyzer.admissible_batch(inside, now=0.0) == (
            naive.admissible_batch(inside, now=0.0)
        )
        assert len(products) == 1

    def test_rows_are_reused_after_unregister_prune_and_reregister(self):
        ledger, analyzer = self.make()
        analyzer.register(("T1", 0), ["a", "b", "a"], None)
        analyzer.register(("T2", 0), ["c"], expiry=5.0)
        # Nothing is built before the first burst screen.
        assert analyzer._rows is None
        analyzer.admissible_batch([(["a"], [("a", 0.1)])], 0.0)
        assert self.rows(analyzer) == {
            ("T1", 0): [2.0, 1.0, 0.0],
            ("T2", 0): [0.0, 0.0, 1.0],
        }
        freed = analyzer._row_of[("T1", 0)]
        analyzer.unregister(("T1", 0))
        assert analyzer._free_rows == [freed]
        analyzer.register(("T3", 0), ["b"], None)
        assert analyzer._row_of[("T3", 0)] == freed
        expired = analyzer._row_of[("T2", 0)]
        analyzer.prune(10.0)
        assert analyzer._free_rows == [expired]
        assert self.rows(analyzer) == {("T3", 0): [0.0, 1.0, 0.0]}
        # Re-registering replaces the row's counts in place.
        analyzer.register(("T3", 0), ["c", "c"], None)
        assert analyzer._row_of[("T3", 0)] == freed
        assert self.rows(analyzer) == {("T3", 0): [0.0, 0.0, 2.0]}
        assert len(analyzer._row_keys) == 2

    def test_matrix_grows_with_the_registry(self):
        ledger, analyzer = self.make()
        naive = NaiveAubAnalyzer(ledger)
        burst = [(["a", "b"], [("a", 0.05), ("b", 0.05)])]
        analyzer.admissible_batch(burst, now=0.0)
        capacity = len(analyzer._rows)
        for i in range(3 * capacity):
            node = self.NODES[i % 3]
            self.commit(ledger, analyzer, (f"T{i}", 0), [(node, 0.002)] * 2)
            naive.register((f"T{i}", 0), [node, node], None)
        assert len(analyzer._rows) >= 3 * capacity
        rows = self.rows(analyzer)
        assert len(rows) == 3 * capacity
        assert rows[("T4", 0)] == [0.0, 2.0, 0.0]
        # The last burst passes its own condition but not its neighbours'.
        decisions = []
        for extra in (0.05, 0.25, 0.4):
            burst = [(["b"], [("b", extra)])]
            decisions += analyzer.admissible_batch(burst, now=0.0)
            assert decisions[-1] == naive.admissible_batch(burst, now=0.0)[0]
        assert decisions == [True, True, False]
