"""Property-based tests (hypothesis) for the AUB machinery."""

import math
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env import PURE_PYTHON_VAR
from repro.sched.aub import (
    AubAnalyzer,
    SyntheticUtilizationLedger,
    aub_term,
    aub_term_inverse,
    task_condition_holds,
)

from tests.aub_oracle import NaiveAubAnalyzer

utilizations = st.floats(
    min_value=0.0, max_value=0.999, allow_nan=False, allow_infinity=False
)

small_utils = st.floats(min_value=0.0, max_value=0.4, allow_nan=False)


class TestAubTermProperties:
    @given(utilizations)
    def test_term_nonnegative_and_finite_below_one(self, u):
        value = aub_term(u)
        assert value >= 0.0
        assert math.isfinite(value)

    @given(utilizations, utilizations)
    def test_term_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert aub_term(lo) <= aub_term(hi)

    @given(utilizations)
    def test_term_dominates_utilization(self, u):
        # f(u) >= u for all u in [0, 1): the synthetic utilization term is
        # never smaller than the utilization itself.
        assert aub_term(u) >= u - 1e-12

    @given(st.lists(small_utils, max_size=2))
    def test_condition_holds_for_light_paths(self, utils):
        # Paths of <= 2 stages at <= 0.4 utilization always satisfy (1):
        # 2 * f(0.4) = 1.0666... is the boundary, f(0.4) alone is 0.533.
        if sum(aub_term(u) for u in utils) <= 1.0:
            assert task_condition_holds(utils)

    @given(st.lists(utilizations, min_size=1, max_size=6))
    def test_condition_equivalent_to_sum(self, utils):
        expected = sum(aub_term(u) for u in utils) <= 1.0 + 1e-9
        assert task_condition_holds(utils) == expected


class TestLedgerProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=0, max_value=30),
                st.floats(min_value=0.001, max_value=0.2, allow_nan=False),
            ),
            max_size=40,
        )
    )
    def test_total_is_sum_of_live_contributions(self, ops):
        """Adding then removing arbitrary contributions keeps the ledger
        total equal to the sum of live entries (no drift, never negative)."""
        ledger = SyntheticUtilizationLedger(["a", "b", "c"])
        live = {}
        for node, key_id, value in ops:
            key = ("T", key_id, 0)
            if (node, key) in live:
                ledger.remove(node, key)
                del live[(node, key)]
            else:
                ledger.add(node, key, value)
                live[(node, key)] = value
        for node in ("a", "b", "c"):
            expected = sum(v for (n, _k), v in live.items() if n == node)
            assert ledger.utilization(node) >= 0.0
            assert abs(ledger.utilization(node) - expected) < 1e-9

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10),
                st.floats(min_value=0.001, max_value=0.3, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_remove_is_exact_inverse_of_add(self, entries):
        ledger = SyntheticUtilizationLedger(["a"])
        for i, (key_id, value) in enumerate(entries):
            ledger.add("a", ("T", i, key_id), value)
        for i, (key_id, value) in enumerate(entries):
            ledger.remove("a", ("T", i, key_id))
        assert ledger.utilization("a") == 0.0
        assert ledger.contribution_count("a") == 0


class TestAnalyzerProperties:
    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=3),
                st.floats(min_value=0.01, max_value=0.5, allow_nan=False),
            ),
            max_size=15,
        )
    )
    def test_admitted_set_always_satisfies_condition(self, candidates):
        """Greedily admitting candidates through the analyzer keeps
        condition (1) true for every admitted task — the core AUB
        invariant the middleware relies on."""
        ledger = SyntheticUtilizationLedger(["a", "b"])
        analyzer = AubAnalyzer(ledger)
        admitted = []
        for i, (visits, per_stage) in enumerate(candidates):
            contribs = {}
            for node in visits:
                contribs[node] = contribs.get(node, 0.0) + per_stage
            if analyzer.admissible(visits, contribs, now=0.0):
                for j, node in enumerate(visits):
                    ledger.add(node, (f"T{i}", 0, j), per_stage)
                analyzer.register((f"T{i}", 0), visits, None)
                admitted.append(visits)
        totals = ledger.snapshot()
        for visits in admitted:
            assert task_condition_holds([totals[n] for n in visits])
        for node, total in totals.items():
            assert total < 1.0


class TestAubTermInverseProperties:
    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_round_trip_is_tight(self, t):
        u = aub_term_inverse(t)
        assert 0.0 <= u < 1.0
        assert math.isclose(aub_term(u), t, rel_tol=1e-9, abs_tol=1e-12)

    @given(st.floats(min_value=0.0, max_value=0.999999, allow_nan=False))
    def test_inverse_of_term_recovers_utilization(self, u):
        assert math.isclose(
            aub_term_inverse(aub_term(u)), u, rel_tol=1e-9, abs_tol=1e-12
        )


class _MirroredSystem:
    """Drives the incremental and naive analyzers through the identical
    sequence of scalar tests, bursts, placement sessions, untested adds,
    relocations, idle resets and expiries, asserting decision parity.

    ``over_bound`` counts the decisions taken while a registration was
    already over the bound (left there by an untested add), by path
    (``sequential``, ``screened``, ``unscreened``) and by whether the
    candidate changes a node that registration visits (``affected``) or
    not (``unaffected``).  A screened session's violators are checked
    against those registrations.
    """

    NODES = ("a", "b", "c", "d")

    def __init__(self):
        self.ledger_inc = SyntheticUtilizationLedger(self.NODES)
        self.ledger_nai = SyntheticUtilizationLedger(self.NODES)
        self.inc = AubAnalyzer(self.ledger_inc)
        self.nai = NaiveAubAnalyzer(self.ledger_nai)
        #: key -> (visits, per-stage utils, expiry or None)
        self.live = {}
        self.now = 0.0
        self.counter = 0
        self.decisions = []
        self.over_bound = Counter()

    # -- helpers -------------------------------------------------------
    def _commit(self, key, visits, stage_utils, expiry):
        for j, (node, u) in enumerate(zip(visits, stage_utils)):
            self.ledger_inc.add(node, (key[0], key[1], j), u)
            self.ledger_nai.add(node, (key[0], key[1], j), u)
        self.inc.register(key, list(visits), expiry)
        self.nai.register(key, list(visits), expiry)
        self.live[key] = (list(visits), list(stage_utils), expiry)

    def _commit_batch(self, accepted):
        """Commit accepted burst candidates as the batched AC does: one
        ``add_batch`` in acceptance order on the incremental side,
        per-stage adds on the naive side."""
        entries = []
        for key, visits, stage_utils, _expiry in accepted:
            for j, (node, u) in enumerate(zip(visits, stage_utils)):
                entries.append((node, (key[0], key[1], j), u))
                self.ledger_nai.add(node, (key[0], key[1], j), u)
        self.ledger_inc.add_batch(entries)
        for key, visits, stage_utils, expiry in accepted:
            self.inc.register(key, list(visits), expiry)
            self.nai.register(key, list(visits), expiry)
            self.live[key] = (list(visits), list(stage_utils), expiry)

    def _new_key(self):
        key = (f"T{self.counter}", 0)
        self.counter += 1
        return key

    def _over_bound_keys(self):
        """The live registrations whose condition already fails."""
        utilization = self.ledger_nai.utilization
        return {
            key
            for key, (visits, _utils, _expiry) in self.live.items()
            if not task_condition_holds([utilization(n) for n in visits])
        }

    def _count_over_bound(self, path, over, visits, contribs):
        """Count one decision taken with the registrations ``over`` over
        the bound, by whether the candidate changes a node they visit."""
        for key in over:
            reach = any(contribs.get(node, 0.0) != 0.0 for node in self.live[key][0])
            self.over_bound[path, "affected" if reach else "unaffected"] += 1

    def _scalar_test(self, visits, contribs, exclude=None):
        """One scalar ``admissible`` on both sides."""
        over = self._over_bound_keys() - {exclude}
        self._count_over_bound("sequential", over, visits, contribs)
        got = self.inc.admissible(visits, contribs, self.now, exclude=exclude)
        want = self.nai.admissible(visits, contribs, self.now, exclude=exclude)
        return got, want

    def _evict(self, key):
        visits, stage_utils, _expiry = self.live.pop(key)
        for j, node in enumerate(visits):
            self.ledger_inc.remove(node, (key[0], key[1], j))
            self.ledger_nai.remove(node, (key[0], key[1], j))
        self.inc.unregister(key)
        self.nai.unregister(key)

    def advance(self, dt):
        self.now += dt
        for key in [
            k for k, (_v, _u, exp) in self.live.items()
            if exp is not None and exp <= self.now
        ]:
            self._evict(key)

    # -- operations ----------------------------------------------------
    def arrival(self, visits, stage_utils, lifetime):
        contribs = {}
        for node, u in zip(visits, stage_utils):
            contribs[node] = contribs.get(node, 0.0) + u
        got, want = self._scalar_test(visits, contribs)
        assert got == want, (
            f"arrival decision diverged at t={self.now}: "
            f"incremental={got} naive={want} visits={visits} utils={stage_utils}"
        )
        self.decisions.append(got)
        if got:
            expiry = None if lifetime is None else self.now + lifetime
            self._commit(self._new_key(), visits, stage_utils, expiry)

    def force_add(self, visits, stage_utils, lifetime):
        """Commit and register a task without any admission test (the
        ledger mutated behind the analyzer's back), which can leave a
        registered task over the bound."""
        expiry = None if lifetime is None else self.now + lifetime
        self._commit(self._new_key(), visits, stage_utils, expiry)

    def _burst_decisions(self, candidates, got):
        want = self.nai.admissible_batch(candidates, self.now)
        assert got == want, (
            f"burst decisions diverged at t={self.now}: "
            f"incremental={got} naive={want}"
        )
        self.decisions.extend(got)

    def burst(self, arrivals):
        """Simultaneous arrivals through ``admissible_batch``, checked
        against the sequential naive oracle, then committed in one
        ``add_batch``."""
        candidates = [
            (visits, list(zip(visits, stage_utils)))
            for visits, stage_utils, _lifetime in arrivals
        ]
        self._count_burst("screened", candidates)
        got = self.inc.admissible_batch(candidates, self.now)
        self._burst_decisions(candidates, got)
        self._accept(arrivals, got)

    def _count_burst(self, path, candidates):
        over = self._over_bound_keys()
        for visits, stage_contribs in candidates:
            self._count_over_bound(path, over, visits, dict(stage_contribs))
        return over

    def session(self, jobs, rng, screened):
        """An LB-style placement burst through ``batch_session``: each
        stage lists its eligible nodes, the demand envelope counts every
        stage on each of them, and each placement picks one eligible
        node per stage, so every candidate stays inside the envelope."""
        demand = {}
        for stages, _lifetime in jobs:
            for eligible, u in stages:
                for node in eligible:
                    demand[node] = demand.get(node, 0.0) + u
        session = self.inc.batch_session(
            self.now, demand if screened else None
        )
        arrivals = []
        candidates = []
        for stages, lifetime in jobs:
            visits = [rng.choice(eligible) for eligible, _u in stages]
            stage_utils = [u for _eligible, u in stages]
            arrivals.append((visits, stage_utils, lifetime))
            candidates.append((visits, list(zip(visits, stage_utils))))
        over = self._count_burst(
            "screened" if screened else "unscreened", candidates
        )
        if screened:
            # The screen hands the session exactly the registrations
            # (left after its prune) already over the bound.
            assert session._violators == over & self.inc._visits.keys()
        got = [session.try_admit(*cand) for cand in candidates]
        self._burst_decisions(candidates, got)
        self._accept(arrivals, got)

    def _accept(self, arrivals, decisions):
        accepted = []
        for (visits, stage_utils, lifetime), ok in zip(arrivals, decisions):
            if ok:
                expiry = None if lifetime is None else self.now + lifetime
                accepted.append((self._new_key(), visits, stage_utils, expiry))
        self._commit_batch(accepted)

    def relocate(self, key, new_visits):
        """Move an admitted task, evaluated as a delta with exclude."""
        visits, stage_utils, expiry = self.live[key]
        if len(new_visits) != len(visits):
            return
        delta = {}
        for node, u in zip(new_visits, stage_utils):
            delta[node] = delta.get(node, 0.0) + u
        for node, u in zip(visits, stage_utils):
            delta[node] = delta.get(node, 0.0) - u
        got, want = self._scalar_test(new_visits, delta, exclude=key)
        assert got == want, (
            f"relocation decision diverged at t={self.now}: "
            f"incremental={got} naive={want}"
        )
        self.decisions.append(got)
        if got:
            self._evict(key)
            self._commit(key, new_visits, stage_utils, expiry)

    def idle_reset(self, key, stage):
        """Reclaim one stage's contribution early (ledger-only removal)."""
        visits, stage_utils, expiry = self.live[key]
        node = visits[stage]
        ck = (key[0], key[1], stage)
        self.ledger_inc.remove(node, ck)
        self.ledger_nai.remove(node, ck)
        stage_utils[stage] = 0.0

    def check_final_state(self):
        assert self.inc.registered == self.nai.registered
        assert self.ledger_inc.snapshot() == self.ledger_nai.snapshot()
        for node in self.NODES:
            assert self.ledger_inc.utilization(node) == self.ledger_nai.utilization(node)
            assert self.ledger_inc.contribution_count(
                node
            ) == self.ledger_nai.contribution_count(node)


def _random_arrival(rng, nodes):
    n_stages = rng.randint(1, 4)
    visits = [rng.choice(nodes) for _ in range(n_stages)]
    stage_utils = [rng.uniform(0.01, 0.35) for _ in range(n_stages)]
    lifetime = None if rng.random() < 0.15 else rng.uniform(0.2, 4.0)
    return visits, stage_utils, lifetime


def _random_job(rng, nodes):
    stages = [
        (rng.sample(nodes, rng.randint(1, 3)), rng.uniform(0.005, 0.2))
        for _ in range(rng.randint(1, 3))
    ]
    return stages, rng.uniform(0.2, 4.0)


def _drive(rng, n_ops):
    system = _MirroredSystem()
    nodes = system.NODES
    for _ in range(n_ops):
        system.advance(rng.random() * 0.8)
        roll = rng.random()
        if roll < 0.4 or not system.live:
            system.arrival(*_random_arrival(rng, nodes))
        elif roll < 0.52:
            system.burst(
                [_random_arrival(rng, nodes) for _ in range(rng.randint(1, 4))]
            )
        elif roll < 0.64:
            system.session(
                [_random_job(rng, nodes) for _ in range(rng.randint(1, 4))],
                rng,
                screened=rng.random() < 0.8,
            )
        elif roll < 0.68:
            system.force_add(*_random_arrival(rng, nodes))
        elif roll < 0.84:
            key = rng.choice(sorted(system.live))
            n_stages = len(system.live[key][0])
            new_visits = [rng.choice(system.NODES) for _ in range(n_stages)]
            system.relocate(key, new_visits)
        else:
            key = rng.choice(sorted(system.live))
            stage = rng.randrange(len(system.live[key][0]))
            system.idle_reset(key, stage)
    system.check_final_state()
    return system


class TestIncrementalMatchesNaive:
    """The incremental AubAnalyzer must agree decision-for-decision with
    the retained naive reference across random add/remove/relocate/expiry
    sequences (the tentpole's correctness contract)."""

    def test_seeded_long_sequences(self):
        admitted_something = False
        rejected_something = False
        for seed in range(8):
            system = _drive(random.Random(seed), 200)
            admitted_something |= any(system.decisions)
            rejected_something |= not all(system.decisions)
        # The workload must exercise both outcomes to be meaningful.
        assert admitted_something and rejected_something

    def test_over_bound_registrations_are_exercised(self):
        """The seeded sequences decide, on the sequential path and on the
        screened and unscreened session paths, while an untested add
        leaves a registration over the bound, both where the candidate
        changes one of its nodes and where it does not."""
        over_bound = Counter()
        for seed in range(8):
            over_bound += _drive(random.Random(seed), 200).over_bound
        for path in ("sequential", "screened", "unscreened"):
            for reach in ("affected", "unaffected"):
                assert over_bound[path, reach] > 0, (path, reach)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_random_sequences(self, seed):
        _drive(random.Random(seed), 60)


class TestArrayScreenMatchesLoop:
    """With numpy the burst screen is one product of visit-count rows
    with the node terms; for an analyzer built under
    ``REPRO_PURE_PYTHON=1`` it is the Python loop.  The same random
    sequence must give the same decisions, ledger and counters either
    way."""

    def test_seeded_sequences_match_the_loop(self, array_screen, monkeypatch):
        for seed in range(6):
            array = _drive(random.Random(seed), 200)
            assert array.inc._rows is not None
            with monkeypatch.context() as patch:
                patch.setenv(PURE_PYTHON_VAR, "1")
                loop = _drive(random.Random(seed), 200)
            assert loop.inc._rows is None
            # Scalar, burst and session decisions, in sequence order.
            assert array.decisions == loop.decisions
            assert array.ledger_inc.snapshot() == loop.ledger_inc.snapshot()
            assert array.inc.tests_performed == loop.inc.tests_performed
            assert array.inc.batch_sessions == loop.inc.batch_sessions

    def test_admissible_only_analyzer_never_builds_the_matrix(self):
        rng = random.Random(3)
        system = _MirroredSystem()
        for _ in range(150):
            system.advance(rng.random() * 0.8)
            if rng.random() < 0.7 or not system.live:
                system.arrival(*_random_arrival(rng, system.NODES))
            else:
                key = rng.choice(sorted(system.live))
                new_visits = [
                    rng.choice(system.NODES) for _ in system.live[key][0]
                ]
                system.relocate(key, new_visits)
        assert system.inc.tests_performed == 150
        assert system.inc.registered > 0
        assert system.inc._rows is None
