"""Property tests for the batched hot path.

Three contracts are enforced here:

* **Batch admission parity** — for random bursts of arrivals,
  :meth:`AubAnalyzer.admissible_batch` (one session, one ``try_admit``
  per arrival) accepts exactly the prefix-greedy set that sequential
  :meth:`NaiveAubAnalyzer.admissible` calls (with real per-stage ledger
  commits between them) would accept, at exact float equality; and
  :meth:`NaiveAubAnalyzer.admissible_batch` — the retained reference
  transcription — agrees with both.
* **Batch placement parity** — load-balanced bursts planned through a
  :class:`BatchAdmissionSession` (greedy scores against the ledger plus
  the burst's accepted overlay, one ``try_admit`` per plan) produce the
  same assignments, the same accept/reject decisions, and bit-identical
  final ledger utilizations as the sequential path's
  plan / ``admissible`` / per-stage-commit / register loop.
* **Ledger shard invariants** — the per-node sharded
  :class:`SyntheticUtilizationLedger` reports the same utilizations,
  snapshots, and contribution counts as an unsharded dict-of-dicts
  reference across random mixes of scalar and batched add/remove
  operations.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.load_balancer import LoadBalancerComponent
from repro.sched.aub import AubAnalyzer, SyntheticUtilizationLedger
from repro.sched.task import Job, TaskKind

from tests.aub_oracle import NaiveAubAnalyzer
from tests.taskutil import make_task

NODES = ("a", "b", "c", "d")


# ----------------------------------------------------------------------
# Batch admission parity
# ----------------------------------------------------------------------
def _build_population(rng, n_pre):
    """Three identical ledgers/analyzers with ``n_pre`` admitted tasks."""
    ledgers = [SyntheticUtilizationLedger(NODES) for _ in range(3)]
    analyzers = [
        AubAnalyzer(ledgers[0]),
        NaiveAubAnalyzer(ledgers[1]),
        NaiveAubAnalyzer(ledgers[2]),
    ]
    for i in range(n_pre):
        stages = rng.randint(1, 3)
        visits = [rng.choice(NODES) for _ in range(stages)]
        utils = [rng.uniform(0.005, 0.15) for _ in range(stages)]
        expiry = 1e9 if rng.random() < 0.8 else None
        for ledger in ledgers:
            for j, (node, util) in enumerate(zip(visits, utils)):
                ledger.add(node, (f"P{i}", 0, j), util)
        for analyzer in analyzers:
            analyzer.register((f"P{i}", 0), list(visits), expiry)
    return ledgers, analyzers


def _random_burst(rng, size):
    """``size`` arrivals as ``(visits, stage_contribs)`` pairs."""
    candidates = []
    for _ in range(size):
        stages = rng.randint(1, 3)
        visits = [rng.choice(NODES) for _ in range(stages)]
        utils = [rng.uniform(0.005, 0.3) for _ in range(stages)]
        candidates.append((visits, list(zip(visits, utils))))
    return candidates


def _aggregate(stage_contribs):
    """node -> summed stage contribution, added in stage order."""
    contribs = {}
    for node, value in stage_contribs:
        contribs[node] = contribs.get(node, 0.0) + value
    return contribs


def _sequential_oracle(ledger, analyzer, candidates, now, prefix="B"):
    """The ground truth: test each candidate, really commit accepts
    (candidate ``c`` under registry key ``(prefix + c, 0)``)."""
    decisions = []
    for c, (visits, stage_contribs) in enumerate(candidates):
        admitted = analyzer.admissible(visits, _aggregate(stage_contribs), now)
        decisions.append(admitted)
        if admitted:
            for j, (node, value) in enumerate(stage_contribs):
                ledger.add(node, (f"{prefix}{c}", 0, j), value)
            analyzer.register((f"{prefix}{c}", 0), list(visits), expiry=1e9)
    return decisions


def _assert_burst_parity(seed, n_pre, burst_size):
    rng = random.Random(seed)
    ledgers, analyzers = _build_population(rng, n_pre)
    candidates = _random_burst(rng, burst_size)
    incremental = analyzers[0].admissible_batch(candidates, now=1.0)
    naive_batch = analyzers[1].admissible_batch(candidates, now=1.0)
    sequential = _sequential_oracle(ledgers[2], analyzers[2], candidates, 1.0)
    assert incremental == naive_batch == sequential, (
        f"burst decisions diverged (seed={seed}): incremental={incremental} "
        f"naive_batch={naive_batch} sequential={sequential}"
    )
    # Committing the accepted set through add_batch must reproduce the
    # sequential ledger bit for bit (same per-stage float accumulation).
    entries = [
        (node, (f"B{c}", 0, j), value)
        for c, ((_visits, stage_contribs), admitted) in enumerate(
            zip(candidates, incremental)
        )
        if admitted
        for j, (node, value) in enumerate(stage_contribs)
    ]
    ledgers[0].add_batch(entries)
    for node in NODES:
        assert ledgers[0].utilization(node) == ledgers[2].utilization(node)
    # And the committed incremental engine keeps agreeing with the
    # sequential oracle on a follow-up burst (fresh F-keys, no collision
    # with the burst just committed).
    for c, ((visits, _stages), admitted) in enumerate(zip(candidates, incremental)):
        if admitted:
            analyzers[0].register((f"B{c}", 0), list(visits), expiry=1e9)
    follow_up = _random_burst(rng, 4)
    follow_inc = analyzers[0].admissible_batch(follow_up, now=1.0)
    follow_seq = _sequential_oracle(
        ledgers[2], analyzers[2], follow_up, 1.0, prefix="F"
    )
    assert follow_inc == follow_seq


class TestBatchAdmissionParity:
    def test_seeded_bursts(self):
        saw_accept = saw_reject = False
        for seed in range(25):
            rng = random.Random(seed)
            ledgers, analyzers = _build_population(rng, rng.randint(0, 20))
            candidates = _random_burst(rng, rng.randint(1, 24))
            incremental = analyzers[0].admissible_batch(candidates, now=1.0)
            sequential = _sequential_oracle(
                ledgers[2], analyzers[2], candidates, 1.0
            )
            assert incremental == sequential
            saw_accept |= any(incremental)
            saw_reject |= not all(incremental)
        # The workload must exercise both outcomes to be meaningful.
        assert saw_accept and saw_reject

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_pre=st.integers(min_value=0, max_value=25),
        burst_size=st.integers(min_value=1, max_value=32),
    )
    def test_random_bursts(self, seed, n_pre, burst_size):
        _assert_burst_parity(seed, n_pre, burst_size)

    def test_empty_burst(self):
        ledger = SyntheticUtilizationLedger(NODES)
        analyzer = AubAnalyzer(ledger)
        assert analyzer.admissible_batch([], now=0.0) == []

    def test_saturating_burst_rejects_tail(self):
        """A burst that fills a node admits a prefix and rejects the rest."""
        ledger = SyntheticUtilizationLedger(["a"])
        analyzer = AubAnalyzer(ledger)
        candidates = [(["a"], [("a", 0.2)]) for _ in range(8)]
        decisions = analyzer.admissible_batch(candidates, now=0.0)
        assert any(decisions) and not all(decisions)
        # Greedy prefix property: once a candidate of this uniform burst
        # is rejected, every later identical candidate is rejected too.
        first_reject = decisions.index(False)
        assert not any(decisions[first_reject:])


# ----------------------------------------------------------------------
# Batch placement parity (load-balanced bursts)
# ----------------------------------------------------------------------
def _random_task(rng, task_id):
    """A periodic chain with randomized eligible sets (deadline=period=1,
    so each stage's synthetic utilization equals its execution time)."""
    stages = rng.randint(1, 3)
    homes, replicas, execs = [], [], []
    for _ in range(stages):
        eligible = rng.sample(list(NODES), rng.randint(1, len(NODES)))
        homes.append(eligible[0])
        replicas.append(tuple(eligible[1:]))
        execs.append(rng.uniform(0.005, 0.3))
    return make_task(
        task_id,
        TaskKind.PERIODIC,
        deadline=1.0,
        execs=tuple(execs),
        homes=homes,
        replicas=replicas,
    )


def _twin_lb_population(rng, n_pre):
    """Two identical ledger/analyzer pairs with ``n_pre`` admitted tasks,
    a mix of live, expiring, and permanent registry entries."""
    ledgers = [SyntheticUtilizationLedger(NODES) for _ in range(2)]
    analyzers = [AubAnalyzer(ledger) for ledger in ledgers]
    for i in range(n_pre):
        stages = rng.randint(1, 3)
        visits = [rng.choice(NODES) for _ in range(stages)]
        utils = [rng.uniform(0.005, 0.15) for _ in range(stages)]
        # 0.5 expires before the burst at now=1.0: the session's prune
        # and the sequential path's per-test prune must agree.
        expiry = rng.choice([1e9, 0.5, None])
        for ledger in ledgers:
            for j, (node, util) in enumerate(zip(visits, utils)):
                ledger.add(node, (f"P{i}", 0, j), util)
        for analyzer in analyzers:
            analyzer.register((f"P{i}", 0), list(visits), expiry)
    return ledgers, analyzers


def _burst_jobs(rng, size):
    jobs = []
    for c in range(size):
        task = _random_task(rng, f"B{c}")
        jobs.append(
            Job(
                task=task,
                index=0,
                arrival_time=1.0,
                arrival_node=task.subtasks[0].home,
            )
        )
    return jobs


def _demand_envelope(jobs):
    """Worst-case per-node demand of a burst: every stage counted on
    each of its eligible processors."""
    demand = {}
    for job in jobs:
        task = job.task
        for subtask in task.subtasks:
            value = task.subtask_utilization(subtask.index)
            for node in subtask.eligible:
                demand[node] = demand.get(node, 0.0) + value
    return demand


def _stages(task, plan):
    """The plan's ``(node, utilization)`` stage contributions."""
    return [
        (plan[s.index], task.subtask_utilization(s.index)) for s in task.subtasks
    ]


def _place(lb, session, job):
    """The batched AC's step: plan against the session, test the plan
    once with ``try_admit``; the plan, or None when rejected."""
    task = job.task
    plan = lb.location(job, session)
    visits = task.visited_processors(plan)
    return plan if session.try_admit(visits, _stages(task, plan)) else None


def _lb_sequential_oracle(ledger, analyzer, lb, jobs, now):
    """The sequential LB path, transcribed: greedy-plan against the live
    ledger, test the plan once, then commit per stage and register."""
    plans = []
    for job in jobs:
        task = job.task
        assignment = lb.location(job, ledger)
        visits = task.visited_processors(assignment)
        if not analyzer.admissible(
            visits, _aggregate(_stages(task, assignment)), now
        ):
            plans.append(None)
            continue
        for subtask in task.subtasks:
            ledger.add(
                assignment[subtask.index],
                (task.task_id, job.index, subtask.index),
                task.subtask_utilization(subtask.index),
            )
        analyzer.register((task.task_id, job.index), visits, expiry=1e9)
        plans.append(assignment)
    return plans


def _assert_placement_parity(seed, n_pre, burst_size):
    rng = random.Random(seed)
    ledgers, analyzers = _twin_lb_population(rng, n_pre)
    jobs = _burst_jobs(rng, burst_size)
    lb = LoadBalancerComponent("lb", None)

    session = analyzers[0].batch_session(now=1.0)
    batched = [_place(lb, session, job) for job in jobs]
    # A screened session (sessions never mutate ledger or registry, so a
    # second one can replay the same burst): skipping the rescans the
    # demand envelope exempts must not change any plan.
    screened_session = analyzers[0].batch_session(
        now=1.0, demand=_demand_envelope(jobs)
    )
    screened = [_place(lb, screened_session, job) for job in jobs]
    assert screened == batched, (
        f"screened session diverged (seed={seed}): "
        f"screened={screened} unscreened={batched}"
    )
    entries = [
        (
            plan[subtask.index],
            (job.task.task_id, job.index, subtask.index),
            job.task.subtask_utilization(subtask.index),
        )
        for job, plan in zip(jobs, batched)
        if plan is not None
        for subtask in job.task.subtasks
    ]
    ledgers[0].add_batch(entries)

    sequential = _lb_sequential_oracle(
        ledgers[1], analyzers[1], lb, jobs, now=1.0
    )
    assert batched == sequential, (
        f"placement plans diverged (seed={seed}): "
        f"batched={batched} sequential={sequential}"
    )
    for node in NODES:
        assert ledgers[0].utilization(node) == ledgers[1].utilization(node)


class TestBatchPlacementParity:
    def test_seeded_bursts(self):
        saw_accept = saw_reject = False
        for seed in range(25):
            rng = random.Random(seed)
            ledgers, analyzers = _twin_lb_population(rng, rng.randint(0, 20))
            jobs = _burst_jobs(rng, rng.randint(1, 24))
            lb = LoadBalancerComponent("lb", None)
            session = analyzers[0].batch_session(
                now=1.0, demand=_demand_envelope(jobs)
            )
            batched = [_place(lb, session, job) for job in jobs]
            sequential = _lb_sequential_oracle(
                ledgers[1], analyzers[1], lb, jobs, now=1.0
            )
            assert batched == sequential
            saw_accept |= any(p is not None for p in batched)
            saw_reject |= any(p is None for p in batched)
        assert saw_accept and saw_reject

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_pre=st.integers(min_value=0, max_value=25),
        burst_size=st.integers(min_value=1, max_value=24),
    )
    def test_random_bursts(self, seed, n_pre, burst_size):
        _assert_placement_parity(seed, n_pre, burst_size)

    def test_overlay_is_visible_to_later_plans(self):
        """A placement accepted earlier in the burst must steer later
        greedy scores, exactly as an interim ledger commit would."""
        ledger = SyntheticUtilizationLedger(("a", "b"))
        analyzer = AubAnalyzer(ledger)
        lb = LoadBalancerComponent("lb", None)
        session = analyzer.batch_session(now=0.0)
        # Both stages may run anywhere; empty ledger ties break to "a".
        t0 = make_task("T0", execs=(0.2,), homes=("a",), replicas=[("b",)])
        t1 = make_task("T1", execs=(0.1,), homes=("a",), replicas=[("b",)])
        j0 = Job(task=t0, index=0, arrival_time=0.0, arrival_node="a")
        j1 = Job(task=t1, index=0, arrival_time=0.0, arrival_node="a")
        assert _place(lb, session, j0) == {0: "a"}
        # Without the overlay "a" would still score 0.0 and win the tie.
        assert _place(lb, session, j1) == {0: "b"}

    def test_saturating_burst_rejects_tail(self):
        ledger = SyntheticUtilizationLedger(("a",))
        analyzer = AubAnalyzer(ledger)
        lb = LoadBalancerComponent("lb", None)
        session = analyzer.batch_session(now=0.0)
        plans = []
        for i in range(8):
            task = make_task(f"T{i}", execs=(0.2,), homes=("a",))
            job = Job(task=task, index=0, arrival_time=0.0, arrival_node="a")
            plans.append(_place(lb, session, job))
        decisions = [p is not None for p in plans]
        assert any(decisions) and not all(decisions)
        first_reject = decisions.index(False)
        assert not any(decisions[first_reject:])


# ----------------------------------------------------------------------
# Ledger shard invariants
# ----------------------------------------------------------------------
class _UnshardedReference:
    """The pre-sharding ledger layout: shared dicts keyed by node."""

    def __init__(self, nodes):
        self.contribs = {n: {} for n in nodes}
        self.totals = {n: 0.0 for n in nodes}

    def add(self, node, key, value):
        assert key not in self.contribs[node]
        self.contribs[node][key] = value
        self.totals[node] += value

    def remove(self, node, key):
        value = self.contribs[node].pop(key, None)
        if value is None:
            return False
        self.totals[node] -= value
        if not self.contribs[node]:
            self.totals[node] = 0.0
        return True


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "add_batch", "remove_batch"]),
        st.integers(min_value=0, max_value=5),  # op seed
    ),
    max_size=30,
)


class TestLedgerShardInvariants:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31), ops=ops_strategy)
    def test_sharded_matches_unsharded_reference(self, seed, ops):
        rng = random.Random(seed)
        ledger = SyntheticUtilizationLedger(NODES)
        reference = _UnshardedReference(NODES)
        live = []
        counter = 0
        for op, _ in ops:
            if op == "add" or (op == "remove" and not live):
                node = rng.choice(NODES)
                key = ("T", counter, 0)
                counter += 1
                value = rng.uniform(0.001, 0.2)
                ledger.add(node, key, value)
                reference.add(node, key, value)
                live.append((node, key))
            elif op == "remove":
                node, key = live.pop(rng.randrange(len(live)))
                assert ledger.remove(node, key) == reference.remove(node, key)
            elif op == "add_batch":
                entries = []
                for _ in range(rng.randint(1, 6)):
                    node = rng.choice(NODES)
                    key = ("T", counter, 0)
                    counter += 1
                    value = rng.uniform(0.001, 0.2)
                    entries.append((node, key, value))
                    live.append((node, key))
                ledger.add_batch(entries)
                for node, key, value in entries:
                    reference.add(node, key, value)
            else:  # remove_batch
                picks = [
                    live.pop(rng.randrange(len(live)))
                    for _ in range(min(len(live), rng.randint(1, 6)))
                ]
                # Mix in an absent key: tolerated, not counted.
                entries = picks + [("a", ("absent", counter, 9))]
                removed = ledger.remove_batch(entries)
                expected = sum(
                    1 for node, key in picks if reference.remove(node, key)
                )
                assert removed == expected
            # The invariant proper: identical externally visible state,
            # bit for bit (both sides accumulate floats in one order).
            assert ledger.snapshot() == reference.totals
            for node in NODES:
                assert ledger.utilization(node) == reference.totals[node]
                assert ledger.contribution_count(node) == len(
                    reference.contribs[node]
                )

    def test_batch_notifications_once_per_touched_node(self):
        ledger = SyntheticUtilizationLedger(NODES)
        notified = []
        ledger.subscribe(notified.append)
        ledger.add_batch(
            [
                ("a", ("T", 0, 0), 0.1),
                ("a", ("T", 0, 1), 0.1),
                ("b", ("T", 0, 2), 0.1),
            ]
        )
        assert notified == ["a", "b"]
        notified.clear()
        removed = ledger.remove_batch(
            [
                ("a", ("T", 0, 0)),
                ("a", ("T", 0, 1)),
                ("b", ("T", 0, 2)),
                ("c", ("missing", 0, 0)),  # absent: no notification for c
            ]
        )
        assert removed == 3
        assert notified == ["a", "b"]


# ----------------------------------------------------------------------
# Expiry-heap compaction
# ----------------------------------------------------------------------
class TestExpiryHeapCompaction:
    def test_heap_stays_bounded_under_reregistration_churn(self):
        ledger = SyntheticUtilizationLedger(NODES)
        analyzer = AubAnalyzer(ledger)
        # Re-register the same keys with fresh expiries far in the future:
        # without compaction the heap grows by one stale entry per cycle.
        for round_ in range(50):
            for i in range(20):
                analyzer.register(
                    (f"T{i}", 0), ["a"], expiry=1e6 + round_ * 20 + i
                )
            analyzer.prune(now=0.0)
        assert analyzer.registered == 20
        # Bounded: at most live entries plus the sub-majority stale tail.
        assert len(analyzer._expiry_heap) <= 2 * analyzer.registered + 1

    def test_compaction_preserves_expiry_semantics(self):
        ledger = SyntheticUtilizationLedger(NODES)
        analyzer = AubAnalyzer(ledger)
        for i in range(100):
            analyzer.register((f"T{i}", 0), ["a"], expiry=10.0 + i)
        # Stale the majority by re-registering with later expiries.
        for i in range(80):
            analyzer.register((f"T{i}", 0), ["a"], expiry=500.0 + i)
        analyzer.prune(now=0.0)  # triggers compaction
        assert analyzer.registered == 100
        # Entries with untouched expiries retire on time...
        analyzer.prune(now=200.0)
        assert analyzer.registered == 80
        # ...and the re-registered ones at their new expiry, not the old.
        analyzer.prune(now=600.0)
        assert analyzer.registered == 0
