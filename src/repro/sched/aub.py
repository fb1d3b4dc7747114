"""Aperiodic Utilization Bound (AUB) analysis.

Implements the schedulability machinery from Abdelzaher, Thaker & Lardieri
(ICDCS 2004) as used by the paper (section 2):

* **Synthetic utilization** ``U_j(t)``: the sum of subtask utilizations
  ``C_ij / D_i`` on processor ``j`` accrued over all *current* tasks —
  tasks released whose deadlines have not expired.  Tracked by
  :class:`SyntheticUtilizationLedger` with per-contribution lifecycle.
* **The admission condition** (paper equation 1): under EDMS, task ``Ti``
  meets its deadline if ``sum_j f(U_Vij) <= 1`` with
  ``f(u) = u * (1 - u/2) / (1 - u)``; a task or job is admitted only if the
  condition holds for every admitted task *and* the candidate
  (:meth:`AubAnalyzer.admissible`).
* **The resetting rule**: when a processor idles, contributions of
  completed subjobs may be removed without invalidating the analysis —
  the mechanism behind the paper's Idle Resetting service.

The ledger is **sharded per processor**: each node owns an independent
:class:`_LedgerShard` (its own contribution map and cached total), so
contributions on one processor never touch
another processor's structures and 1000-processor deployments stop
serializing on one shared dict.  :meth:`SyntheticUtilizationLedger.add_batch`
and :meth:`~SyntheticUtilizationLedger.remove_batch` apply a group of
contributions with **one observer notification per touched node** instead
of one per contribution — the mechanism behind batched burst admission
and idle-period reclaim coalescing.

The incremental engine, :class:`AubAnalyzer`, caches per-node ``f(U_j)``
terms (invalidated through a ledger change listener) and retires expired
registrations through a min-heap instead of a linear sweep.  The test is
written once, in :class:`BatchAdmissionSession`: it checks the candidate
and every live registration under the candidate's hypothetical terms, in
visit order with early exit (the direct transcription of condition (1),
over cached terms).  :meth:`AubAnalyzer.admissible` runs it against the
live ledger, and a burst of simultaneous arrivals opens one session
(:meth:`AubAnalyzer.batch_session`: one prune, one screen) whose overlay
stands in for the interim ledger commits, at O(changed-nodes) bookkeeping
per accepted candidate.  The screen of a session opened with a demand
envelope checks every registration once: those that cannot fail inside
the burst are never rescanned, and those already over the bound are the
session's violators.  The overlay is also the load balancer's utilization
view, so placements planned during a burst score nodes against the
placements accepted before them.

When numpy is available the burst screen is one matrix-vector product of
per-registration visit counts with the screen's node terms
(:meth:`AubAnalyzer._screen_rows`); the pure-python loop is used when
numpy is absent or ``REPRO_PURE_PYTHON`` is set.  Decisions and floats
are bit-identical either way.  numpy is imported at an analyzer's first
burst screen, not with this module, so a process that never screens a
burst (the paper's figures, the distributed engine) never loads it.
"""

from __future__ import annotations

import heapq
import math
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.env import pure_python_forced, sanitize_enabled
from repro.errors import SchedulingError
from repro.sanitize import LedgerShadow, SanitizeViolation

#: Numeric slack for condition comparisons, so contributions that sum to
#: exactly the bound are not rejected by floating-point noise.
EPSILON = 1e-9

#: Safety margin of the batch screen (see ``_screen_burst``): a task
#: is exempted from per-candidate re-evaluation only if its condition
#: under the burst's worst-case totals stays this far *below* the
#: admission bound.  The margin dwarfs the ulp-scale wobble of float
#: monotonicity (~1e-15 for realistic visit lists), so tasks anywhere
#: near the boundary take the exact per-candidate path and decisions
#: remain bit-identical to the sequential oracle.
SCREEN_GUARD = 1e-12

#: Ceiling on a node term inside the array screen's product.  A saturated
#: node's term is ``inf`` and ``0 * inf`` is NaN, which compares false
#: and would clear every row; any finite value above the bound keeps each
#: route through that node on watch, exactly as ``inf`` does.
_SCREEN_TERM_CAP = 2.0

#: A ledger contribution key: (task_id, job_index, subtask_index).
#: ``job_index == RESERVED`` marks a per-task reservation (AC-per-Task
#: strategy) that persists for the task's lifetime.
ContributionKey = Tuple[str, int, int]

#: Sentinel job index for per-task (lifetime) reservations.
RESERVED = -1


def aub_term(u: float) -> float:
    """The per-processor term ``f(u) = u(1 - u/2)/(1 - u)`` of condition (1).

    Defined for ``0 <= u < 1``; returns ``+inf`` for ``u >= 1`` (a
    saturated processor can never satisfy the condition).
    """
    if u < 0:
        raise SchedulingError(f"synthetic utilization cannot be negative: {u}")
    if u >= 1.0:
        return math.inf
    return u * (1.0 - u / 2.0) / (1.0 - u)


def aub_term_inverse(t: float) -> float:
    """Inverse of :func:`aub_term` on [0, 1): the utilization ``u`` with
    ``f(u) = t``.

    Solving ``u(1 - u/2) = t(1 - u)`` gives the root
    ``u = (1 + t) - sqrt(1 + t^2)``, which cancels catastrophically for
    large ``t`` (both operands grow like ``t`` while the result approaches
    1, so the old form collapsed to exactly 1.0 around ``t ~ 1e8``).  The
    conjugate form ``u = 2t / ((1 + t) + sqrt(1 + t^2))`` only adds
    same-sign quantities, so it stays accurate — and strictly below 1 —
    over the whole domain.  ``hypot`` computes ``sqrt(1 + t^2)`` without
    overflow.  Used by the decentralized admission-control extension to
    convert per-task slack budgets into local per-processor caps.
    """
    if t < 0:
        raise SchedulingError(f"term value cannot be negative: {t}")
    if math.isinf(t):
        return 1.0
    return 2.0 * t / ((1.0 + t) + math.hypot(1.0, t))


def task_condition_holds(visit_utils: Sequence[float]) -> bool:
    """Check condition (1) for one task given the synthetic utilizations of
    the processors it visits (one entry per stage, repeats allowed)."""
    total = 0.0
    for u in visit_utils:
        total += aub_term(u)
        if total > 1.0 + EPSILON:
            return False
    return True


class _LedgerShard:
    """One processor's slice of the ledger.

    Each shard owns its contribution map and its cached total.  A mutation
    on one node therefore touches only that node's shard — no shared
    structure is written on the hot path, which is what lets
    1000-processor deployments scale without serializing on one dict.
    """

    __slots__ = ("contribs", "total")

    def __init__(self) -> None:
        self.contribs: Dict[ContributionKey, float] = {}
        self.total: float = 0.0


class SyntheticUtilizationLedger:
    """Tracks per-processor synthetic utilization with explicit lifecycle.

    Contributions are keyed by :data:`ContributionKey` per processor, so
    each (job, subtask) contribution can be removed exactly once by either
    deadline expiry or an idle reset — making the strategy semantics of the
    AC/IR services executable and auditable.  Storage is sharded per node
    (:class:`_LedgerShard`).

    Observers registered through :meth:`subscribe` are notified with the
    node name whenever that node's total changes; the incremental analyzer
    uses this to invalidate its cached ``f(U_j)`` terms.  The batch
    mutators (:meth:`add_batch`, :meth:`remove_batch`) notify **once per
    touched node** — equivalent for any idempotent invalidation listener,
    and the reason a burst commit or an idle-period reclaim costs one AUB
    refresh instead of one per subjob.
    """

    def __init__(self, nodes: Iterable[str]) -> None:
        node_list = list(nodes)
        if not node_list:
            raise SchedulingError("ledger needs at least one processor")
        self._shards: Dict[str, _LedgerShard] = {n: _LedgerShard() for n in node_list}
        self._observers: List[Callable[[str], None]] = []
        # REPRO_SANITIZE=1 (checked once, at construction): mirror every
        # mutation into an unsharded shadow and cross-check each touched
        # shard against it — identical keys, identical values, total
        # within float-drift tolerance of an order-independent fsum.
        self._shadow: Optional[LedgerShadow] = (
            LedgerShadow() if sanitize_enabled() else None
        )

    # ------------------------------------------------------------------
    # Node access
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[str]:
        return sorted(self._shards)

    def _shard(self, node: str) -> _LedgerShard:
        try:
            return self._shards[node]
        except KeyError:
            raise SchedulingError(f"unknown processor {node!r}") from None

    def subscribe(self, callback: Callable[[str], None]) -> None:
        """Register a change listener called with each mutated node name."""
        self._observers.append(callback)

    # ------------------------------------------------------------------
    # Contribution lifecycle
    # ------------------------------------------------------------------
    def add(self, node: str, key: ContributionKey, value: float) -> None:
        """Accrue a contribution.  Re-adding an existing key is an error."""
        shard = self._shard(node)
        self._add_to_shard(shard, node, key, value)
        if self._shadow is not None:
            self._shadow.add(node, key, value)
            self._shadow.verify_shard(node, shard.contribs, shard.total)
        for observer in self._observers:
            observer(node)

    @staticmethod
    def _add_to_shard(
        shard: _LedgerShard, node: str, key: ContributionKey, value: float
    ) -> None:
        contribs = shard.contribs
        if key in contribs:
            raise SchedulingError(
                f"contribution {key} already present on {node!r}"
            )
        if value < 0:
            raise SchedulingError(f"contribution must be >= 0, got {value}")
        contribs[key] = value
        shard.total += value

    def remove(self, node: str, key: ContributionKey) -> bool:
        """Remove a contribution if present; returns whether it existed.

        Removal is tolerant of absent keys because deadline expiry and idle
        resetting race benignly: whichever fires second finds the key gone.
        """
        shard = self._shard(node)
        if not self._remove_from_shard(shard, node, key):
            return False
        if self._shadow is not None:
            self._shadow.remove(node, key)
            self._shadow.verify_shard(node, shard.contribs, shard.total)
        for observer in self._observers:
            observer(node)
        return True

    @staticmethod
    def _remove_from_shard(
        shard: _LedgerShard, node: str, key: ContributionKey
    ) -> bool:
        value = shard.contribs.pop(key, None)
        if value is None:
            return False
        shard.total -= value
        if not shard.contribs:
            # Snap to exactly zero when the last contribution leaves, so
            # float residue cannot accumulate across add/remove cycles.
            shard.total = 0.0
        if shard.total < 0:
            # Guard against float drift; totals are sums of removals of
            # previously added values so true negatives are impossible.
            if shard.total > -1e-12:
                shard.total = 0.0
            else:
                raise SchedulingError(
                    f"negative synthetic utilization on {node!r}"
                )
        return True

    # ------------------------------------------------------------------
    # Batched lifecycle (one notification per touched node)
    # ------------------------------------------------------------------
    def add_batch(
        self, entries: Iterable[Tuple[str, ContributionKey, float]]
    ) -> None:
        """Accrue many contributions at once.

        ``entries`` is applied **in order** (per-stage float accumulation
        is kept bit-identical to a loop of :meth:`add` calls); observers
        see one update per touched node instead of one per contribution.
        """
        touched: Dict[str, _LedgerShard] = {}
        try:
            for node, key, value in entries:
                shard = touched.get(node)
                if shard is None:
                    shard = self._shard(node)
                    touched[node] = shard
                self._add_to_shard(shard, node, key, value)
                if self._shadow is not None:
                    self._shadow.add(node, key, value)
        finally:
            self._notify_touched(touched)

    def remove_batch(self, entries: Iterable[Tuple[str, ContributionKey]]) -> int:
        """Remove many contributions at once; returns how many existed.

        Tolerant of absent keys like :meth:`remove`; nodes where nothing
        was actually removed are not notified.
        """
        removed = 0
        touched: Dict[str, _LedgerShard] = {}
        try:
            for node, key in entries:
                shard = touched.get(node)
                known = shard is not None
                if not known:
                    shard = self._shard(node)
                if self._remove_from_shard(shard, node, key):
                    removed += 1
                    if self._shadow is not None:
                        self._shadow.remove(node, key)
                    if not known:
                        touched[node] = shard
        finally:
            self._notify_touched(touched)
        return removed

    def _notify_touched(self, touched: Dict[str, _LedgerShard]) -> None:
        for node, shard in touched.items():
            if self._shadow is not None:
                self._shadow.verify_shard(node, shard.contribs, shard.total)
            for observer in self._observers:
                observer(node)

    def contains(self, node: str, key: ContributionKey) -> bool:
        return key in self._shard(node).contribs

    def utilization(self, node: str) -> float:
        """Current synthetic utilization U_j(t) of ``node``."""
        return self._shard(node).total

    def utilization_or_zero(self, node: str) -> float:
        """Like :meth:`utilization` but 0.0 for unknown processors (the
        tolerance the admission test extends to hypothetical nodes)."""
        shard = self._shards.get(node)
        return shard.total if shard is not None else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Copy of all current synthetic utilizations."""
        return {node: shard.total for node, shard in self._shards.items()}

    def contribution_count(self, node: str) -> int:
        return len(self._shard(node).contribs)


class AubAnalyzer:
    """System-wide AUB admission testing over a ledger — incremental engine.

    The analyzer tracks the *visit lists* of all tasks that currently hold
    contributions, because condition (1) must keep holding for **every**
    admitted task when a new one is admitted.  Two structures keep the
    test cheap:

    * ``f(U_j)`` is cached per node and invalidated by the ledger's change
      listener, so unchanged processors never recompute the term;
    * expirations sit in a min-heap popped as time advances, replacing the
      per-test linear sweep over the whole registry (the heap is compacted
      during :meth:`prune` when lazily-invalidated stale entries outnumber
      live ones).

    A test rescans the candidate and every live registration under the
    cached terms, with the candidate's nodes at their hypothetical
    ``f(max(0, U + delta))``; each sum runs in visit order and stops at
    the first prefix over the bound.  Decisions are those of the direct
    transcription of condition (1) (the test oracle snapshots the ledger
    and recomputes every term).

    :meth:`batch_session` extends the same test to a burst of simultaneous
    arrivals: prune and screen run once, and each accepted candidate costs
    only O(changed nodes) overlay updates — no ledger mutation, no cache
    invalidation.

    With numpy, the burst screen reads a matrix with one row of
    per-ledger-node visit counts per registration, built from the
    registry at the analyzer's first screen and kept up to date by
    :meth:`register` and :meth:`_detach` from then on (analyzers that
    never screen never build it, nor import numpy).
    """

    #: Compact the expiry heap only beyond this size (below it, lazy
    #: skipping is cheaper than rebuilding).
    _HEAP_COMPACT_MIN = 64

    def __init__(self, ledger: SyntheticUtilizationLedger) -> None:
        self.ledger = ledger
        #: registrant key -> (visit list, expiry time or None)
        self._visits: Dict[Tuple[str, int], Tuple[Sequence[str], Optional[float]]] = {}
        #: node -> cached f(U_j) under the current ledger state
        self._node_terms: Dict[str, float] = {}
        #: nodes whose cached term the ledger invalidated since the last
        #: fill (an insertion-ordered set)
        self._stale_nodes: Dict[str, None] = dict.fromkeys(ledger.nodes)
        #: (expiry, key) min-heap with lazy invalidation
        self._expiry_heap: List[Tuple[float, Tuple[str, int]]] = []
        #: Upper bound on stale heap entries (re-registered or
        #: unregistered keys whose old entry still sits in the heap);
        #: drives compaction in :meth:`prune`.
        self._expiry_stale = 0
        #: The array screen's visit-count matrix (numpy only; None until
        #: the first burst screen, and always on the loop): row
        #: ``_row_of[key]`` counts the visits of registration ``key`` to
        #: each ledger node, in column order ``_col_of``.  ``_row_keys``
        #: maps each row in use back to its key; rows in use that no
        #: registration holds are zero, map to None and are listed in
        #: ``_free_rows``.
        self._rows = None
        self._col_of: Dict[str, int] = {}
        self._row_of: Dict[Tuple[str, int], int] = {}
        self._row_keys: List[Optional[Tuple[str, int]]] = []
        self._free_rows: List[int] = []
        self.tests_performed = 0
        #: Burst-admission sessions opened (observability; see
        #: MiddlewareSystem._publish_final_metrics).
        self.batch_sessions = 0
        # REPRO_SANITIZE=1 (checked once, at construction): audit the
        # caches against a fresh recompute at every admission entry point.
        self._sanitize = sanitize_enabled()
        # REPRO_PURE_PYTHON=1 (checked once, at construction) keeps the
        # burst screen on the Python loop; so does a missing numpy, found
        # at the first screen (:meth:`_build_rows`).
        self._array_screen = not pure_python_forced()
        #: The session :meth:`admissible` tests through: no overlay, no
        #: screen, and the live term cache in place of a copy.
        self._live = BatchAdmissionSession(self, self._node_terms)
        ledger.subscribe(self._on_ledger_change)

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------
    def _on_ledger_change(self, node: str) -> None:
        self._node_terms.pop(node, None)
        self._stale_nodes[node] = None

    def _fill_stale_terms(self) -> Dict[str, float]:
        """Recompute the cached ``f(U_j)`` of every node the ledger changed
        since the last fill, and return the cache.

        Afterwards the cache holds the current term of every ledger node
        (all of them are stale at construction), so a node missing from
        it is unknown to the ledger and its term is ``f(0) = 0.0``: loops
        read ``terms.get(node, 0.0)``.  Sessions never mutate
        the ledger, so the cache stays complete until they end.
        """
        stale = self._stale_nodes
        terms = self._node_terms
        if stale:
            utilization = self.ledger.utilization_or_zero
            for node in stale:
                terms[node] = aub_term(utilization(node))
            stale.clear()
        return terms

    def _screen_burst(
        self, umax_terms: Mapping[str, float]
    ) -> Tuple[Set[Tuple[str, int]], Set[Tuple[str, int]], Dict[str, float]]:
        """The worst-case burst screen of every registration.

        ``umax_terms`` maps each node a burst can touch to ``f`` of the
        highest total the burst can reach there.  Burst deltas are
        non-negative and ``f`` is monotone, so every state inside the
        burst lies at or below that envelope node-wise: a registration
        whose condition holds under the screen terms (the current ones,
        burst nodes at ``umax_terms``) by at least :data:`SCREEN_GUARD`
        (which absorbs ulp-scale float wobble) can never fail inside the
        burst, and cannot be over the bound now either.

        The screen is :meth:`_screen_rows` with numpy (imported at the
        first screen) and every burst node known to the ledger, otherwise
        the loop below, which screens every registration as the product
        does.  Each registration over the screen's bound is rechecked
        exactly, in visit order under the current terms.  Returns the
        watch set (the over ones that visit a burst node), the violators
        (the over ones whose current condition already fails) and the
        screen terms.
        """
        terms = self._fill_stale_terms()
        screen_terms = {**terms, **umax_terms}
        bound = 1.0 + EPSILON
        screen_bound = bound - SCREEN_GUARD
        registry = self._visits
        over = None
        if self._rows is None and self._array_screen:
            self._build_rows()
        if self._rows is not None and self._col_of.keys() >= umax_terms.keys():
            over = self._screen_rows(screen_terms, screen_bound)
        if over is None:
            over = [
                key
                for key, (route, _expiry) in registry.items()
                if _exceeds(route, screen_terms, screen_bound)
            ]
        watch: Set[Tuple[str, int]] = set()
        violators: Set[Tuple[str, int]] = set()
        for key in over:
            route = registry[key][0]
            if _exceeds(route, terms, bound):
                violators.add(key)
            if not umax_terms.keys().isdisjoint(route):
                watch.add(key)
        return watch, violators, screen_terms

    def _screen_rows(
        self, screen_terms: Mapping[str, float], screen_bound: float
    ) -> List[Tuple[str, int]]:
        """The burst screen as one matrix-vector product.

        Every registration's total under ``screen_terms`` comes out of one
        product of the visit-count rows with the term vector; the keys
        whose total passes ``screen_bound`` are returned.  The product
        sums in another order than the visits, a few ulps (~1e-15) from
        the visit-order total, far inside :data:`SCREEN_GUARD`.
        """
        import numpy as np

        vector = np.array([screen_terms[node] for node in self._col_of])
        np.minimum(vector, _SCREEN_TERM_CAP, out=vector)
        row_keys = self._row_keys
        totals = self._rows[: len(row_keys)].dot(vector)
        return [
            row_keys[row]
            for row in (totals > screen_bound).nonzero()[0].tolist()
        ]

    def _build_rows(self) -> None:
        """Build the visit-count matrix from the current registry, or,
        where numpy is not installed, leave this analyzer on the loop."""
        try:
            import numpy as np
        except ModuleNotFoundError:
            self._array_screen = False
            return
        nodes = self.ledger.nodes
        self._col_of = {node: col for col, node in enumerate(nodes)}
        capacity = max(16, 2 * len(self._visits))
        self._rows = np.zeros((capacity, len(self._col_of)))
        for key, (visits, _expiry) in self._visits.items():
            self._attach_row(key, visits)

    def _attach_row(self, key: Tuple[str, int], visits: Sequence[str]) -> None:
        """Give ``key`` a zero row (a freed one first, else the next
        unused one, doubling the matrix when full) and count its visits."""
        if self._free_rows:
            row = self._free_rows.pop()
            self._row_keys[row] = key
        else:
            row = len(self._row_keys)
            rows = self._rows
            if row == len(rows):
                import numpy as np

                grown = np.zeros((2 * row, rows.shape[1]))
                grown[:row] = rows
                self._rows = grown
            self._row_keys.append(key)
        self._row_of[key] = row
        counts = self._rows[row]
        col_of = self._col_of
        for node in visits:
            col = col_of.get(node)
            if col is not None:
                counts[col] += 1.0

    def _sanitize_audit_caches(self) -> None:
        """Cached ``f(U_j)`` terms and the array screen's visit-count rows
        vs a fresh recompute, bit for bit (``REPRO_SANITIZE=1`` only).

        The engine's correctness rests on one invariant: a cached term
        either matches what :func:`aub_term` gives for the current ledger
        state, or its node is stale.  This audit recomputes every cached
        per-node term and, once the matrix exists, every registration's
        row from its visit list; it fails on the first mismatch.
        """
        ledger = self.ledger
        for node in sorted(self._node_terms):
            cached = self._node_terms[node]
            fresh = aub_term(ledger.utilization_or_zero(node))
            if cached != fresh:
                raise SanitizeViolation(
                    f"sanitize: analyzer cached f(U) term for node "
                    f"{node!r} is {cached!r} but the ledger state gives "
                    f"{fresh!r} — a ledger mutation bypassed the change "
                    "listener"
                )
        rows = self._rows
        if rows is None:
            return
        # The array screen's matrix: one row per live registration, equal
        # to its visit counts over the ledger's nodes; every other row zero.
        held = set(self._row_of.values())
        if self._row_of.keys() != self._visits.keys() or len(held) != len(
            self._row_of
        ):
            raise SanitizeViolation(
                "sanitize: analyzer visit-count rows do not map each live "
                "registration to exactly one row of its own"
            )
        col_of = self._col_of
        for key in sorted(self._visits):
            row = self._row_of[key]
            counts = [0.0] * len(col_of)
            for node in self._visits[key][0]:
                col = col_of.get(node)
                if col is not None:
                    counts[col] += 1.0
            if rows[row].tolist() != counts or self._row_keys[row] != key:
                raise SanitizeViolation(
                    f"sanitize: analyzer visit-count row {row} of "
                    f"registration {key!r} is {rows[row].tolist()!r} but "
                    f"its visits give {counts!r}"
                )
        for row in range(len(rows)):
            if row not in held and rows[row].any():
                raise SanitizeViolation(
                    f"sanitize: analyzer visit-count row {row} holds no "
                    f"registration but is {rows[row].tolist()!r}, not zero"
                )

    def _sanitize_audit_violators(
        self, violators: Set[Tuple[str, int]]
    ) -> None:
        """A screen's violators vs a fresh visit-order recompute of every
        registration's condition (``REPRO_SANITIZE=1`` only)."""
        utilization = self.ledger.utilization_or_zero
        fresh = {
            key
            for key, (route, _expiry) in self._visits.items()
            if not task_condition_holds([utilization(node) for node in route])
        }
        if violators != fresh:
            raise SanitizeViolation(
                f"sanitize: the burst screen names violators "
                f"{sorted(violators)!r} but a visit-order recompute of the "
                f"registrations over the bound gives {sorted(fresh)!r}"
            )

    # ------------------------------------------------------------------
    # Current-task registry
    # ------------------------------------------------------------------
    def register(
        self,
        key: Tuple[str, int],
        visits: Sequence[str],
        expiry: Optional[float],
    ) -> None:
        """Record that the task/job ``key`` visits ``visits`` until ``expiry``.

        The analyzer takes ownership of ``visits`` (callers pass freshly
        built lists); re-registering a key replaces its previous entry.
        """
        old = self._visits.get(key)
        if old is not None:
            if old[1] is not None:
                # The old registration's heap entry is now stale.
                self._expiry_stale += 1
            self._detach(key)
        self._visits[key] = (visits, expiry)
        if expiry is not None:
            heapq.heappush(self._expiry_heap, (expiry, key))
        if self._rows is not None:
            self._attach_row(key, visits)

    def _detach(self, key: Tuple[str, int]) -> None:
        """Zero and free ``key``'s visit-count row, once the matrix exists."""
        if self._rows is not None:
            row = self._row_of.pop(key)
            self._rows[row] = 0.0
            self._row_keys[row] = None
            self._free_rows.append(row)

    def unregister(self, key: Tuple[str, int]) -> None:
        entry = self._visits.pop(key, None)
        if entry is not None:
            if entry[1] is not None:
                # Its heap entry outlives the registration — now stale.
                self._expiry_stale += 1
            self._detach(key)

    def prune(self, now: float) -> None:
        """Retire registry entries whose expiry has passed.

        Stale heap entries (keys re-registered with a different expiry, or
        already unregistered) are skipped lazily on pop; when they come to
        outnumber the live entries the heap is compacted — rebuilt from
        the registry — so churn-heavy runs (relocations, per-job
        re-registrations) cannot grow the heap without bound.
        """
        heap = self._expiry_heap
        limit = now + EPSILON
        visits = self._visits
        while heap and heap[0][0] <= limit:
            expiry, key = heapq.heappop(heap)
            entry = visits.get(key)
            if entry is not None and entry[1] == expiry:
                del visits[key]
                self._detach(key)
            elif self._expiry_stale > 0:
                self._expiry_stale -= 1
        if (
            len(heap) >= self._HEAP_COMPACT_MIN
            and self._expiry_stale * 2 > len(heap)
        ):
            self._compact_expiry_heap()

    def _compact_expiry_heap(self) -> None:
        """Rebuild the expiry heap from live registrations only."""
        self._expiry_heap = [
            (expiry, key)
            for key, (_visits, expiry) in self._visits.items()
            if expiry is not None
        ]
        heapq.heapify(self._expiry_heap)
        self._expiry_stale = 0

    @property
    def registered(self) -> int:
        return len(self._visits)

    # ------------------------------------------------------------------
    # Admission testing
    # ------------------------------------------------------------------
    def admissible(
        self,
        candidate_visits: Sequence[str],
        candidate_contribs: Mapping[str, float],
        now: float,
        exclude: Optional[Tuple[str, int]] = None,
    ) -> bool:
        """Would the system stay schedulable after adding the candidate?

        Parameters
        ----------
        candidate_visits:
            Processor list the candidate task visits (one per stage).
        candidate_contribs:
            node -> synthetic-utilization delta the candidate adds.  Deltas
            may be negative when evaluating a *relocation* of an already
            admitted task (contributions move between processors).
        now:
            Current time; expired registry entries are retired first.
        exclude:
            Registry key whose old visit list should be ignored (the task
            being relocated; its new visit list is ``candidate_visits``).

        Prune and the refill of stale node terms run first; the test
        itself is :meth:`BatchAdmissionSession._test` on the analyzer's
        own session, whose overlay stays empty and which reads the term
        cache in place, so a call opens no session.
        """
        if self._sanitize:
            self._sanitize_audit_caches()
        self.prune(now)
        self._fill_stale_terms()
        return self._live._test(candidate_visits, candidate_contribs, exclude)

    def admissible_batch(
        self,
        candidates: Sequence[Tuple[Sequence[str], Sequence[Tuple[str, float]]]],
        now: float,
    ) -> List[bool]:
        """Greedy burst admission of ``(visits, stage_contribs)`` arrivals:
        one :meth:`batch_session` screened by the burst's summed stage
        deltas, one :meth:`BatchAdmissionSession.try_admit` per candidate,
        in order.  The ledger and registry are untouched."""
        demand: Dict[str, float] = {}
        for _visits, stage_contribs in candidates:
            for node, value in stage_contribs:
                demand[node] = demand.get(node, 0.0) + value
        session = self.batch_session(now, demand)
        return [session.try_admit(visits, stages) for visits, stages in candidates]

    def batch_session(
        self, now: float, demand: Optional[Mapping[str, float]] = None
    ) -> "BatchAdmissionSession":
        """Open a burst-admission session at ``now``.

        Prune runs once here, then, given ``demand``, the worst-case
        screen (:meth:`_screen_burst`).  ``demand`` maps node -> the most
        synthetic utilization the whole burst could add there: the AC
        counts every stage of every queued arrival on each processor it
        may be placed on.  A registered task whose condition holds under
        the envelope's totals can never fail inside the burst and is
        exempt from every rescan.  Every candidate later offered to
        ``try_admit`` must stay inside the envelope, or the screen is
        unsound.  Without ``demand`` every test rescans every
        registration and every accepted candidate.
        """
        if self._sanitize:
            self._sanitize_audit_caches()
        self.batch_sessions += 1
        self.prune(now)
        if demand is None:
            return BatchAdmissionSession(self, dict(self._fill_stale_terms()))
        utilization = self.ledger.utilization_or_zero
        watch, violators, screen_terms = self._screen_burst(
            {
                node: aub_term(utilization(node) + extra)
                for node, extra in demand.items()
            }
        )
        if self._sanitize:
            self._sanitize_audit_violators(violators)
        return BatchAdmissionSession(
            self, dict(self._node_terms), screen_terms, watch, violators
        )


def _exceeds(
    route: Iterable[str], terms: Mapping[str, float], bound: float
) -> bool:
    """Whether the visit-order sum of ``terms`` over ``route`` passes
    ``bound`` (a node without a term counts 0.0).  Terms are non-negative,
    so the first prefix over the bound decides."""
    total = 0.0
    for node in route:
        total += terms.get(node, 0.0)
        if total > bound:
            return True
    return False


class BatchAdmissionSession:
    """The AUB admission test, over the ledger plus a burst's overlay.

    :meth:`_test` is the incremental engine's one implementation of
    condition (1).  :meth:`AubAnalyzer.admissible` runs it on the
    analyzer's own session, whose overlay stays empty.  A burst session
    (:meth:`AubAnalyzer.batch_session`) accepts candidates one by one
    through :meth:`try_admit`, which folds each accepted candidate into
    the overlay: running per-node totals and the ``f`` terms of the nodes
    they changed.  :meth:`utilization` is the load balancer's view of the
    same state, so each placement scores nodes against the placements
    accepted before it.

    Decisions and floats are **bit-identical** to testing each candidate
    with the direct transcription of condition (1) and committing it
    stage by stage before testing the next: overlay totals replay the
    per-stage additions a ledger commit performs, hypothetical totals use
    the same ``max(0, U + delta)`` expression, and every sum runs in
    visit order with the same early exit.  Without a screen, a test
    rescans every registration and every accepted candidate.  A screened
    session (one opened with a demand envelope) rescans only the
    registrations and accepted candidates its screen left on watch, on
    the nodes the candidate would change, and rejects a candidate
    outright while one of its violators (the registrations already over
    the bound) visits none of those nodes.

    A burst session models arrivals at one instant: stage contributions
    are non-negative and ``now`` is fixed when it opens.  It never
    touches the ledger or the registry; the caller commits the accepted
    candidates afterwards (one :meth:`SyntheticUtilizationLedger.add_batch`
    over their stage contributions in acceptance order, then
    ``register()`` each).
    """

    __slots__ = (
        "_analyzer",
        "_terms",
        "_screen_terms",
        "_watch",
        "_violators",
        "_over_totals",
        "_accepted_by_node",
        "_accepted_visits",
    )

    def __init__(
        self,
        analyzer: AubAnalyzer,
        terms: Dict[str, float],
        screen_terms: Optional[Dict[str, float]] = None,
        watch: Iterable[Tuple[str, int]] = (),
        violators: AbstractSet[Tuple[str, int]] = frozenset(),
    ) -> None:
        self._analyzer = analyzer
        #: f() of every ledger node under ledger + overlay.
        self._terms = terms
        #: The screen's terms (current, burst nodes at the envelope), or
        #: None for a session without a screen.
        self._screen_terms = screen_terms
        #: node -> the registrations on watch that visit it (screened
        #: sessions only).
        self._watch: Optional[Dict[str, Set[Tuple[str, int]]]] = None
        if screen_terms is not None:
            self._watch = {}
            registry = analyzer._visits
            for key in watch:
                for node in registry[key][0]:
                    keys = self._watch.get(node)
                    if keys is None:
                        self._watch[node] = {key}
                    else:
                        keys.add(key)
        #: Registrations over the bound when the screen ran.
        self._violators = violators
        #: Post-commit totals of the nodes accepted candidates touched.
        self._over_totals: Dict[str, float] = {}
        #: node -> indices of the watched accepted candidates visiting it
        #: (screened sessions only).
        self._accepted_by_node: Dict[str, Set[int]] = {}
        #: The accepted candidates a test rescans: every one without a
        #: screen, the watched ones with it.
        self._accepted_visits: List[Sequence[str]] = []

    def utilization(self, node: str) -> float:
        """The planner's view: the overlay total where this burst already
        placed something, the live ledger total otherwise (the floats a
        ledger commit would have produced)."""
        total = self._over_totals.get(node)
        if total is None:
            return self._analyzer.ledger.utilization(node)
        return total

    def try_admit(
        self,
        visits: Sequence[str],
        stage_contribs: Sequence[Tuple[str, float]],
    ) -> bool:
        """Test an arrival under ledger + overlay; on success fold it into
        the overlay and return True.

        ``stage_contribs`` lists the arrival's ``(node, utilization)``
        stage contributions in commit order.  The overlay replays them
        one addition at a time, as the ledger will, because float
        addition is not associative.  An accept costs O(changed nodes):
        no ledger mutation, no cache invalidation.
        """
        contribs: Dict[str, float] = {}
        for node, value in stage_contribs:
            contribs[node] = contribs.get(node, 0.0) + value
        if not self._test(visits, contribs):
            return False
        utilization = self._analyzer.ledger.utilization_or_zero
        over_totals = self._over_totals
        for node, value in stage_contribs:
            base = over_totals.get(node)
            if base is None:
                base = utilization(node)
            over_totals[node] = base + value
        terms = self._terms
        for node in contribs:
            terms[node] = aub_term(over_totals[node])
        screen_terms = self._screen_terms
        if screen_terms is None:
            self._accepted_visits.append(visits)
            return True
        # Screen the accepted candidate against the envelope like a
        # registered task: only a watched one is ever rescanned.
        if not _exceeds(visits, screen_terms, 1.0 + EPSILON - SCREEN_GUARD):
            return True
        index = len(self._accepted_visits)
        self._accepted_visits.append(visits)
        accepted_by_node = self._accepted_by_node
        for node in contribs:
            members = accepted_by_node.get(node)
            if members is None:
                accepted_by_node[node] = {index}
            else:
                members.add(index)
        return True

    def _test(
        self,
        visits: Sequence[str],
        contribs: Mapping[str, float],
        exclude: Optional[Tuple[str, int]] = None,
    ) -> bool:
        """Condition (1) for the candidate and for every current task,
        under ledger + overlay + ``contribs``.

        ``contribs`` maps node -> the candidate's delta there (negative on
        the nodes a relocation leaves); ``exclude`` is the registration a
        relocation replaces.  A saturated node's term is ``inf``, so the
        sums reject it without a separate check.
        """
        analyzer = self._analyzer
        analyzer.tests_performed += 1
        utilization = analyzer.ledger.utilization_or_zero
        over_totals = self._over_totals
        terms = self._terms
        bound = 1.0 + EPSILON
        # f() of each touched node's hypothetical post-admission total.
        hyp: Dict[str, float] = {}
        for node, extra in contribs.items():
            base = over_totals.get(node)
            if base is None:
                base = utilization(node)
            hyp[node] = aub_term(max(0.0, base + extra))
        # The candidate's own condition.
        total = 0.0
        for node in visits:
            term = hyp.get(node)
            total += terms.get(node, 0.0) if term is None else term
            if total > bound:
                return False
        registry = analyzer._visits
        watch = self._watch
        if watch is None:
            # Every registration, then every accepted candidate.
            for key, (route, _expiry) in registry.items():
                if key == exclude:
                    continue
                total = 0.0
                for node in route:
                    term = hyp.get(node)
                    total += terms.get(node, 0.0) if term is None else term
                    if total > bound:
                        return False
            routes = self._accepted_visits
        else:
            # Only a task visiting a node whose total would change can see
            # its condition move: the watched registrations and accepted
            # candidates there.  A violator anywhere else stays over the
            # bound whatever the candidate does.
            affected: Set[Tuple[str, int]] = set()
            affected_accepted: Set[int] = set()
            accepted_by_node = self._accepted_by_node
            for node, extra in contribs.items():
                if extra == 0.0:
                    continue
                keys = watch.get(node)
                if keys:
                    affected.update(keys)
                indices = accepted_by_node.get(node)
                if indices:
                    affected_accepted.update(indices)
            for key in self._violators:
                if key != exclude and key not in affected:
                    return False
            routes = []
            for key in affected:
                if key != exclude:
                    routes.append(registry[key][0])
            accepted = self._accepted_visits
            for index in affected_accepted:
                routes.append(accepted[index])
        for route in routes:
            total = 0.0
            for node in route:
                term = hyp.get(node)
                total += terms.get(node, 0.0) if term is None else term
                if total > bound:
                    return False
        return True
