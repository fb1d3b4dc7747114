"""The test oracle of the AUB admission engine.

:class:`NaiveAubAnalyzer` is the direct transcription of condition (1):
snapshot the ledger, apply the candidate's deltas, then recompute every
registered task's condition from scratch.  The property and scripted
tests assert that :class:`repro.sched.aub.AubAnalyzer` decides exactly as
it does, per call and per burst.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.sched.aub import EPSILON, SyntheticUtilizationLedger, task_condition_holds


class NaiveAubAnalyzer:
    """Reference implementation: full-registry rescan per admission test.

    This is the direct transcription of condition (1): snapshot the whole
    ledger, apply the candidate's deltas, then re-evaluate every registered
    task.  O(tasks * visits) per test plus an O(tasks) expiry sweep —
    kept verbatim so property tests can assert the incremental
    :class:`AubAnalyzer` agrees decision-for-decision.
    """

    def __init__(self, ledger: SyntheticUtilizationLedger) -> None:
        self.ledger = ledger
        self._visits: Dict[Tuple[str, int], Tuple[List[str], Optional[float]]] = {}
        self.tests_performed = 0

    def register(
        self,
        key: Tuple[str, int],
        visits: Sequence[str],
        expiry: Optional[float],
    ) -> None:
        self._visits[key] = (list(visits), expiry)

    def unregister(self, key: Tuple[str, int]) -> None:
        self._visits.pop(key, None)

    def prune(self, now: float) -> None:
        expired = [
            k
            for k, (_visits, expiry) in self._visits.items()
            if expiry is not None and expiry <= now + EPSILON
        ]
        for k in expired:
            del self._visits[k]

    @property
    def registered(self) -> int:
        return len(self._visits)

    def admissible(
        self,
        candidate_visits: Sequence[str],
        candidate_contribs: Mapping[str, float],
        now: float,
        exclude: Optional[Tuple[str, int]] = None,
    ) -> bool:
        self.tests_performed += 1
        self.prune(now)
        totals = self.ledger.snapshot()
        for node, extra in candidate_contribs.items():
            totals[node] = max(0.0, totals.get(node, 0.0) + extra)
        for node in set(candidate_visits):
            if totals.get(node, 0.0) >= 1.0:
                return False
        if not task_condition_holds([totals[n] for n in candidate_visits]):
            return False
        for key, (visits, _expiry) in self._visits.items():
            if exclude is not None and key == exclude:
                continue
            if not task_condition_holds([totals.get(n, 0.0) for n in visits]):
                return False
        return True

    def admissible_batch(
        self,
        candidates: Sequence[Tuple[Sequence[str], Sequence[Tuple[str, float]]]],
        now: float,
    ) -> List[bool]:
        """Reference burst admission: the literal sequential loop.

        Each ``(visits, stage_contribs)`` candidate is tested exactly like
        :meth:`admissible` against the running totals; an accepted
        candidate's stage contributions are folded into the totals (in
        commit order) and its visit list joins the rescan set, exactly as
        if it had been committed to the ledger and registered before the
        next test.
        """
        self.prune(now)
        totals = self.ledger.snapshot()
        accepted: List[Sequence[str]] = []
        decisions: List[bool] = []
        for visits, stage_contribs in candidates:
            self.tests_performed += 1
            contribs: Dict[str, float] = {}
            for node, value in stage_contribs:
                contribs[node] = contribs.get(node, 0.0) + value
            trial = dict(totals)
            for node, extra in contribs.items():
                trial[node] = max(0.0, trial.get(node, 0.0) + extra)
            ok = True
            for node in set(visits):
                if trial.get(node, 0.0) >= 1.0:
                    ok = False
                    break
            if ok and not task_condition_holds(
                [trial[n] for n in visits]
            ):
                ok = False
            if ok:
                for _key, (route, _expiry) in self._visits.items():
                    if not task_condition_holds(
                        [trial.get(n, 0.0) for n in route]
                    ):
                        ok = False
                        break
            if ok:
                for route in accepted:
                    if not task_condition_holds(
                        [trial.get(n, 0.0) for n in route]
                    ):
                        ok = False
                        break
            decisions.append(ok)
            if ok:
                for node, value in stage_contribs:
                    totals[node] = totals.get(node, 0.0) + value
                accepted.append(visits)
        return decisions
