"""Admission decision records and the policy interface.

The Admission Control component delegates the actual schedulability
mathematics to an :class:`AdmissionPolicy`; the AUB policy used throughout
the paper lives in the AC component itself (it needs the shared ledger),
while :mod:`repro.sched.deferrable` provides the Deferrable Server baseline
policy for the ablation benchmark.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.sched.task import Job


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission test."""

    job_key: tuple
    admitted: bool
    tested_at: float
    assignment: Optional[Dict[int, str]] = None
    reason: str = ""


class AdmissionPolicy(ABC):
    """Interface for pluggable admission policies (used by the replay
    engine and the ablation benchmarks)."""

    @abstractmethod
    def on_arrival(self, job: Job, now: float) -> AdmissionDecision:
        """Test ``job`` at time ``now`` and commit state if admitted."""

    def on_arrival_batch(
        self, jobs: Sequence[Job], now: float
    ) -> List[AdmissionDecision]:
        """Decide a burst of simultaneous arrivals, in arrival order.

        The default is the literal sequential loop.  Policies with a
        batched fast path (the AUB engine's batch sessions) may override
        it; overrides must keep decisions bit-identical to this loop —
        the contract every batched hot path in the middleware is
        property-tested against.
        """
        return [self.on_arrival(job, now) for job in jobs]

    @abstractmethod
    def on_deadline(self, job: Job, now: float) -> None:
        """Reclaim any state reserved for ``job`` when its deadline expires."""

    def on_completion(self, job: Job, now: float) -> None:
        """Optional hook: a job finished before its deadline."""
