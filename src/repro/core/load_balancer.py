"""Load Balancing (LB) component.

One LB instance runs on the task-manager processor next to the AC.  It
receives "Location" method calls (facet/receptacle) from the AC and
returns an assignment plan that balances synthetic utilization: each
subtask goes to the eligible processor (home or replica, criterion C3)
with the lowest synthetic utilization at decision time — the paper's
heuristic.  When accepting a new task only that task's assignment is
decided; already-admitted tasks are never moved (paper section 4.4),
except that under AC-per-task + LB-per-job the reservation of the *same*
task may be relocated when one of its jobs arrives.

The LB only plans.  The AC runs the AUB admission test on every plan,
once, and rejects an inadmissible one like any other arrival.  Plans
score nodes against a utilization source: the AC's live ledger, or the
open burst session's overlay during a batched drain.  Relocation plans
read the ledger the AC shares through the ``admission_state`` facet.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ccm.component import AttributeSpec, Component
from repro.ccm.ports import Facet, Receptacle
from repro.core.runtime import RuntimeEnv
from repro.errors import ComponentError
from repro.sched.task import Job, TaskSpec


class LoadBalancerComponent(Component):
    """Lowest-synthetic-utilization placement over replicated components."""

    ATTRIBUTES = {
        "strategy": AttributeSpec(
            str,
            default="T",
            validator=lambda v: v in ("N", "T", "J"),
            doc="Mirror of the deployment's LB strategy (informational; the "
            "AC component drives when Location calls happen).",
        ),
    }

    def __init__(self, name: str, env: RuntimeEnv) -> None:
        super().__init__(name)
        self.env = env
        self._state = Receptacle(self, "admission_state")
        self.location_calls = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def provide_location_facet(self) -> Facet:
        """The facet the AC's ``locator`` receptacle connects to."""
        return Facet(self, "location", self)

    def connect_admission_state(self, facet: Facet) -> None:
        self._state.connect(facet)

    def on_activate(self) -> None:
        if not self._state.connected:
            raise ComponentError(
                f"LB {self.name!r}: admission_state receptacle not connected"
            )

    # ------------------------------------------------------------------
    # Location interface (called synchronously by the AC)
    # ------------------------------------------------------------------
    def location(self, job: Job, source) -> Dict[int, str]:
        """Plan an assignment for ``job`` against ``source``.

        Greedy heuristic: stage by stage, pick the eligible processor with
        the lowest synthetic utilization, counting what this plan has
        already placed.  ``source`` is anything with ``utilization(node)``:
        the live ledger, or a
        :class:`~repro.sched.aub.BatchAdmissionSession`, whose overlay
        holds the placements accepted earlier in the burst.
        """
        self.location_calls += 1
        return self._greedy_plan(job.task, source)

    #: The per-layer tracer in ``bench_e2e/layer_trace.py`` patches this
    #: name; it goes with the tracer's span wrappers (ROADMAP item 5).
    location_in_batch = location

    def location_for_reserved(
        self, task: TaskSpec, current: Dict[int, str]
    ) -> Optional[Dict[int, str]]:
        """Plan a move of an already-reserved task (AC-per-task +
        LB-per-job), or None when the plan keeps ``current``.

        Each stage's own reservation is discounted on the node holding
        it, so the plan is not biased against staying put.
        """
        self.location_calls += 1
        assignment = self._greedy_plan(
            task, self._state().ledger, discount=current
        )
        return None if assignment == current else assignment

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _greedy_plan(
        self,
        task: TaskSpec,
        source,
        discount: Optional[Dict[int, str]] = None,
    ) -> Dict[int, str]:
        """Stage-by-stage lowest-utilization placement.

        ``discount`` maps subtask index -> node currently holding that
        subtask's reservation; the reservation's utilization is
        subtracted when scoring that node.
        """
        assignment: Dict[int, str] = {}
        added: Dict[str, float] = {}
        for subtask in task.subtasks:
            u = task.subtask_utilization(subtask.index)
            current = None if discount is None else discount.get(subtask.index)
            best = None
            best_score = None
            for node in subtask.eligible:
                base = source.utilization(node) + added.get(node, 0.0)
                if node == current:
                    base -= u
                score = (base, node)
                if best is None or score < best_score:
                    best = node
                    best_score = score
            assignment[subtask.index] = best
            added[best] = added.get(best, 0.0) + u
        return assignment
