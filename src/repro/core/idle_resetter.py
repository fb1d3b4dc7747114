"""Idle Resetting (IR) component.

One IR instance runs on each application processor.  Subtask components
call its "Complete" facet when a subjob finishes; the IR records completed
subjobs and reports them to the AC from an **idle-detector thread** — a
lowest-priority dispatch thread that only runs when every application
subtask thread on the processor is idle, exactly the paper's mechanism.

Strategies (paper section 4.3):

* **No IR** — completions are ignored; contributions stay until the job
  deadline (cheapest, most pessimistic).
* **IR per Task** — only completed *aperiodic* subjobs are recorded and
  reported (each aperiodic job is an independent single-release task).
* **IR per Job** — completed *periodic* subjobs are reported too (largest
  reclamation, most overhead; incompatible with AC per task).

To avoid reporting repeatedly, a report is queued only when a newly
completed subjob whose deadline has not expired is recorded.

All completions recorded during one idle period travel in **one**
:class:`~repro.ccm.events.IdleResettingEvent` (the report coalesces the
whole pending set when the idle-detector thread finally runs), and the AC
applies that event with one ledger ``remove_batch`` — so an idle period
costs a single AUB cache refresh no matter how many subjobs it reclaims.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.ccm.component import AttributeSpec, Component
from repro.ccm.events import IdleResettingEvent, TOPIC_IDLE_RESETTING
from repro.ccm.ports import EventSourcePort, Facet
from repro.core.cost_model import OP_IR_REPORT
from repro.core.runtime import RuntimeEnv
from repro.cpu.thread import WorkItem
from repro.errors import ComponentError
from repro.sched.task import Job

#: Ledger contribution key reported to the AC: (task_id, job_index,
#: subtask_index).  The processor is carried once per report event, not
#: per entry — every entry in a report belongs to the idle processor.
ReportEntry = Tuple[str, int, int]


class IdleResetterComponent(Component):
    """Reports completed subjobs when the processor goes idle."""

    ATTRIBUTES = {
        "processor_id": AttributeSpec(
            str, required=True, doc="Name of the hosting application processor."
        ),
        "strategy": AttributeSpec(
            str,
            default="N",
            validator=lambda v: v in ("N", "T", "J"),
            doc="N: disabled; T: aperiodic subjobs only; J: all subjobs.",
        ),
    }

    def __init__(self, name: str, env: RuntimeEnv) -> None:
        super().__init__(name)
        self.env = env
        #: Completed subjobs awaiting report: entry -> absolute deadline.
        self._pending: Dict[ReportEntry, float] = {}
        self._report_queued = False
        self._thread = None
        self._source: Optional[EventSourcePort] = None
        #: The immutable ``strategy`` attribute, copied at activation.
        self._strategy = "N"
        self.completions_recorded = 0
        self.reports_sent = 0
        self.entries_reported = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_install(self, container) -> None:
        self._source = EventSourcePort(self, "idle_resetting")
        # The idle detector: lowest possible priority, so its work runs
        # only when the processor has nothing more urgent — i.e. when idle.
        self._thread = container.processor.new_thread(
            f"{self.name}.idle_detector", math.inf
        )

    def on_activate(self) -> None:
        if self.get_attribute("processor_id") != self.node:
            raise ComponentError(
                f"IR {self.name!r}: processor_id attribute "
                f"{self.get_attribute('processor_id')!r} does not match "
                f"deployment node {self.node!r}"
            )
        self._strategy = self.get_attribute("strategy")
        self.env.idle_resetters[self.node] = self

    def provide_complete_facet(self) -> Facet:
        """The facet subtask components call on subjob completion."""
        return Facet(self, "complete", self)

    # ------------------------------------------------------------------
    # Complete interface (called by F/I and Last Subtask components)
    # ------------------------------------------------------------------
    def complete(self, job: Job, subtask_index: int) -> None:
        """A subjob of ``job`` finished on this processor."""
        strategy = self._strategy
        if strategy == "N":
            return
        if strategy == "T" and job.task.is_periodic:
            # Per-task resetting reclaims aperiodic contributions only.
            return
        now = self.sim.now
        if job.absolute_deadline <= now:
            # The contribution is being removed by deadline expiry anyway.
            return
        entry: ReportEntry = (job.task.task_id, job.index, subtask_index)
        self._pending[entry] = job.absolute_deadline
        self.completions_recorded += 1
        self._ensure_report_queued()

    def _ensure_report_queued(self) -> None:
        if self._report_queued or not self._pending:
            return
        self._report_queued = True
        cost = self.env.cost_model.sample(OP_IR_REPORT, self.env.cost_rng)
        item = WorkItem(cost, label=f"{self.name}.report")
        item.on_complete = lambda _payload, _item=item: self._flush(_item)
        self.processor.submit(self._thread, item)

    def _flush(self, item: WorkItem) -> None:
        """The idle-detector work ran: report still-live completions."""
        self._report_queued = False
        now = self.sim.now
        entries = tuple(
            entry for entry, deadline in self._pending.items() if deadline > now
        )
        self._pending.clear()
        if not entries:
            return
        self.reports_sent += 1
        self.entries_reported += len(entries)
        event = IdleResettingEvent(node=self.node, entries=entries)
        if self.tracer.enabled:
            self.tracer.record(now, "ir.report", self.node, entries=len(entries))
        # The report's contribution to overhead is op7 (the idle-time work
        # itself — preemptions of the idle detector by application work are
        # not middleware overhead) plus the communication hop; the AC-side
        # op8 is recorded by the AC.
        self._source.push(self.env.manager_node, TOPIC_IDLE_RESETTING, event)
        self.env.overhead.record_ir_other(item.cost + self._expected_comm_delay())

    def _expected_comm_delay(self) -> float:
        """Mean one-way delay for the overhead decomposition row.

        The actual event hop samples its own delay inside the network
        layer; for the Figure 8 "IR (other part)" row the paper adds the
        measured communication delay to the report cost, so we use the
        network's running mean (or the model mean before any samples).
        """
        stats = self.env.network.delay_stats
        if stats.count > 0:
            return stats.mean
        return self.env.network.default_delay.mean()
