"""Run a session and check that its subtask replicas died with the run.

A finished run uninstalls its application
(``MiddlewareSystem.run_plan``), so every subtask replica is freed by
reference counting before ``Session.run`` returns.  The check runs with
automatic collection off: a replica left on a reference cycle, or still
referenced by the deployment, outlives the run and fails it.
"""

from __future__ import annotations

import gc
import weakref

from repro.api import RunResult, Session


def run_freeing_replicas(session: Session) -> RunResult:
    """Deploy and run ``session`` with the cycle collector off, and
    assert that no subtask replica it deployed is alive when ``run()``
    returns.  Returns the run's result."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = session.deploy().env.subtask_instances
        replicas = [weakref.ref(stage) for stage in table.values()]
        del table
        assert replicas, "the scenario deploys no subtask replica"
        result = session.run()
        alive = [ref().name for ref in replicas if ref() is not None]
        assert not alive, (
            f"{len(alive)} of {len(replicas)} replicas outlived the run, "
            f"e.g. {alive[:3]}"
        )
    finally:
        if enabled:
            gc.enable()
    return result
