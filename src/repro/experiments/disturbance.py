"""Disturbance injection: probing the boundaries of the AUB guarantee.

The paper's guarantee — every *admitted* job meets its end-to-end
deadline — rests on three assumptions the simulator lets us break on
purpose:

* **Arrival bursts** do *not* break it: admission control is exactly the
  mechanism that sheds excess load (:func:`run_burst_scenario`).
* **Processor slowdown** breaks the known-execution-time assumption:
  subjobs overrun their declared WCET and deadlines are missed
  (:func:`run_slowdown_scenario`).
* **Network congestion** breaks the negligible-overhead assumption: the
  admission round trip eats tight deadlines and the AC's state goes
  stale (:func:`repro.experiments.sensitivity.sweep_network_delay`).

These scenarios double as regression tests that the middleware *fails
the way the theory predicts* — a stronger check than only testing the
happy path.

Disturbances are first-class :class:`~repro.api.scenario.Scenario` data
(:class:`~repro.api.scenario.Burst` / ``Slowdown`` hooks), so the same
multiprocessing runner that fans out the paper figures executes
disturbance grids too — deterministically for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.api.scenario import Burst, Scenario, Slowdown, WorkloadSource
from repro.api.session import RunResult, Session
from repro.api.suite import ExperimentSuite
from repro.workloads.generator import RandomWorkloadParams
from repro.workloads.model import Workload


@dataclass
class DisturbanceResult:
    """Outcome of one disturbance scenario."""

    scenario: str
    accepted_utilization_ratio: float
    deadline_misses: int
    released_jobs: int
    rejected_jobs: int
    detail: Dict[str, float]


def _source(
    seed: int,
    params: Optional[RandomWorkloadParams],
    workload: Optional[Workload],
) -> WorkloadSource:
    if workload is not None:
        return WorkloadSource.explicit(workload)
    # The historical scenarios drew their workload from the "wl" stream.
    return WorkloadSource.random(seed=seed, params=params, stream="wl")


def build_burst_scenario(
    duration: float = 60.0,
    burst_time: float = 20.0,
    burst_jobs: int = 30,
    seed: int = 2008,
    combo_label: str = "J_J_N",
    params: Optional[RandomWorkloadParams] = None,
    workload: Optional[Workload] = None,
) -> Scenario:
    """The arrival-burst disturbance as a declarative scenario."""
    return Scenario(
        workload=_source(seed, params, workload),
        combo=combo_label,
        duration=duration,
        seed=seed,
        disturbances=(Burst(time=burst_time, jobs=burst_jobs),),
        label="arrival_burst",
    )


def build_slowdown_scenario(
    duration: float = 60.0,
    slowdown_time: float = 20.0,
    slow_factor: float = 0.25,
    seed: int = 2008,
    combo_label: str = "J_N_N",
    params: Optional[RandomWorkloadParams] = None,
    workload: Optional[Workload] = None,
) -> Scenario:
    """The processor-slowdown disturbance as a declarative scenario."""
    return Scenario(
        workload=_source(seed, params, workload),
        combo=combo_label,
        duration=duration,
        seed=seed,
        disturbances=(Slowdown(time=slowdown_time, factor=slow_factor),),
        label="processor_slowdown",
    )


def _to_disturbance_result(
    run: RunResult, scenario: str, detail: Dict[str, float]
) -> DisturbanceResult:
    return DisturbanceResult(
        scenario=scenario,
        accepted_utilization_ratio=run.accepted_utilization_ratio,
        deadline_misses=run.deadline_misses,
        released_jobs=run.released_jobs,
        rejected_jobs=run.rejected_jobs,
        detail=detail,
    )


def run_burst_scenario(
    duration: float = 60.0,
    burst_time: float = 20.0,
    burst_jobs: int = 30,
    seed: int = 2008,
    combo_label: str = "J_J_N",
) -> DisturbanceResult:
    """Inject a dense burst of aperiodic alert jobs mid-run.

    The admission controller must shed the excess (acceptance drops) but
    every released job still meets its deadline — overload does not turn
    into missed deadlines, it turns into rejections.
    """
    scenario = build_burst_scenario(
        duration=duration,
        burst_time=burst_time,
        burst_jobs=burst_jobs,
        seed=seed,
        combo_label=combo_label,
    )
    return _to_disturbance_result(
        Session(scenario).run(),
        "arrival_burst",
        {"burst_jobs": float(burst_jobs)},
    )


def run_slowdown_scenario(
    duration: float = 60.0,
    slowdown_time: float = 20.0,
    slow_factor: float = 0.25,
    seed: int = 2008,
    combo_label: str = "J_N_N",
) -> DisturbanceResult:
    """Throttle every application processor mid-run.

    Subjobs then take ``1 / slow_factor`` times their declared execution
    time, violating the known-WCET assumption behind condition (1);
    admitted jobs start missing deadlines — the failure mode the paper's
    model explicitly excludes.
    """
    scenario = build_slowdown_scenario(
        duration=duration,
        slowdown_time=slowdown_time,
        slow_factor=slow_factor,
        seed=seed,
        combo_label=combo_label,
    )
    return _to_disturbance_result(
        Session(scenario).run(),
        "processor_slowdown",
        {"slow_factor": slow_factor},
    )


def build_disturbance_suite(
    duration: float = 60.0,
    seed: int = 2008,
    burst_jobs: int = 30,
    slow_factor: float = 0.25,
) -> ExperimentSuite:
    """Both disturbance probes as one declarative suite."""
    return ExperimentSuite(
        name="disturbance",
        cells=(
            build_burst_scenario(
                duration=duration, seed=seed, burst_jobs=burst_jobs
            ),
            build_slowdown_scenario(
                duration=duration, seed=seed, slow_factor=slow_factor
            ),
        ),
    )


def run_disturbance_suite(
    duration: float = 60.0,
    seed: int = 2008,
    burst_jobs: int = 30,
    slow_factor: float = 0.25,
    n_workers: Optional[int] = None,
) -> List[DisturbanceResult]:
    """Run both disturbance probes through the parallel runner."""
    suite = build_disturbance_suite(
        duration=duration, seed=seed, burst_jobs=burst_jobs, slow_factor=slow_factor
    )
    burst_run, slowdown_run = suite.run_results(n_workers)
    return [
        _to_disturbance_result(
            burst_run, "arrival_burst", {"burst_jobs": float(burst_jobs)}
        ),
        _to_disturbance_result(
            slowdown_run, "processor_slowdown", {"slow_factor": slow_factor}
        ),
    ]
