"""Experiment runners: one module per paper table/figure.

* :mod:`repro.experiments.figure5` — accepted utilization ratio of all 15
  valid strategy combinations on random workloads (section 7.1).
* :mod:`repro.experiments.figure6` — LB strategy comparison on imbalanced
  workloads (section 7.2).
* :mod:`repro.experiments.figure8` — service overhead decomposition table
  (section 7.3).
* :mod:`repro.experiments.table1` — criteria-to-strategy mapping.
* :mod:`repro.experiments.ablation` — AUB vs Deferrable Server admission.
* :mod:`repro.experiments.runner` — the shared multiprocessing fan-out all
  of the above dispatch their independent run cells through.

Each runner takes explicit duration/set-count/seed parameters so tests can
run scaled-down versions while the CLI runs paper-scale ones
(``repro figure5 --sets 10 --duration 300``), plus an
``n_workers`` parameter (default: ``$REPRO_WORKERS`` or the CPU count)
controlling the parallel fan-out; results are bit-identical for every
worker count.

Every experiment module but the ablation also exposes a
``build_*_suite`` constructor returning its grid as a declarative
:class:`~repro.api.suite.ExperimentSuite` of
:class:`~repro.api.scenario.Scenario` cells — the ``run_*`` entry points
are thin folds over ``suite.run_results(n_workers)``.  The ablation
simulates nothing: it fans its own analytic replay cells out through
:func:`~repro.experiments.runner.run_cells`.
"""

from repro.experiments.figure5 import (
    Figure5Result,
    build_figure5_suite,
    run_figure5,
)
from repro.experiments.figure6 import (
    Figure6Result,
    build_figure6_suite,
    run_figure6,
)
from repro.experiments.figure8 import (
    Figure8Result,
    build_figure8_suite,
    run_figure8,
)
from repro.experiments.runner import resolve_workers, run_cells
from repro.experiments.table1 import Table1Row, build_table1_suite, run_table1
from repro.experiments.ablation import AblationResult, run_aub_vs_deferrable
from repro.experiments.chaos import (
    ChaosResult,
    build_chaos_suite,
    run_chaos_suite,
)
from repro.experiments.disturbance import (
    DisturbanceResult,
    build_disturbance_suite,
    run_burst_scenario,
    run_disturbance_suite,
    run_slowdown_scenario,
)
from repro.experiments.sensitivity import (
    SweepResult,
    build_delay_suite,
    build_load_suite,
    build_overhead_suite,
    sweep_load,
    sweep_network_delay,
    sweep_overhead,
)

__all__ = [
    "Figure5Result",
    "run_figure5",
    "build_figure5_suite",
    "Figure6Result",
    "run_figure6",
    "build_figure6_suite",
    "Figure8Result",
    "run_figure8",
    "build_figure8_suite",
    "Table1Row",
    "run_table1",
    "build_table1_suite",
    "AblationResult",
    "run_aub_vs_deferrable",
    "ChaosResult",
    "run_chaos_suite",
    "build_chaos_suite",
    "DisturbanceResult",
    "run_burst_scenario",
    "run_slowdown_scenario",
    "run_disturbance_suite",
    "build_disturbance_suite",
    "SweepResult",
    "sweep_load",
    "sweep_overhead",
    "sweep_network_delay",
    "build_load_suite",
    "build_overhead_suite",
    "build_delay_suite",
    "resolve_workers",
    "run_cells",
]
