"""Experiment runners: one module per paper table/figure.

* :mod:`repro.experiments.figure5` — accepted utilization ratio of all 15
  valid strategy combinations on random workloads (section 7.1).
* :mod:`repro.experiments.figure6` — LB strategy comparison on imbalanced
  workloads (section 7.2).
* :mod:`repro.experiments.figure8` — service overhead decomposition table
  (section 7.3).
* :mod:`repro.experiments.table1` — criteria-to-strategy mapping.
* :mod:`repro.experiments.ablation` — AUB vs Deferrable Server admission
  (section 2's comparison).
* :mod:`repro.experiments.runner` — the multiprocessing fan-out the
  figures and the ablation dispatch their independent run cells through.

Each simulating runner takes explicit duration/set-count/seed parameters
so tests can run scaled-down versions while the CLI runs paper-scale ones
(``repro figure5 --sets 10 --duration 300``), plus an ``n_workers``
parameter (default: ``$REPRO_WORKERS`` or the CPU count) controlling the
parallel fan-out; results are bit-identical for every worker count.
Table 1 simulates nothing and maps its six categories in a plain loop.

Each figure module also exposes a ``build_*_suite`` constructor returning
its grid as a declarative :class:`~repro.api.suite.ExperimentSuite` of
:class:`~repro.api.scenario.Scenario` cells — the ``run_*`` entry points
are thin folds over ``suite.run_results(n_workers)``.  The ablation
simulates nothing: it fans its own analytic replay cells out through
:func:`~repro.experiments.runner.run_cells`.  Any other grid (a load,
cost or delay sweep, a disturbance or fault matrix) is a loop over
``Scenario`` values run through a suite or :func:`repro.api.run_scenario`.
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
from repro.experiments.table1 import Table1Row, run_table1
from repro.experiments.ablation import AblationResult, run_aub_vs_deferrable

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
    "AblationResult",
    "run_aub_vs_deferrable",
    "resolve_workers",
    "run_cells",
]
