"""repro-lint: AST-based determinism & parity static analysis for this repo.

Every perf PR in this repository stakes its correctness on bit-identical
decision parity between batched hot paths and sequential oracles, and
the experiment runner promises identical results for any worker count.
Those guarantees die quietly the moment someone iterates an unordered
``set`` in a decision path, reads the wall clock inside the simulator,
or hands an unpicklable lambda to ``run_cells``.  ``repro-lint`` turns
the repo's determinism folklore into mechanically enforced rules.

Usage (from the repo root, with ``tools`` on ``PYTHONPATH``)::

    python -m repro_lint src/ tests/ examples/ tools/

See ``docs/LINTING.md`` for every rule ID, its rationale, the inline
suppression syntax, and how to regenerate the committed baseline.
"""

from repro_lint.engine import Context, Finding, LintEngine, Rule, lint_source
from repro_lint.baseline import Baseline

__version__ = "1.0"

__all__ = [
    "Baseline",
    "Context",
    "Finding",
    "LintEngine",
    "Rule",
    "lint_source",
    "__version__",
]
