"""Service operation cost model (paper Figures 7 and 8).

The paper attributes the end-to-end service delay to eight numbered
operations (Figure 7):

1. hold the task, push event (TE)
2. communication delay (network; see :mod:`repro.net.latency`)
3. generate acceptable deployment plan (LB)
4. apply the admission test (AC)
5. release the task (TE, same processor)
6. release the duplicate task (TE, re-allocated processor)
7. report completed subtask (IR, idle-time work)
8. update synthetic utilization (AC side of IR)

Default costs are calibrated so the decomposition sums reproduce the
paper's Figure 8 means on their 2.5 GHz KURT-Linux testbed:

====================================  ===========================  =====
Path                                  Decomposition                mean
====================================  ===========================  =====
AC without LB                         1 + 2 + 4 + 2 + 5            1114
AC with LB (no re-allocation)         1 + 2 + 3 + 2 + 5            1116
AC with LB (re-allocation)            1 + 2 + 3 + 2 + 6            1201
IR (on AC side)                       8                              17
IR (other part)                       7 + 2                         662
Communication delay                   2                             322
====================================  ===========================  =====

(all microseconds; with the default mean communication delay of 322 us the
operation costs below solve the system exactly: 150 + 322 + 200 + 322 +
120 = 1114, etc.)

Per-sample jitter is triangular with a configurable relative half-width so
the measured maxima land near the paper's max column.  ``CostModel.zero()``
yields an overhead-free model for pure-theory experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from math import sqrt as _sqrt
from typing import Dict, Tuple, Type

from repro.errors import ConfigurationError
from repro.numeric import Triangular, triangular_constants
from repro.sim.kernel import USEC

#: Operation names: the ``CostModel`` field that holds each one's mean
#: cost, and the key :meth:`CostModel.sample` draws it by.
OP_HOLD_AND_PUSH = "hold_and_push"        # (1)
OP_LB_PLAN = "lb_plan"                    # (3)
OP_ADMISSION_TEST = "admission_test"      # (4)
OP_RELEASE = "release"                    # (5)
OP_RELEASE_DUPLICATE = "release_duplicate"  # (6)
OP_IR_REPORT = "ir_report"                # (7)
OP_IR_UPDATE = "ir_update"                # (8)

_OPERATIONS = (
    OP_HOLD_AND_PUSH,
    OP_LB_PLAN,
    OP_ADMISSION_TEST,
    OP_RELEASE,
    OP_RELEASE_DUPLICATE,
    OP_IR_REPORT,
    OP_IR_UPDATE,
)


@dataclass(frozen=True)
class CostModel:
    """Mean costs (seconds) of the numbered service operations."""

    hold_and_push: float = 150 * USEC
    lb_plan: float = 202 * USEC
    admission_test: float = 200 * USEC
    release: float = 120 * USEC
    release_duplicate: float = 205 * USEC
    ir_report: float = 340 * USEC
    ir_update: float = 17 * USEC
    #: Relative half-width of the per-sample triangular jitter; 0 disables.
    jitter: float = 0.08

    def __post_init__(self) -> None:
        for name in _OPERATIONS:
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"cost {name} must be >= 0, got {value}")
        if not 0 <= self.jitter < 1:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )
        # The triangular constants of every jittered operation, worked out
        # once (outside the dataclass fields, so equality, hashing and
        # serialization are unchanged).  An operation without jitter or
        # with zero mean has no entry: its sample is the mean, undrawn.
        draws: Dict[str, Triangular] = {}
        if self.jitter != 0:
            for name in _OPERATIONS:
                mean = getattr(self, name)
                if mean != 0:
                    draws[name] = triangular_constants(
                        mean * (1.0 - self.jitter),
                        mean * (1.0 + self.jitter),
                        mean,
                    )
        object.__setattr__(self, "_draws", draws)

    def __reduce__(self) -> Tuple[Type["CostModel"], Tuple[float, ...]]:
        # Pickled as its fields; unpickling calls the constructor, which
        # works the draws out again.  Pickled with the draws, a copy would
        # re-pickle to other bytes: the unpickler interns the attribute
        # names but not the draw table's equal keys, so the memo no
        # longer shares them.
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))

    def mean(self, operation: str) -> float:
        """The mean cost of ``operation`` (one of the OP_* names)."""
        if operation not in _OPERATIONS:
            raise ConfigurationError(f"unknown operation {operation!r}")
        return getattr(self, operation)

    def sample(self, operation: str, rng: random.Random) -> float:
        """Draw one jittered cost sample for ``operation``.

        Bit-identical to ``rng.triangular(mean * (1 - jitter), mean * (1 +
        jitter), mean)``: one ``rng.random()`` draw, evaluated with the
        :func:`~repro.numeric.triangular_constants` that
        :meth:`__post_init__` worked out.
        """
        draw = self._draws.get(operation)
        if draw is None:
            return self.mean(operation)
        low, span, c, high, back, back_c = draw
        u = rng.random()
        if u > c:
            return high + back * _sqrt((1.0 - u) * back_c)
        return low + span * _sqrt(u * c)

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in _OPERATIONS}

    @classmethod
    def zero(cls) -> "CostModel":
        """An overhead-free model: all service operations cost nothing.

        Useful for pure admission-theory experiments where middleware
        overhead would only blur the analysis.
        """
        return cls(
            hold_and_push=0.0,
            lb_plan=0.0,
            admission_test=0.0,
            release=0.0,
            release_duplicate=0.0,
            ir_report=0.0,
            ir_update=0.0,
            jitter=0.0,
        )

    def scaled(self, factor: float) -> "CostModel":
        """A copy with every operation cost multiplied by ``factor``
        (models faster/slower task-manager hardware)."""
        if factor < 0:
            raise ConfigurationError(f"scale factor must be >= 0, got {factor}")
        return replace(
            self,
            **{name: getattr(self, name) * factor for name in _OPERATIONS},
        )
