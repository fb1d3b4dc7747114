"""Float accumulation that gives the same result on every interpreter.

Python 3.12 changed builtin ``sum()`` over floats to compensated
summation, so the same scenario produced different floats on 3.12+ than
on 3.10/3.11.  Model code accumulates floats with :func:`ordered_sum`
instead: plain left-to-right IEEE-754 addition, which is what ``sum()``
computed before 3.12.  ``math.fsum`` is no substitute: it is stable
across versions but changes the floats on all of them.
"""

from __future__ import annotations

from typing import Iterable


def ordered_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...`` in iteration order."""
    total = 0.0
    for value in values:
        total += value
    return total
