"""Float arithmetic that gives the same result on every interpreter.

Python 3.12 changed builtin ``sum()`` over floats to compensated
summation, so the same scenario produced different floats on 3.12+ than
on 3.10/3.11.  Model code accumulates floats with :func:`ordered_sum`
instead: plain left-to-right IEEE-754 addition, which is what ``sum()``
computed before 3.12.  ``math.fsum`` is no substitute: it is stable
across versions but changes the floats on all of them.

:func:`triangular_constants` lets a model whose triangular distribution
is fixed at construction draw from it without calling
``random.triangular`` per sample, with the same floats and draws.
"""

from __future__ import annotations

from typing import Iterable, Tuple

#: A fixed triangular distribution, as :func:`triangular_constants`
#: returns it.
Triangular = Tuple[float, float, float, float, float, float]


def ordered_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...`` in iteration order."""
    total = 0.0
    for value in values:
        total += value
    return total


def triangular_constants(low: float, high: float, mode: float) -> Triangular:
    """The constants of ``random.triangular(low, high, mode)``.

    Returns ``(low, high - low, c, high, low - high, 1 - c)``, ``c`` the
    mode fraction.  With them, and ``u = rng.random()``, the expression::

        if u > c:
            return high + (low - high) * sqrt((1.0 - u) * (1 - c))
        return low + (high - low) * sqrt(u * c)

    is stdlib's, float for float.  Where stdlib's ``high - low`` divisor
    is zero it draws, then returns ``low``: there ``c`` is 1.0 (no
    ``u`` exceeds it) and the span is -0.0, which adds to any ``low``,
    signed zeros included, without changing it.
    """
    span = high - low
    if span == 0:  # exactly where stdlib's division raises ZeroDivisionError
        return (low, -0.0, 1.0, high, 0.0, 0.0)
    c = (mode - low) / span
    return (low, span, c, high, low - high, 1.0 - c)
