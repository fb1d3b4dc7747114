"""One-way communication-delay models.

Figure 8 of the paper reports a one-way communication delay of mean 322 us
and max 361 us between the application processors and the admission-control
processor (measured with 1000 round trips on 100 Mbps Ethernet).
:func:`paper_calibrated_delay` reproduces that distribution shape with a
triangular model.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from math import sqrt as _sqrt

from repro.errors import SimulationError
from repro.numeric import triangular_constants
from repro.sim.kernel import USEC


class DelayModel(ABC):
    """A distribution of one-way message delays, in seconds.

    In JSON a model is its constructor's arguments, tagged with its
    class's ``JSON_TAG``; a subclass without one has no JSON form.
    """

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw a delay sample using ``rng``."""

    def mean(self) -> float:
        """The analytic mean of the distribution (for documentation/tests)."""
        raise NotImplementedError

    # Delay models are value objects: scenarios embedding them compare
    # (and serialize) by parameters, not identity.
    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.__dict__ == self.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))


class ConstantDelay(DelayModel):
    """Always the same delay."""

    JSON_TAG = "constant"

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        self.delay = delay

    def sample(self, rng: random.Random) -> float:
        return self.delay

    def mean(self) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"ConstantDelay({self.delay!r})"


class UniformDelay(DelayModel):
    """Uniform on ``[low, high]``."""

    JSON_TAG = "uniform"

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise SimulationError(f"invalid uniform bounds [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def __repr__(self) -> str:
        return f"UniformDelay({self.low!r}, {self.high!r})"


class TriangularDelay(DelayModel):
    """Triangular on ``[low, high]`` with the given ``mode``.

    The parameters are read-only: :meth:`sample` draws with the
    :func:`~repro.numeric.triangular_constants` worked out from them at
    construction.
    """

    JSON_TAG = "triangular"

    def __init__(self, low: float, mode: float, high: float) -> None:
        if not 0 <= low <= mode <= high:
            raise SimulationError(
                f"invalid triangular parameters ({low}, {mode}, {high})"
            )
        self._low = low
        self._mode = mode
        self._high = high
        self._draw = triangular_constants(low, high, mode)

    @property
    def low(self) -> float:
        return self._low

    @property
    def mode(self) -> float:
        return self._mode

    @property
    def high(self) -> float:
        return self._high

    def sample(self, rng: random.Random) -> float:
        # ``rng.triangular(low, high, mode)``: one ``random()`` draw and
        # the same float expressions, without the call.
        low, span, c, high, back, back_c = self._draw
        u = rng.random()
        if u > c:
            return high + back * _sqrt((1.0 - u) * back_c)
        return low + span * _sqrt(u * c)

    def mean(self) -> float:
        return (self.low + self.mode + self.high) / 3.0

    def __repr__(self) -> str:
        return f"TriangularDelay({self.low!r}, {self.mode!r}, {self.high!r})"


class NormalDelay(DelayModel):
    """Normal(mu, sigma) truncated below at ``floor`` (default 0)."""

    JSON_TAG = "normal"

    def __init__(self, mu: float, sigma: float, floor: float = 0.0) -> None:
        if sigma < 0:
            raise SimulationError(f"sigma must be >= 0, got {sigma}")
        self.mu = mu
        self.sigma = sigma
        self.floor = floor

    def sample(self, rng: random.Random) -> float:
        return max(self.floor, rng.gauss(self.mu, self.sigma))

    def mean(self) -> float:
        # Truncation bias is negligible for the parameters we use.
        return self.mu

    def __repr__(self) -> str:
        return f"NormalDelay({self.mu!r}, {self.sigma!r}, floor={self.floor!r})"


def paper_calibrated_delay() -> TriangularDelay:
    """One-way delay calibrated to the paper's testbed (Figure 8).

    The paper measured mean 322 us and max 361 us.  A triangular
    distribution on [283 us, 361 us] with mode 322 us has mean 322 us and
    the observed maximum.
    """
    return TriangularDelay(283 * USEC, 322 * USEC, 361 * USEC)
