"""Validated parameter containers and the closed-loop stability guard.

Conventions used throughout the package:

* every noise parameter (``w``, ``m``, ``n``) is a *variance*, never a
  standard deviation;
* all information quantities are reported in nats (natural logarithm).

The containers are frozen dataclasses: immutable value types that can be
shared freely between threads or tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    NegativeVariance,
    NegativeWeight,
    PrivmaskError,
    UnstableClosedLoop,
    ZeroGain,
)


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise PrivmaskError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Plant, controller and cost constants.

    Attributes
    ----------
    a : state coefficient of the scalar plant (dimensionless)
    k : feedback gain applied by the cloud, must be nonzero
    w : process-noise variance (state units squared), >= 0
    q : state cost weight, >= 0
    r : input cost weight, >= 0

    ``q = r = 0`` is allowed: the cost is then identically zero while the
    privacy analysis is unaffected.
    """

    a: float
    k: float
    w: float
    q: float = 0.0
    r: float = 0.0

    def __post_init__(self) -> None:
        for name in ("a", "k", "w", "q", "r"):
            _require_finite(name, getattr(self, name))
        if self.k == 0:
            raise ZeroGain("feedback gain k must be nonzero")
        # every closed form squares a and k
        _require_finite("a*a + k*k", self.a * self.a + self.k * self.k)
        if self.w < 0:
            raise NegativeVariance(f"process-noise variance w={self.w} < 0")
        if self.q < 0 or self.r < 0:
            raise NegativeWeight(f"cost weights must be >= 0, got q={self.q}, r={self.r}")


@dataclass(frozen=True)
class MaskParams:
    """Privacy-mask noise variances.

    Attributes
    ----------
    m : downlink mask variance (input units squared), >= 0
    n : uplink mask variance (state units squared), >= 0
    """

    m: float
    n: float

    def __post_init__(self) -> None:
        _require_finite("m", self.m)
        _require_finite("n", self.n)
        if self.m < 0 or self.n < 0:
            raise NegativeVariance(f"mask variances must be >= 0, got m={self.m}, n={self.n}")


class StabilityCheck(NamedTuple):
    stable: bool
    margin: float


def closed_loop_stable(sys: SystemParams) -> StabilityCheck:
    """Whether |a+k| < 1, together with the margin 1 - (a+k)^2."""
    s = sys.a + sys.k
    return StabilityCheck(stable=abs(s) < 1.0, margin=1.0 - s * s)


def require_stable(sys: SystemParams) -> float:
    """Margin 1 - (a+k)^2 of a stable closed loop; ``UnstableClosedLoop`` otherwise.

    The one raising stability guard, for routines whose result has no
    in-band meaning on an unstable loop (the trade-off search, the
    ``_from_nnr`` cost forms and the Monte Carlo moment estimators).
    """
    stable, margin = closed_loop_stable(sys)
    if not stable:
        raise UnstableClosedLoop(f"|a+k| = {abs(sys.a + sys.k)} >= 1")
    return margin
