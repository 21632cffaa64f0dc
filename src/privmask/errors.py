"""Exception hierarchy shared by all privmask modules.

Every domain error is a distinct class so callers (and the CLI) can key on
the type name.  All of them are ``ValueError`` subclasses: they signal bad
or unsupported inputs, never internal failures.
"""


class PrivmaskError(ValueError):
    """Base class for all privmask domain errors."""


class ZeroGain(PrivmaskError):
    """Feedback gain k must be nonzero."""


class NegativeVariance(PrivmaskError):
    """A noise variance (w, m, n or their sum p = m + w) is negative."""


class NegativeWeight(PrivmaskError):
    """A cost weight (q, r or a trade-off weight) is negative, or a trade-off weight not finite."""


class IllDefinedNnr(PrivmaskError):
    """m + w = 0: the noise-to-noise ratio n/(m+w) is undefined."""


class NoConvergence(PrivmaskError):
    """A fixed-point iteration did not (or cannot) converge."""


class UnstableClosedLoop(PrivmaskError):
    """|a + k| >= 1: steady-state second moments do not exist."""


class DegenerateMasks(PrivmaskError):
    """n = 0 or m + w = 0 where finite information sums are requested."""


class HorizonTooLarge(PrivmaskError):
    """Requested horizon exceeds the documented conditioning cap."""


class HorizonTooShort(PrivmaskError):
    """Requested horizon is too short for the operation (e.g. burn-in)."""


class SingularBlock(PrivmaskError):
    """A covariance block is numerically singular (pivot below tolerance)."""


class NonPositiveAlpha(PrivmaskError):
    """A noise-to-noise ratio must be strictly positive."""


class ZeroProcessNoise(PrivmaskError):
    """w = 0: the trade-off cost along the m = 0 line is unrealizable."""


class EmptyInput(PrivmaskError):
    """An input collection that must be nonempty is empty."""


class NonPositiveCount(PrivmaskError):
    """A count (trajectories, workers) must be at least 1."""
