"""Exception and warning types shared across the package, and the rank rule."""

import sys


class EdmdkitError(Exception):
    """Base class for edmdkit errors."""


class RankDeficiencyError(EdmdkitError):
    """A matrix that the algorithm requires to be invertible is numerically
    rank deficient at the documented relative cutoff.

    Carries a condition-number estimate so callers can report how far the
    data is from satisfying the invertibility hypothesis.
    """

    def __init__(self, what, condition, cutoff):
        self.what = what
        self.condition = condition
        self.cutoff = cutoff
        super().__init__(
            f"{what} is numerically rank deficient "
            f"(condition estimate {condition:.3e}, relative cutoff {cutoff:.3e})"
        )


def check_rank(what, low, high, count):
    """Raise RankDeficiencyError when ``low <= count * eps * high``, the extreme
    eigenvalues (or singular values) ``low``, ``high`` of an N x N matrix;
    ``count`` is max(N, M) for a Gram matrix summed over M points."""
    cutoff = count * sys.float_info.epsilon * high
    if low <= cutoff:
        raise RankDeficiencyError(what, float("inf") if low <= 0 else high / low, cutoff)


class EigensolverError(EdmdkitError):
    """The dense eigensolver failed to converge."""

    def __init__(self, message, condition=None):
        self.condition = condition
        if condition is not None:
            message = f"{message} (matrix condition estimate {condition:.3e})"
        super().__init__(message)


class DomainEscapeError(EdmdkitError):
    """A quadrature node left the domain under the map, making the
    integrals of the analytic construction meaningless."""


class ConfigError(EdmdkitError):
    """Invalid experiment configuration."""


class NonFiniteError(EdmdkitError, ValueError):
    """A map image or a dictionary value is not finite: the iteration or the
    evaluation overflowed."""


class DomainEscapeWarning(UserWarning):
    """States left the declared domain during iteration; reported, not fatal."""


class QuadratureSaturationWarning(UserWarning):
    """Order escalation hit its node cap before two successive orders agreed."""
