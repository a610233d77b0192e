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
    """Raise RankDeficiencyError when ``low <= count * eps * high``, ``low`` and
    ``high`` the extreme singular values of R11, the N x N factor of a reduction
    of M points or nodes whose Gram matrix is R11^H R11; ``count`` is max(N, M)."""
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
    """A map image, a dictionary value or a Koopman prediction A^i psi is not
    finite: the iteration, the evaluation or the matrix power overflowed."""


class DomainEscapeWarning(UserWarning):
    """States left the declared domain during iteration; reported, not fatal."""


class QuadratureSaturationWarning(UserWarning):
    """Order escalation hit its node cap before two successive orders agreed."""
