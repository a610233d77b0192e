"""Exception and warning types shared across the package, the rank rule and
the one way the package warns."""

import sys
import warnings


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


def check_rank(what, low, high, n, count):
    """The one rank cutoff max(n, count) eps high, returned: ``low`` and ``high``
    are the extreme singular values of R11, the n x n factor of a reduction of
    ``count`` points or nodes whose Gram matrix is R11^H R11.  Given ``what``,
    ``low <= cutoff`` raises RankDeficiencyError naming it."""
    cutoff = max(n, count) * sys.float_info.epsilon * high
    if what is not None and low <= cutoff:
        raise RankDeficiencyError(what, float("inf") if low <= 0 else high / low, cutoff)
    return cutoff


def warn(message, category):
    """``warnings.warn`` attributed to the first frame outside the library, the CLI
    being a caller however it starts: the line that called it, however deep."""
    frame, level = sys._getframe(1), 2
    while frame is not None and (name := frame.f_globals.get("__name__", "")).startswith(
            "edmdkit.") and name != "edmdkit.cli":
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


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
