"""Sampling-free Koopman matrices via quadrature.

Builds A = M_T G^{-1}, G the Gram matrix of the dictionary under the reference
measure and M_T the transfer matrix with entries integral of
psi_i(T x) conj(psi_j(x)); row i of A, the projection of psi_i o T onto the span,
comes from ``dictionary._project`` of the rows sqrt(w_k) [psi(x_k)^H | psi(T x_k)^H].
Closed-form integrals are not special-cased: for polynomial maps and
dictionaries an exact Gauss rule is mathematically equivalent and keeps a
single code path; for everything else the quadrature order is escalated until
two successive orders agree.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import systems
from .dictionary import Dictionary, _project, evaluate_batch
from .edmd import KoopmanMatrix
from .errors import DomainEscapeError, QuadratureSaturationWarning
from .systems import DynamicalSystem, Measure, QuadratureRule

_MAX_NODES = 2**14
_AGREEMENT = 1e-12


def transfer_matrix(system: DynamicalSystem, dic: Dictionary, rule: QuadratureRule) -> np.ndarray:
    """Matrix of inner products of composed observables against the dictionary:
    entry (i, j) = sum_k w_k psi_i(T x_k) conj(psi_j(x_k)).

    Raises DomainEscapeError if the map sends a quadrature node outside the
    domain, since the integrand is then evaluated where the dictionary has no
    meaning.
    """
    psi_x = evaluate_batch(dic, rule.nodes)
    return (evaluate_batch(dic, _images(system, rule)) * rule.weights) @ psi_x.conj().T


def _images(system, rule):
    """T of the rule's nodes; a node sent outside the domain raises DomainEscapeError."""
    images, escaped = systems._map(system, rule.nodes)
    if escaped:
        raise DomainEscapeError(systems._escape_message(system, escaped, rule.size))
    return images


def default_quad_order(system: DynamicalSystem, dic: Dictionary) -> int | None:
    """Order guaranteeing exact integrals, or None when escalation is needed.

    For a polynomial map of degree t and a polynomial dictionary of size N the
    worst integrand degree is (N-1)(t+1), covered by max(64, N*t) Gauss nodes.
    On circle domains the periodic rule is exact for trigonometric integrands
    of frequency below the node count.
    """
    if dic.domain.kind == "circle":
        return max(64, 4 * dic.param + 1)
    if system.polynomial_degree is not None and dic.family in ("legendre", "monomial"):
        return max(64, dic.size * system.polynomial_degree)
    return None


def _fit(system, dic, measure, order):
    """A and sigma(R11) under the Gauss rule of ``order`` nodes: row i projects
    psi_i o T onto the span, singular at max(N, order) eps sigma_max."""
    rule = systems.gauss_rule(measure, order)
    images = _images(system, rule)
    return _project(dic, rule, lambda cols: evaluate_batch(dic, images[:, cols]))


def _escalation(size):
    """Orders doubling from 64 past N (fewer nodes leave R11 singular) up to
    ``_MAX_NODES``; running out warns the caller of fit_analytic."""
    order = 64
    while order < size:
        order *= 2
    yield order
    while order * 2 <= _MAX_NODES:
        order *= 2
        yield order
    warnings.warn(f"quadrature saturation: {order} nodes reached without {_AGREEMENT:g} "
                  "agreement", QuadratureSaturationWarning, stacklevel=3)


def fit_analytic(
    system: DynamicalSystem,
    dic: Dictionary,
    measure: Measure,
    quad_order: int | None = None,
) -> KoopmanMatrix:
    """Sampling-free construction A = M_T G^{-1}.

    Every dictionary takes the one weighted projection, orthonormal under
    ``measure`` or not; a numerically singular R11 raises RankDeficiencyError.
    """
    fixed = quad_order if quad_order is not None else default_quad_order(system, dic)
    a = None
    for order in _escalation(dic.size) if fixed is None else [fixed]:
        prev, (a, s) = a, _fit(system, dic, measure, order)
        if prev is not None and np.linalg.norm(a - prev) <= _AGREEMENT:
            break
    return KoopmanMatrix(A=a, dictionary=dic, provenance=f"analytic:order={order}",
                         sigma_max=float(s[0]), sigma_min=float(s[-1]))
