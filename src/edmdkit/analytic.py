"""Sampling-free Koopman matrices via quadrature.

Builds A = M_T G^{-1}, G the Gram matrix of the dictionary under the reference
measure and M_T the transfer matrix with entries integral of
psi_i(T x) conj(psi_j(x)), as A^H = R11^{-1} R12 from the QR of the rows
sqrt(w_k) [psi(x_k)^H | psi(T x_k)^H], never forming G = R11^H R11.
Closed-form integrals are not special-cased: for polynomial maps and
dictionaries an exact Gauss rule is mathematically equivalent and keeps a
single code path; for everything else the quadrature order is escalated until
two successive orders agree.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import systems
from .dictionary import Dictionary, _reduce, _solve, evaluate_batch
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
    """A and the descending Gram eigenvalues sigma(R11)^2 under the Gauss rule
    of ``order`` nodes; R11 counts as singular at N * eps * sigma_max."""
    rule = systems.gauss_rule(measure, order)
    rows = ((evaluate_batch(dic, rule.nodes), evaluate_batch(dic, tx), rule.weights)
            for tx in [_images(system, rule)])
    a_h, s = _solve(_reduce(rows), dic.size, dic.size, what="psi on the quadrature nodes")
    return a_h.conj().T, s**2


def fit_analytic(
    system: DynamicalSystem,
    dic: Dictionary,
    measure: Measure,
    quad_order: int | None = None,
) -> KoopmanMatrix:
    """Sampling-free construction A = M_T G^{-1}.

    Every dictionary takes the one reduction and solve, orthonormal under
    ``measure`` or not; a numerically singular R11 raises RankDeficiencyError.
    """
    order = quad_order if quad_order is not None else default_quad_order(system, dic)
    escalate = order is None
    if escalate:
        order = 64
        while order < dic.size:  # a rule with fewer nodes than N is singular
            order *= 2
    a, lam = _fit(system, dic, measure, order)
    while escalate:
        if order * 2 > _MAX_NODES:
            warnings.warn(
                f"quadrature saturation: {order} nodes reached without "
                f"{_AGREEMENT:g} agreement",
                QuadratureSaturationWarning,
                stacklevel=2,
            )
            break
        prev = a
        order *= 2
        a, lam = _fit(system, dic, measure, order)
        if np.linalg.norm(a - prev) <= _AGREEMENT:
            break
    return KoopmanMatrix(
        A=np.ascontiguousarray(a, dtype=complex),
        dictionary=dic,
        provenance=f"analytic:order={order}",
        sigma_max=float(lam[0]),
        sigma_min=float(lam[-1]),
    )
