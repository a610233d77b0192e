"""Sampling-free Koopman matrices via quadrature.

Builds A = M_T G^{-1} where G is the Gram matrix of the dictionary under the
reference measure and M_T is the transfer matrix with entries
integral of psi_i(T x) conj(psi_j(x)).  Closed-form integrals are not
special-cased: for polynomial maps and dictionaries an exact Gauss rule is
mathematically equivalent and keeps a single code path; for everything else
the quadrature order is escalated until two successive orders agree.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import systems
from .dictionary import Dictionary, _gram, _gram_solve, evaluate_batch
from .edmd import KoopmanMatrix
from .errors import DomainEscapeError, DomainEscapeWarning, QuadratureSaturationWarning
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
    return _moments(system, dic, rule)[1]


def _moments(system, dic, rule):
    """G and M_T under ``rule`` from one psi pass on the nodes, one on their images."""
    psi_x = evaluate_batch(dic, rule.nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DomainEscapeWarning)
        try:
            tx = systems.apply_batch(system, rule.nodes)
        except DomainEscapeWarning as w:
            raise DomainEscapeError(str(w)) from None
    psi_tx = evaluate_batch(dic, tx)
    return _gram(psi_x, rule.weights), (psi_tx * rule.weights) @ psi_x.conj().T


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
    """A = M_T G^{-1} and the ascending Gram eigenvalues under the Gauss rule
    of ``order`` nodes; G counts as singular at N * eps * lambda_max."""
    g, m_t = _moments(system, dic, systems.gauss_rule(measure, order))
    # A^H = G^{-1} M_T^H since G is Hermitian
    a_h, lam = _gram_solve("Gram matrix of the dictionary", g, m_t.conj().T, dic.size)
    return a_h.conj().T, lam


def fit_analytic(
    system: DynamicalSystem,
    dic: Dictionary,
    measure: Measure,
    quad_order: int | None = None,
) -> KoopmanMatrix:
    """Sampling-free construction A = M_T G^{-1}.

    Every dictionary takes the one Gram solve, orthonormal under ``measure``
    or not; a numerically singular Gram raises RankDeficiencyError.
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
        sigma_max=float(lam[-1]),
        sigma_min=float(max(lam[0], 0.0)),
    )
