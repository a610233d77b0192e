"""Sampling-free Koopman matrices via quadrature.

Builds A = M_T G^{-1}, G the Gram matrix of the dictionary under the reference
measure and M_T the transfer matrix with entries integral of
psi_i(T x) conj(psi_j(x)); row i of A, the projection of psi_i o T onto the span,
comes from the least-squares reduction (``dictionary._reduce``) of the rows
sqrt(w_k) [psi(x_k)^H | psi(T x_k)^H].
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


def _reduction(system, dic, measure, order, f=None):
    """R of the rows sqrt(w_k) [psi(x_k)^H | f(x_k)^H | psi(T x_k)^H] over the
    Gauss rule of ``order`` nodes (``dictionary._reduce``), f's (n_f, K) values
    given by ``f(nodes)``; no f columns without ``f``."""
    rule = systems.gauss_rule(measure, order)
    images = _images(system, rule)
    values = None if f is None else f(rule.nodes)

    def target(cols):
        t = evaluate_batch(dic, images[:, cols])
        return t if values is None else np.concatenate([values[:, cols], t])

    return _reduce(dic, rule.nodes, target, rule.weights)[0]


def _escalated(system, dic, measure, quad_order=None, f=None):
    """fit_analytic's reduction: (R, order, [C^H | A^H], sigma(R11)) on the rule
    of ``quad_order`` nodes, of ``default_quad_order``, or else of the first
    escalation order whose A agrees with the one before.  Row i of A projects
    psi_i o T onto the span, row i of C projects f_i (``_reduction``); R11
    singular at max(N, order) eps sigma_max raises RankDeficiencyError."""
    n = dic.size
    fixed = quad_order if quad_order is not None else default_quad_order(system, dic)
    a_h = None
    for order in _escalation(n) if fixed is None else [fixed]:
        prev, r = a_h, _reduction(system, dic, measure, order, f)
        a_h, s = _solve(r[:n, :n], r[:n, n:], order, what="psi on the rule's nodes")
        if prev is not None and np.linalg.norm(a_h[:, -n:] - prev[:, -n:]) <= _AGREEMENT:
            break
    return r, order, a_h, s


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
                  "agreement", QuadratureSaturationWarning, stacklevel=4)


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
    _, order, a_h, s = _escalated(system, dic, measure, quad_order)
    return KoopmanMatrix(A=a_h.conj().T, dictionary=dic, provenance=f"analytic:order={order}",
                         sigma_max=float(s[0]), sigma_min=float(s[-1]))
