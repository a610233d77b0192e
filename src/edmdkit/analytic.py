"""Sampling-free Koopman matrices via quadrature.

Builds A = M_T G^{-1}, G the Gram matrix of the dictionary under the reference
measure and M_T the transfer matrix with entries integral of
psi_i(T x) conj(psi_j(x)); row i of A, the projection of psi_i o T onto the span,
comes from the one weighted projection (``dictionary._project``) of psi o T
on the rule's nodes.
Closed-form integrals are not special-cased: for polynomial maps and
dictionaries an exact Gauss rule is mathematically equivalent and keeps a
single code path; for everything else the quadrature order is escalated until
two successive orders agree.
"""

from __future__ import annotations

import numpy as np

from . import systems
from .dictionary import _ON_RULE, Dictionary, _project, _solve, evaluate_batch
from .edmd import KoopmanMatrix, _koopman
from .errors import DomainEscapeError, QuadratureSaturationWarning, warn
from .predict import _values
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

    Only a polynomial map of degree t on a box, with a polynomial dictionary of
    size N, has a Gauss rule known to be exact: max(64, N*t) nodes cover the worst
    integrand degree (N-1)(t+1).  Every other fit escalates, circle fits included:
    neither the frequencies of psi o T (x -> 5x quintuples them) nor the smoothness
    of a polynomial dictionary cut at the wrap are known in advance.
    """
    if (system.domain.kind == "box" and system.polynomial_degree is not None
            and dic.family in ("legendre", "monomial")):
        return max(64, dic.size * system.polynomial_degree)
    return None


def _analytic_fits(system, dics, measure, quad_order=None, f=None):
    """The one analytic fitter: [(C, K_N)] for the nested dictionaries ``dics``,
    ascending, from one projection (``dictionary._project``) of [psi | f | psi o T]
    at N = N_max on the rule of ``quad_order`` nodes, of ``default_quad_order``, or
    else of the first escalation order whose A agrees with the one before.  Row i of
    C projects f_i, f's (n_f, K) values on the K nodes (``predict._values``; no rows
    without ``f``); of its N x (2N + n_f) R, R11 = R[:n, :n] and
    R12 = R[:n, N:N + n_f + n] solve each smaller n."""
    n_max = dics[-1].size
    fixed = quad_order if quad_order is not None else default_quad_order(system, dics[-1])
    x = None
    for order in _escalation(n_max) if fixed is None else [fixed]:
        rule = systems.gauss_rule(measure, order)
        images = _images(system, rule)
        values = None if f is None else _values(f, rule.nodes)

        def target(cols):
            t = evaluate_batch(dics[-1], images[:, cols])
            return t if values is None else np.concatenate([values[:, cols], t])

        prev = x
        r, x, s = _project(dics[-1], rule, target)
        if prev is not None and np.linalg.norm(x[-n_max:] - prev[-n_max:]) <= _AGREEMENT:
            break
    n_f = len(x) - n_max
    fits = []
    for dic in dics:
        n = dic.size
        x_n, s_n = (x, s) if n == n_max else _solve(
            r[:n, :n], r[:n, n_max:n_max + n_f + n], rule.size, what=_ON_RULE)
        fits.append((np.ascontiguousarray(x_n[:n_f]),
                     _koopman(x_n, s_n, dic, f"analytic:order={order}")))
    return fits


def _escalation(size):
    """Orders doubling from 64 past N (fewer nodes leave R11 singular) up to
    ``_MAX_NODES``; running out warns the library's caller."""
    order = 64
    while order < size:
        order *= 2
    yield order
    while order * 2 <= _MAX_NODES:
        order *= 2
        yield order
    warn(f"quadrature saturation: {order} nodes reached without {_AGREEMENT:g} agreement",
         QuadratureSaturationWarning)


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
    return _analytic_fits(system, [dic], measure, quad_order)[0][1]
