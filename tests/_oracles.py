"""Independent oracles shared by the test modules.

Everything here deliberately avoids the code paths under test: eigenvalues
come from power iteration with deflation (no LAPACK _geev), projections from
explicit Gram solves on quadrature grids, moments from closed forms,
Gauss-Legendre rules from Newton steps on the three-term recurrence.
"""

import math

import numpy as np


def power_deflate_eigs(matrix, seed=1234, tol=1e-13, max_iter=50000):
    """All eigenvalues via power iteration, Rayleigh-quotient refinement, and
    Householder similarity deflation, then polished against the original
    matrix so deflation drift cannot accumulate.  Uses only matrix products,
    linear solves, and elementary reflections."""
    b0 = np.asarray(matrix, dtype=complex)
    b = b0.copy()
    rng = np.random.default_rng(seed)
    eigs = []
    while b.shape[0] > 1:
        n = b.shape[0]
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = v.conj() @ b @ v
        for _ in range(max_iter):
            w = b @ v
            nw = np.linalg.norm(w)
            if nw == 0.0:
                lam = 0.0
                break
            v = w / nw
            lam_new = v.conj() @ b @ v
            if abs(lam_new - lam) < tol * max(1.0, abs(lam_new)):
                lam = lam_new
                break
            lam = lam_new
        lam, v = _rqi(b, lam, v, steps=8)
        eigs.append(lam)
        # similarity deflation: reflect v onto e_1, drop the first row/column
        u = v.copy()
        alpha = -np.exp(1j * np.angle(u[0])) if u[0] != 0 else -1.0
        u[0] -= alpha
        nu = np.linalg.norm(u)
        if nu > 0:
            u /= nu
            b = b - 2.0 * np.outer(u, u.conj() @ b)
            b = b - 2.0 * np.outer(b @ u, u.conj())
        b = b[1:, 1:]
    eigs.append(b[0, 0])
    polished = []
    n0 = b0.shape[0]
    for lam in eigs:
        v = rng.standard_normal(n0) + 1j * rng.standard_normal(n0)
        v /= np.linalg.norm(v)
        lam, _ = _rqi(b0, lam, v, steps=30)
        polished.append(lam)
    return np.asarray(polished)


def _rqi(b, lam, v, steps):
    n = b.shape[0]
    for _ in range(steps):
        shift = lam * (1.0 + 1e-13) + 1e-15
        try:
            z = np.linalg.solve(b - shift * np.eye(n), v)
        except np.linalg.LinAlgError:
            break
        v = z / np.linalg.norm(z)
        lam_new = v.conj() @ b @ v
        if abs(lam_new - lam) < 1e-14 * max(1.0, abs(lam_new)):
            return lam_new, v
        lam = lam_new
    return lam, v


def set_distance(a, b):
    """Hausdorff-style distance between two eigenvalue multisets."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def leggauss_recurrence(order):
    """Gauss-Legendre nodes and weights on [-1, 1], ascending, by Newton steps
    in x on the three-term recurrence from the Tricomi guesses.  O(order^2)
    in a Python loop; the reference for ``systems._leggauss``."""
    x = np.cos(math.pi * (4.0 * np.arange(order) + 3.0) / (4.0 * order + 2.0))
    for _ in range(5):
        p, dp = _legendre_and_derivative(x, order)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    x = 0.5 * (x - x[::-1])  # enforce exact symmetry
    _, dp = _legendre_and_derivative(x, order)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    idx = np.argsort(x)
    return x[idx], w[idx]


def _legendre_and_derivative(x, order):
    p_prev = np.ones_like(x)
    p = x.copy()
    for m in range(1, order):
        p_prev, p = p, ((2 * m + 1) * x * p - m * p_prev) / (m + 1)
    return p, order * (p_prev - x * p) / (1.0 - x * x)


def uniform_moment(k):
    """Exact monomial moment of the uniform measure on [-1, 1]."""
    return 0.0 if k % 2 else 1.0 / (k + 1)


def quadrature_projection(dic, rule, values):
    """Projection coefficients by an explicit Gram solve on the rule's nodes.

    Independent of data.empirical_project: assembles and solves the normal
    equations directly with numpy.linalg.solve.
    """
    from edmdkit.dictionary import evaluate_batch

    psi = evaluate_batch(dic, rule.nodes)
    g = (psi * rule.weights) @ psi.conj().T
    b = (psi * rule.weights) @ np.conj(np.asarray(values))
    return np.linalg.solve(g, b)
