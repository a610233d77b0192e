"""Independent oracles shared by the test modules.

Everything here deliberately avoids the code paths under test: eigenvalues
come from power iteration with deflation (no LAPACK _geev), projections from
explicit Gram solves on quadrature grids, moments from closed forms,
Gauss-Legendre rules from Newton steps on the three-term recurrence, the
Legendre cosine series from one cosine and one sine per term, least squares
from the SVD of the wide psi(X) or the eigendecomposition of G instead of
the QR of [psi(X)^H | psi(Y)^H].  The one LAPACK _geev path here,
``complex_eig``, is the complex eigensolve that real Koopman matrices no
longer take, kept as the reference for the real one.  Numeric CSV bodies
come from ``per_row_lines``, one ``float.__repr__`` join per row, instead of
the block formatting of ``_table.write_floats``.
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


def legendre_cosine_series(theta, n):
    """P_n(cos theta) and its theta-derivative from the cosine series
    sum_k a_k a_{n-k} cos((n - 2k) theta), a_k = (1/2)_k / k!, one cosine and
    one sine per term; the reference for ``systems._cosine_series``."""
    j = np.arange(1, n + 1)
    a = np.cumprod(np.concatenate(([1.0], (j - 0.5) / j)))
    coef, freq = a * a[::-1], n - 2.0 * np.arange(n + 1)
    arg = np.multiply.outer(theta, freq)
    return np.sum(np.cos(arg) * coef, axis=1), -np.sum(np.sin(arg) * (coef * freq), axis=1)


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

    Independent of observable_matrix: assembles and solves the normal
    equations directly with numpy.linalg.solve.
    """
    from edmdkit.dictionary import evaluate_batch

    psi = evaluate_batch(dic, rule.nodes)
    g = (psi * rule.weights) @ psi.conj().T
    b = (psi * rule.weights) @ np.conj(np.asarray(values))
    return np.linalg.solve(g, b)


def theorem1_residual_form(a, psix, psiy):
    """The Theorem-1 defect in residual form,
    max |(psi(Y) - A psi(X)) psi(X)^H| / M, through the N x M residual."""
    r = psiy - a @ psix
    return float(np.max(np.abs((r * (1.0 / psix.shape[1])) @ psix.conj().T)))


def svd_fit(psix, psiy, tikhonov=0.0):
    """Sampled EDMD through the SVD of the wide psi(X): A = psi(Y) pinv(psi(X))
    with relative cutoff max(N, M) * eps and each kept 1/s filtered to
    s / (s^2 + t).  Returns A, sigma_max and sigma_min (0 when M < N)."""
    n, m = psix.shape
    u, s, vh = np.linalg.svd(psix, full_matrices=False)
    keep = s > max(n, m) * np.finfo(float).eps * s[0]
    a = (psiy @ vh[keep].conj().T / (s[keep] + tikhonov / s[keep])) @ u[:, keep].conj().T
    return a, float(s[0]), float(s[-1]) if m >= n else 0.0


def gram_solve(g, b):
    """Solve G X = B for a Hermitian G through one eigendecomposition
    G = V diag(lam) V^H.  Returns X and the ascending eigenvalues; no rank
    rule, the caller judges lam."""
    lam, v = np.linalg.eigh(g)
    return v @ ((v.conj().T @ b) / lam[:, None]), lam


def weighted_moments(psi, t, w):
    """G = sum_k w_k psi_k psi_k^H and B = sum_k w_k psi_k t_k^H by plain
    products: what R11^H R11 and R11^H R12 of the least-squares reduction
    must reproduce."""
    pw = psi * w
    return pw @ psi.conj().T, pw @ t.conj().T


def weighted_lstsq(psi, t, w):
    """A^H minimizing sum_k w_k ||A psi_k - t_k||^2, by numpy's SVD-based
    lstsq on the rows sqrt(w_k) [psi_k^H | t_k^H] with its default cutoff."""
    sw = np.sqrt(w)[:, None]
    return np.linalg.lstsq(psi.conj().T * sw, t.conj().T * sw, rcond=None)[0]


def complex_eig(a, tie=1e-12):
    """Left eigenvalues, unit phase-fixed eigenvectors and residuals of A the
    way ``eig`` computed them when every A was complex128: A cast to complex,
    zgeev on A^H, the same normalization, phase fix and ordering (descending
    magnitude, ties within ``tie`` max|lambda| by ascending argument)."""
    a = np.asarray(a, dtype=complex)
    conj_vals, w = np.linalg.eig(a.conj().T)
    lam = np.conj(conj_vals)
    w = w / np.linalg.norm(w, axis=0, keepdims=True)
    phase = w[np.argmax(np.abs(w), axis=0), np.arange(w.shape[1])]
    w = w * (np.abs(phase) / phase)
    by_mag = np.argsort(-np.abs(lam), kind="stable")
    mag = np.abs(lam[by_mag])
    tier = np.cumsum(np.concatenate(([0], mag[:-1] - mag[1:] > tie * mag[:1])))
    order = by_mag[np.lexsort((np.angle(lam[by_mag]), tier))]
    lam, w = lam[order], w[:, order]
    return lam, w, np.linalg.norm(a.conj().T @ w - w * np.conj(lam), axis=0)


def per_row_lines(rows):
    """A numeric table body written one row at a time: each row of Python
    floats joined from ``float.__repr__`` cells, one line per row."""
    return "".join(",".join(map(float.__repr__, row)) + "\n" for row in rows)
