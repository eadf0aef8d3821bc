"""Symmetric triangle quadrature data.

Degrees 1-6 are the classic positive-weight symmetric rules, stored as orbit
generators in barycentric form.  Degrees 7-12 are conical products (Stroud
1971) of Gauss-Jacobi and Gauss-Legendre points, computed by Golub-Welsch
rather than stored, then symmetrized over the 6 affine symmetries of the
triangle; this keeps every weight positive and every point strictly
interior.  ``quad.builtin_rule`` bounds the degree to 1..12 and checks each
rule against the monomial-moment oracle the first time it is requested, so
a wrong weight raises instead of shipping.

Points are (s, t) on {0 <= s <= 1, 0 <= t <= 1 - s}; weights sum to 1/2.
"""

from __future__ import annotations

import numpy as np


def _centroid(w):
    return [(1.0 / 3.0, 1.0 / 3.0, w)]


def _s21(a, w):
    # barycentric (1-2a, a, a) orbit; (s, t) = (lambda3, lambda2)
    b = 1.0 - 2.0 * a
    return [(a, a, w), (b, a, w), (a, b, w)]


def _s111(b, c, w):
    # full 6-orbit of barycentric (1-b-c, b, c)
    a = 1.0 - b - c
    return [(c, b, w), (b, c, w), (c, a, w), (a, c, w), (b, a, w), (a, b, w)]


# classic symmetric rules; weights given on the unit-area triangle are halved
# so the reference triangle of area 1/2 integrates exactly
_CLASSIC = {
    1: _centroid(0.5),
    2: _s21(1.0 / 6.0, 1.0 / 6.0),
    3: _s111(0.231933368553031, 0.109039009072877, 1.0 / 12.0),
    4: (_s21(0.091576213509771, 0.109951743655322 / 2.0)
        + _s21(0.445948490915965, 0.223381589678011 / 2.0)),
    5: (_centroid(0.225 / 2.0)
        + _s21(0.101286507323456, 0.125939180544827 / 2.0)
        + _s21(0.470142064105115, 0.132394152788506 / 2.0)),
    6: (_s21(0.063089014491502, 0.050844906370207 / 2.0)
        + _s21(0.249286745170910, 0.116786275726379 / 2.0)
        + _s111(0.310352451033785, 0.053145049844816, 0.082851075618374 / 2.0)),
}


def _gauss_01(m: int, alpha: int):
    """m-point Gauss rule (nodes, weights) on [0, 1] for the weight (1-u)^alpha.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    orthonormal recurrence u p_j = b_{j+1} p_{j+1} + a_j p_j + b_j p_{j-1}
    (shifted Jacobi polynomials with parameters alpha and 0).  One Newton
    step on p_m polishes them, and the weights are the Christoffel numbers
    1 / sum_{j<m} p_j(u)^2.  Exact through polynomial degree 2m-1.
    """
    n = np.arange(1.0, m + 1.0)
    k = 2.0 * n + alpha
    # a_0 is the weight's mean; the general a_n is 0/0 there when alpha = 0
    a = np.append(1.0 / (alpha + 2.0), 0.5 - alpha**2 / (2.0 * k[:-1] * (k[:-1] + 2.0)))
    b = np.append(0.0, n * (n + alpha) / (k * np.sqrt((k - 1.0) * (k + 1.0))))
    u = np.linalg.eigvalsh(np.diag(a) + np.diag(b[1:m], 1) + np.diag(b[1:m], -1))

    def recurrence(u):
        # p_m, p_m' and sum_{j<m} p_j^2 at u; p_0 = 1/sqrt(int (1-u)^alpha)
        p, p_prev, d, d_prev, ssq = np.full_like(u, np.sqrt(alpha + 1.0)), 0, 0, 0, 0
        for j in range(m):
            ssq = ssq + p * p
            p_prev, p, d_prev, d = (
                p, ((u - a[j]) * p - b[j] * p_prev) / b[j + 1],
                d, (p + (u - a[j]) * d - b[j] * d_prev) / b[j + 1])
        return p, d, ssq

    p, d, _ = recurrence(u)
    u = u - p / d
    return u, 1.0 / recurrence(u)[2]


def _conical_symmetric(degree: int):
    """Conical-product rule symmetrized over the triangle's symmetry group."""
    m = degree // 2 + 1   # m-point Gauss rules are exact to 2m-1 >= degree
    uj, wj = _gauss_01(m, 1)
    ul, wl = _gauss_01(m, 0)
    s = np.repeat(uj, len(ul))
    t = np.tile(ul, len(uj)) * (1.0 - s)
    w = np.repeat(wj, len(ul)) * np.tile(wl, len(uj))

    lam = np.column_stack([1.0 - s - t, t, s])
    pts, wts = [], []
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        p = lam[:, perm]
        pts.append(np.column_stack([p[:, 2], p[:, 1]]))
        wts.append(w / 6.0)
    return np.concatenate(pts), np.concatenate(wts)


def rule_table(degree: int):
    """(points (n,2), weights (n,)) of the symmetric rule of the given degree."""
    if degree in _CLASSIC:
        rows = _CLASSIC[degree]
        pts = np.array([(s, t) for s, t, _ in rows])
        wts = np.array([w for _, _, w in rows])
        return pts, wts
    return _conical_symmetric(degree)
