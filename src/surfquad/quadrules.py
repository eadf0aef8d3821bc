"""Fully symmetric triangle quadrature rules: the generators, their polish
and the rule API, ``builtin_rule`` with the monomial-moment oracle.

Each rule is stored as orbit generators to about 6 digits: a centroid
``(w,)``, an S21 orbit ``(a, w)`` of the 3 points (1-2a, a, a) or an S111
orbit ``(b, c, w)`` of the 6 points (1-b-c, b, c), with w the weight of each
point; all weights are positive, all points interior.  ``polished_rule``
restores full precision by Gauss-Newton on the moment equations, one path
for every degree; ``builtin_rule`` then checks the moment oracle
(``monomial_integral``) and caches the rule.

Degrees 1-6 are the classic rules (Strang and Fix 1973; Dunavant, IJNME 21,
1985).  The rest came from a random-start Levenberg-Marquardt fit to the
moment equations, with the orbit counts of the positive interior rules of
Dunavant and of Xiao and Gimbutas (Comput. Math. Appl. 59, 2010); degrees
8 and 9 reproduce Dunavant's.  Slot 12 holds a 39-point degree-13 rule,
orbits (0, 5, 4): the member of that one-parameter family with the least
degree-14 residual norm whose barycentric coordinates are all >= 0.01.
Dunavant's 37-point rules, orbits (1, 6, 3), err by 1.1e-5 on a degree-6
chart of the sphere's octant, this one by 4.6e-6.

Points are (s, t) on {0 <= s <= 1, 0 <= t <= 1 - s}; weights sum to 1/2.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDegree

_GENERATORS = {
    1: ((0.5,),),
    2: ((0.166667, 0.166667),),
    3: ((0.109039, 0.231933, 0.0833333),),
    4: ((0.0915762, 0.0549759), (0.445948, 0.111691)),
    5: ((0.1125,), (0.101287, 0.0629696), (0.470142, 0.0661971)),
    6: ((0.0630890, 0.0254225), (0.249287, 0.0583931),
        (0.0531450, 0.310352, 0.0414255)),
    7: ((0.0611545, 0.023691), (0.191342, 0.0372495), (0.410891, 0.0488099),
        (0.0334577, 0.312943, 0.0284582)),
    8: ((0.0721578,), (0.0505472, 0.0162292), (0.170569, 0.0516087),
        (0.459293, 0.0475458), (0.00839478, 0.263113, 0.0136152)),
    9: ((0.0485679,), (0.0447295, 0.0127888), (0.188204, 0.0398239),
        (0.43709, 0.0389138), (0.489683, 0.0156674),
        (0.0368384, 0.221963, 0.0216418)),
    10: ((0.0399473,), (0.0233089, 0.00411191), (0.425086, 0.0355619),
         (0.029946, 0.35874, 0.0186799), (0.0356326, 0.143295, 0.0154433),
         (0.147926, 0.223767, 0.0227153)),
    11: ((0.0327196, 0.00690447), (0.141538, 0.0234447),
         (0.245703, 0.0219595), (0.388042, 0.020728),
         (0.0173699, 0.375673, 0.010358), (0.0274075, 0.165381, 0.0123405),
         (0.0960125, 0.34065, 0.0241164)),
    12: ((0.0254612, 0.00414918), (0.172433, 0.0163999),
         (0.271112, 0.0307029), (0.435633, 0.0237503), (0.487979, 0.0125864),
         (0.01, 0.124279, 0.00363633), (0.0177243, 0.290214, 0.00857951),
         (0.0599085, 0.132742, 0.0101709), (0.0937501, 0.286369, 0.0171523)),
}

# by generator length: base point, one direction per coordinate, and the
# orbit's size, whose distinct points are the first 1, 3 or 6 of _PERMS
_KINDS = {1: ((1 / 3, 1 / 3, 1 / 3), (), 1),
          2: ((1, 0, 0), ((-2, 1, 1),), 3),
          3: ((1, 0, 0), ((-1, 1, 0), (-1, 0, 1)), 6)}
_PERMS = ((0, 1, 2), (1, 0, 2), (1, 2, 0), (0, 2, 1), (2, 0, 1), (2, 1, 0))


def polished_rule(degree: int):
    """(points (q, 2), weights (q,)) of the symmetric rule in slot ``degree``.

    The residuals are the relative errors of lam1^a lam2^b lam3^c for
    a >= b >= c, a + b + c = d: as lam1 + lam2 + lam3 = 1 and the rule is
    symmetric, these decide exactness through degree d, and each s^a t^b is a
    positive combination of them, so its relative error is no larger.  Where
    generators outnumber equations (degrees 7, 11 and 12) each step is the
    minimum-norm one; the step count is fixed, so the bits are too.
    """
    gens = _GENERATORS[degree]
    exact = 13 if degree == 12 else degree
    parts = [(a, b, exact - a - b) for a in range(exact, -1, -1)
             for b in range(exact - a, -1, -1) if a >= b >= exact - a - b]
    expo = np.array(parts, dtype=float)
    moments = np.array([math.prod(map(math.factorial, e))
                        for e in parts]) / math.factorial(exact + 2)
    # affine map base + lin @ x from the flattened generators x to the
    # barycentric coordinates and weight of each point, (q, 4)
    base, lin, i, x = [], [], 0, np.array([v for g in gens for v in g])
    for g in gens:
        b0, dirs, size = _KINDS[len(g)]
        d = np.zeros((4, x.size))
        d[:3, i:i + len(g) - 1] = np.reshape(dirs, (-1, 3)).T
        d[3, i + len(g) - 1] = 1.0
        for p in _PERMS[:size]:
            base.append([b0[k] for k in p] + [0.0])
            lin.append(d[[*p, 3]])
        i += len(g)
    base, lin = np.array(base, dtype=float), np.array(lin)
    for _ in range(4):    # 6 digits reach roundoff in two steps
        state = base + lin @ x
        lam, w = state[:, :3], state[:, 3]
        mono = np.prod(lam[:, None, :] ** expo, axis=2)          # (q, m)
        resid = (w @ mono) / moments - 1.0
        # d (w mono) / d state, with d mono / d lam_k = mono e_k / lam_k
        grad = np.concatenate([(w[:, None] * mono)[:, :, None] * expo
                               / lam[:, None, :], mono[:, :, None]], axis=2)
        jac = np.tensordot(grad, lin, axes=([0, 2], [0, 1])) / moments[:, None]
        x = x - np.linalg.lstsq(jac, resid, rcond=None)[0]
    state = base + lin @ x
    return state[:, [2, 1]], state[:, 3]


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


@dataclass(frozen=True)
class QuadratureRule:
    """Positive-weight rule on the reference triangle, exact to ``degree``."""

    degree: int
    points: np.ndarray    # (n, 2)
    weights: np.ndarray   # (n,), sums to 1/2


def monomial_integral(a: int, b: int) -> float:
    """Exact integral of s^a t^b over the reference triangle: a! b!/(a+b+2)!."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def _verify_rule(rule: QuadratureRule) -> None:
    """Abort if a built-in rule misses a monomial moment by 1e-14, relative."""
    s, t = rule.points[:, 0], rule.points[:, 1]
    if np.any(rule.weights <= 0.0):
        raise AssertionError(f"degree-{rule.degree} rule has nonpositive weights")
    if np.any(s <= 0.0) or np.any(t <= 0.0) or np.any(s + t >= 1.0):
        raise AssertionError(f"degree-{rule.degree} rule has boundary/exterior points")
    for a in range(rule.degree + 1):
        for b in range(rule.degree + 1 - a):
            got = float(rule.weights @ (s**a * t**b))
            want = monomial_integral(a, b)
            if not abs(got - want) <= 1e-14 * want:   # NaN fails too
                raise AssertionError(
                    f"degree-{rule.degree} rule fails on s^{a} t^{b}: "
                    f"{got!r} vs {want!r}")


@functools.cache
def builtin_rule(degree: int) -> QuadratureRule:
    """Embedded symmetric rule exact to the requested degree (1..12)."""
    if type(degree) is not int or not 1 <= degree <= 12:   # not bool either
        raise UnsupportedDegree(f"no embedded rule of degree {degree!r}")
    pts, wts = polished_rule(degree)
    rule = QuadratureRule(degree=degree, points=pts, weights=wts)
    _verify_rule(rule)
    return rule
