"""Lagrange interpolation on the reference triangle and Chebyshev-Lobatto tools.

The reference triangle is {(s, t) : 0 <= s <= 1, 0 <= t <= 1 - s}.  Nodes are
the equidistant lattice {(i/k, j/k) : i + j <= k}, ordered vertices first
((0,0), (0,1), (1,0)), then edge nodes, then interior nodes (lexicographic by
(s, t) within each group).  The basis is represented by monomial coefficients
obtained from the generalized Vandermonde at the nodes; fine for the moderate
degrees used here, with a condition-number warning past 1e12.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IllConditionedWarning

EULER_GAMMA = 0.5772156649015329

COND_LIMIT = 1e12


@dataclass(frozen=True)
class ReferenceNodeSet:
    """Equidistant interpolation lattice on the reference triangle."""

    degree: int
    nodes: np.ndarray     # (N, 2) float, (s, t)
    lattice: np.ndarray   # (N, 2) int, (i, j) with s = i/k, t = j/k

    @property
    def count(self) -> int:
        return len(self.nodes)


def reference_nodes(degree: int) -> ReferenceNodeSet:
    """Node lattice of the given degree, in the documented ordering."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    k = degree
    edges, interior = [], []
    for i in range(k + 1):
        for j in range(k + 1 - i):
            zero = (i == 0) + (j == 0) + (i + j == k)
            if zero == 1:
                edges.append((i, j))
            elif zero == 0:
                interior.append((i, j))
    # fixed vertex order (0,0), (0,1), (1,0); lexicographic (s, t) elsewhere
    vertices = [(0, 0), (0, k), (k, 0)]
    edges.sort()
    interior.sort()
    lattice = np.array(vertices + edges + interior, dtype=np.int64)
    nodes = lattice.astype(float) / k
    assert len(nodes) == (k + 1) * (k + 2) // 2
    return ReferenceNodeSet(degree=k, nodes=nodes, lattice=lattice)


def _monomial_powers(degree: int) -> np.ndarray:
    return np.array([(a, b) for tot in range(degree + 1)
                     for a in range(tot, -1, -1) for b in (tot - a,)],
                    dtype=np.int64)


def _monomial_matrix(powers: np.ndarray, pts: np.ndarray, ds: int = 0,
                     dt: int = 0) -> np.ndarray:
    """Monomials s^a t^b at (q, 2) points, or their first derivative in s
    (ds=1) or t (dt=1); shape (q, N)."""
    a, b = powers[:, 0], powers[:, 1]
    m = pts[:, 0][:, None] ** np.maximum(a - ds, 0)
    if ds:
        m = m * a
    if dt:
        m = m * b
    return m * pts[:, 1][:, None] ** np.maximum(b - dt, 0)


@dataclass(frozen=True)
class LagrangeBasis:
    """Degree-k Lagrange basis on the reference triangle, in monomial form."""

    degree: int
    node_set: ReferenceNodeSet
    powers: np.ndarray        # (N, 2) monomial exponents
    coeffs: np.ndarray        # (N, N); column i = monomial coeffs of L_i
    condition: float          # Vandermonde condition estimate

    @property
    def count(self) -> int:
        return self.node_set.count

    @property
    def nodes(self) -> np.ndarray:
        return self.node_set.nodes

    def _check_condition(self):
        if self.condition > COND_LIMIT:
            warnings.warn(
                f"degree-{self.degree} equidistant basis is ill-conditioned "
                f"(cond ~ {self.condition:.2e})", IllConditionedWarning,
                stacklevel=3)

    def eval(self, pts) -> np.ndarray:
        """Basis values at (..., 2) points; shape (..., N)."""
        self._check_condition()
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return _monomial_matrix(self.powers, pts) @ self.coeffs

    def eval_grad(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """(d/ds, d/dt) of every basis function at (..., 2) points."""
        self._check_condition()
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return (_monomial_matrix(self.powers, pts, ds=1) @ self.coeffs,
                _monomial_matrix(self.powers, pts, dt=1) @ self.coeffs)

    def interpolate(self, nodal_values, pts) -> np.ndarray:
        """Evaluate the interpolant of (N, d) nodal data at (..., 2) points."""
        vals = np.asarray(nodal_values, dtype=float)
        if len(vals) != self.count:
            raise DimensionMismatch(
                f"expected {self.count} nodal values, got {len(vals)}")
        return self.eval(pts) @ vals


@functools.cache
def lagrange_basis(degree: int) -> LagrangeBasis:
    """Cached basis of the given degree."""
    node_set = reference_nodes(degree)
    powers = _monomial_powers(degree)
    V = _monomial_matrix(powers, node_set.nodes)
    coeffs = np.linalg.solve(V, np.eye(len(V)))
    return LagrangeBasis(degree=degree, node_set=node_set, powers=powers,
                         coeffs=coeffs, condition=float(np.linalg.cond(V)))


def eval_basis(basis: LagrangeBasis, point) -> np.ndarray:
    """Basis value vector at a single reference point."""
    return basis.eval(np.asarray(point, dtype=float)[None, :])[0]


def eval_basis_grad(basis: LagrangeBasis, point) -> np.ndarray:
    """(N, 2) array of basis partial derivatives at a single point."""
    ds, dt = basis.eval_grad(np.asarray(point, dtype=float)[None, :])
    return np.column_stack([ds[0], dt[0]])


def interpolate(basis: LagrangeBasis, nodal_values, point) -> np.ndarray:
    return basis.interpolate(nodal_values, np.asarray(point, dtype=float)[None, :])[0]


# ---------------------------------------------------------------------------
# bivariate polynomials in the monomial basis (used by the defect check)
# ---------------------------------------------------------------------------

def poly_eval(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate sum_{a,b} coeffs[a, b] s^a t^b at (..., 2) points."""
    coeffs = np.asarray(coeffs, dtype=float)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    deg = coeffs.shape[0] - 1
    spow = pts[:, 0][:, None] ** np.arange(deg + 1)[None, :]
    tpow = pts[:, 1][:, None] ** np.arange(deg + 1)[None, :]
    return np.einsum("pa,ab,pb->p", spow, coeffs, tpow)


def poly_grad(coeffs: np.ndarray):
    """Coefficient arrays of (d/ds, d/dt) of a monomial-coefficient poly."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[0]
    ds = np.zeros((n, n))
    dt = np.zeros((n, n))
    for a in range(1, n):
        ds[a - 1, :] += a * coeffs[a, :]
    for b in range(1, n):
        dt[:, b - 1] += b * coeffs[:, b]
    return ds, dt


def random_poly(degree: int, rng: np.random.Generator) -> np.ndarray:
    """Random total-degree polynomial with coefficients in [-1, 1]."""
    coeffs = np.zeros((degree + 1, degree + 1))
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            coeffs[a, b] = rng.uniform(-1.0, 1.0)
    return coeffs


def interp_gradient_defect(degree: int,
                           coeffs: np.ndarray) -> tuple[float, float]:
    """Integrals over the reference triangle of the gradient components of
    (p - I_k p), for a polynomial p of total degree k+1.

    Both components vanish when ``degree`` is even; for odd degree they are
    generically nonzero.  This is the parity mechanism behind the even/odd
    convergence-rate gap.
    """
    if not 1 <= degree <= 12:
        raise ValueError("degree must be in [1, 12]")
    coeffs = np.asarray(coeffs, dtype=float)
    basis = lagrange_basis(degree)
    from .quad import builtin_rule
    rule = builtin_rule(min(12, degree + 2))

    nodal = poly_eval(coeffs, basis.nodes)
    ds_c, dt_c = poly_grad(coeffs)
    pts, w = rule.points, rule.weights

    bs, bt = basis.eval_grad(pts)
    defect_s = poly_eval(ds_c, pts) - bs @ nodal
    defect_t = poly_eval(dt_c, pts) - bt @ nodal
    return float(w @ defect_s), float(w @ defect_t)


# ---------------------------------------------------------------------------
# Chebyshev-Lobatto nodes and Lebesgue constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChebGrid:
    """Chebyshev-Lobatto nodes cos(k*pi/n) on [-1, 1] and their square tensor."""

    n: int
    nodes_1d: np.ndarray        # descending, endpoints exactly +-1

    @property
    def tensor_nodes(self) -> np.ndarray:
        x = self.nodes_1d
        xx, yy = np.meshgrid(x, x, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])


def cheb_grid(n: int) -> ChebGrid:
    if n < 1:
        raise ValueError("n must be >= 1")
    nodes = np.cos(np.arange(n + 1) * math.pi / n)
    nodes[0], nodes[-1] = 1.0, -1.0
    return ChebGrid(n=n, nodes_1d=nodes)


def _lebesgue_max(nodes: np.ndarray, bary_w: np.ndarray,
                  sample: np.ndarray) -> float:
    """Max over the sample grid of sum_i |l_i(x)| in barycentric form."""
    best, chunk = 1.0, 20000   # samples per block, to bound the temporaries
    for lo in range(0, len(sample), chunk):
        x = sample[lo:lo + chunk]
        diff = x[:, None] - nodes[None, :]
        hit = np.isclose(diff, 0.0, atol=1e-15)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = bary_w[None, :] / diff
            lam = np.abs(k).sum(axis=1) / np.abs(k.sum(axis=1))
        lam[hit.any(axis=1)] = 1.0   # the Lebesgue function equals 1 at nodes
        best = max(best, float(np.nanmax(lam)))
    return best


def cheb_lebesgue(n: int, grid_density: int = 200001) -> float:
    """Brute-force Lebesgue constant of the Chebyshev-Lobatto nodes.

    Scans a dense grid uniform in the angle variable (which clusters samples
    the way the nodes cluster) plus a uniform grid in x.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if grid_density < 1000:
        raise ValueError("grid_density must be >= 1000")
    grid = cheb_grid(n)
    w = np.ones(n + 1)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    angles = np.linspace(0.0, math.pi, grid_density)
    sample = np.concatenate([np.cos(angles),
                             np.linspace(-1.0, 1.0, grid_density)])
    return _lebesgue_max(grid.nodes_1d, w, sample)


def equidistant_lebesgue(n: int, grid_density: int = 200001) -> float:
    """Same estimator applied to n+1 equidistant nodes on [-1, 1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    nodes = np.linspace(-1.0, 1.0, n + 1)
    i = np.arange(n + 1)
    logw = (math.lgamma(n + 1) - np.array([math.lgamma(v + 1) for v in i])
            - np.array([math.lgamma(n - v + 1) for v in i]))
    w = (-1.0) ** i * np.exp(logw - logw.max())
    sample = np.linspace(-1.0, 1.0, grid_density)
    return _lebesgue_max(nodes, w, sample)


def lebesgue_formula(n: int) -> float:
    """Logarithmic growth law of the Chebyshev-Lobatto Lebesgue constant.

    For the n+1 Lobatto (extrema) nodes cos(k*pi/n), k = 0..n,

        Lambda_n = (2/pi) (log n + gamma + log(8/pi)) + O(1/n^2),

    with gamma the Euler-Mascheroni constant. The same expression with
    log(n+1) is the law of the n+1 Chebyshev roots; against the Lobatto
    constant it is off by about 0.64/n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return (2.0 / math.pi) * (math.log(n) + EULER_GAMMA + math.log(8.0 / math.pi))
