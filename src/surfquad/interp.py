"""Lagrange interpolation on the reference triangle and Chebyshev-Lobatto tools.

The reference triangle is {(s, t) : 0 <= s <= 1, 0 <= t <= 1 - s}.  Nodes are
the equidistant lattice {(i/k, j/k) : i + j <= k}, ordered vertices first
((0,0), (0,1), (1,0)), then edge nodes, then interior nodes (lexicographic by
(s, t) within each group); the node set, the one owner of this layout, also
tables each node's place (corner, step along a side, or inside).  The basis
is represented by monomial coefficients
obtained from the generalized Vandermonde at the nodes; fine for the moderate
degrees used here, with a condition-number warning past 1e12.  The program
reads the basis through ``LagrangeBasis.tables`` (values and derivatives at
rule points) and ``eval`` (values), and evaluates monomials only through
``_monomial_matrix``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import blocks
from .errors import IllConditionedWarning
from .quadrules import builtin_rule

EULER_GAMMA = 0.5772156649015329

COND_LIMIT = 1e12


@dataclass(frozen=True)
class ReferenceNodeSet:
    """Equidistant lattice on the reference triangle and each node's place:
    ``step`` nodes along face side ``side`` (0, 1, 2 for (0,1), (1,2), (2,0))
    from its first corner, so corner c is (c, 0); -1 and -1 inside.

    The edge fractions, t of the side-0 nodes by step, must be symmetric
    about 1/2 (t_j + t_(k-j) = 1 within a few ulps): a shared edge's nodes
    are numbered from its smaller vertex, so the face that walks it the other
    way reads node j as node k - j.  A set that is not raises ValueError."""

    degree: int
    nodes: np.ndarray     # (N, 2) float, (s, t)
    lattice: np.ndarray   # (N, 2) int, (i, j) with s = i/k, t = j/k
    side: np.ndarray      # (N,) int, 0..2 or -1
    step: np.ndarray      # (N,) int, 0..k-1 or -1

    def __post_init__(self):
        along = np.flatnonzero((self.side == 0) & (self.step > 0))
        t = self.nodes[along[np.argsort(self.step[along])], 1]
        if np.any(np.abs(t + t[::-1] - 1.0) > 4 * np.finfo(float).eps):
            raise ValueError("edge fractions are not symmetric about 1/2: "
                             "t_j + t_(k-j) must be 1")

    @property
    def count(self) -> int:
        return len(self.nodes)


def reference_nodes(degree: int) -> ReferenceNodeSet:
    """Node lattice of the given degree, in the documented ordering."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    k = degree
    ij = np.indices((k + 1, k + 1), dtype=np.int64).reshape(2, -1).T
    ij = ij[ij.sum(axis=1) <= k]   # lexicographic (i, j)
    i, j = ij.T
    # corners lie on 2 sides, side nodes on 1, interior nodes on none;
    # lexicographic order puts the corners as (0,0), (0,k), (k,0)
    sides = (i == 0).astype(int) + (j == 0) + (i + j == k)
    lattice = ij[np.argsort(-sides, kind="stable")]
    i, j = lattice.T
    # the half-open sides: corner c starts side c
    on = [(i == 0) & (j < k), (i + j == k) & (i < k), (j == 0) & (i > 0)]
    return ReferenceNodeSet(degree=k, nodes=lattice / k, lattice=lattice,
                            side=np.select(on, [0, 1, 2], -1),
                            step=np.select(on, [j, i, k - i], -1))


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

    def _check_condition(self, stacklevel: int = 3):
        if self.condition > COND_LIMIT:
            warnings.warn(
                f"degree-{self.degree} equidistant basis is ill-conditioned "
                f"(cond ~ {self.condition:.2e})", IllConditionedWarning,
                stacklevel=stacklevel)

    def _table(self, pts, ds: int = 0, dt: int = 0) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        flat = _monomial_matrix(self.powers, pts.reshape(-1, 2), ds, dt) @ self.coeffs
        return flat.reshape(pts.shape[:-1] + (self.count,))

    def eval(self, pts) -> np.ndarray:
        """Basis values at (..., 2) points; shape (..., N)."""
        self._check_condition()
        return self._table(pts)

    def tables(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """Basis values L (q, N) at (q, 2) reference points and the stacked
        derivative table D = [d/ds; d/dt]^T, (N, 2q) and contiguous.  The
        condition is checked once, and a warning names this method, not its
        caller, so the default warning filter shows it once, whatever the
        callers."""
        self._check_condition(stacklevel=2)
        ds, dt = self._table(pts, ds=1), self._table(pts, dt=1)
        return self._table(pts), np.ascontiguousarray(np.concatenate([ds, dt]).T)


@functools.cache
def lagrange_basis(degree: int) -> LagrangeBasis:
    """Cached basis of the given degree."""
    node_set = reference_nodes(degree)
    powers = _monomial_powers(degree)
    V = _monomial_matrix(powers, node_set.nodes)
    coeffs = np.linalg.solve(V, np.eye(len(V)))
    return LagrangeBasis(degree=degree, node_set=node_set, powers=powers,
                         coeffs=coeffs, condition=float(np.linalg.cond(V)))


# ---------------------------------------------------------------------------
# the interpolation-gradient defect behind the even/odd gap
# ---------------------------------------------------------------------------

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
    rule = builtin_rule(min(12, degree + 2))
    # p = sum coeffs[a, b] s^a t^b over every (a, b) of the coefficient array
    powers = np.indices(coeffs.shape).reshape(2, -1).T
    c = coeffs.ravel()

    nodal = _monomial_matrix(powers, basis.nodes) @ c
    exact = np.concatenate([_monomial_matrix(powers, rule.points, ds=1) @ c,
                            _monomial_matrix(powers, rule.points, dt=1) @ c])
    # the derivative table's columns of I_k p, like ``exact``: d/ds at every
    # rule point, then d/dt
    defect = (exact - nodal @ basis.tables(rule.points)[1]).reshape(2, -1)
    defect_s, defect_t = defect @ rule.weights
    return float(defect_s), float(defect_t)


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


def _lebesgue_max(nodes: np.ndarray, sample: np.ndarray, lebesgue) -> float:
    """Max over the sample grid of the Lebesgue function, which ``lebesgue``
    gives for a block of samples from their (samples, n + 1) differences
    x - x_i to the nodes; it equals 1 at the nodes."""
    best = 1.0
    for block in blocks.blocks(len(sample), blocks.BLOCK // len(nodes)):
        diff = sample[block, None] - nodes[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = lebesgue(diff)
        lam[np.isclose(diff, 0.0, atol=1e-15).any(axis=1)] = 1.0
        best = max(best, float(np.nanmax(lam)))
    return best


def cheb_lebesgue(n: int, grid_density: int = 200001) -> float:
    """Brute-force Lebesgue constant of the Chebyshev-Lobatto nodes.

    Scans a dense grid uniform in the angle variable (which clusters samples
    the way the nodes cluster) plus a uniform grid in x, with the second
    barycentric form.
    """
    grid = cheb_grid(n)
    if grid_density < 1000:
        raise ValueError("grid_density must be >= 1000")
    w = np.ones(n + 1)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    angles = np.linspace(0.0, math.pi, grid_density)
    sample = np.concatenate([np.cos(angles),
                             np.linspace(-1.0, 1.0, grid_density)])

    def lebesgue(diff):
        k = w[None, :] / diff
        return np.abs(k).sum(axis=1) / np.abs(k.sum(axis=1))
    return _lebesgue_max(grid.nodes_1d, sample, lebesgue)


def equidistant_lebesgue(n: int, grid_density: int = 200001) -> float:
    """Same scan for n+1 equidistant nodes on [-1, 1], in log space:
    |l_i(x)| = exp(sum_{j != i} log|x - x_j| + log w_i), with 1/w_i =
    (2/n)^n i! (n-i)!; the barycentric form cancels past n ~ 50."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if grid_density < 1000:
        raise ValueError("grid_density must be >= 1000")
    nodes = np.linspace(-1.0, 1.0, n + 1)
    logw = -np.array([n * math.log(2.0 / n) + math.lgamma(i + 1)
                      + math.lgamma(n - i + 1) for i in range(n + 1)])
    sample = np.linspace(-1.0, 1.0, grid_density)

    def lebesgue(diff):
        logd = np.log(np.abs(diff))
        return np.exp(logd.sum(axis=1)[:, None] - logd + logw).sum(axis=1)
    return _lebesgue_max(nodes, sample, lebesgue)


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
