"""Implicit surface descriptors and the closest-point projection.

A surface is the zero set of a level function phi: R^3 -> R.  The built-in
sphere, torus and ellipsoid carry analytic gradients, Hessians, Gaussian
curvature and (where a closed form exists) an analytic closest-point
projection.  Generic level sets fall back to a damped Newton iteration on the
stationarity system of the distance minimization.

All field callables are vectorized: they accept arrays of shape (..., 3) and
return values of shape (...) or (..., 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import DegeneratePoint, NoConvergence, OutsideTube

DEFAULT_TOL = 1e-13
DEFAULT_MAX_ITER = 50

# number of gradient-flow steps used to seed the Newton iteration
_FLOW_STEPS = 5

# points per projection block: the iteration's temporaries (KKT stack,
# Hessians, trial residuals) take about 700 B per point of a block
_BLOCK = 8192


@dataclass(frozen=True)
class ImplicitSurface:
    """Level-set description of a smooth closed surface.

    The surface is {x : phi(x) = 0} with phi < 0 inside and phi > 0 outside.
    ``gauss_curvature`` is defined for points in a tubular neighborhood;
    evaluate it at projected (on-surface) points.  ``analytic_project`` and
    ``hess_phi`` are optional accelerators for the projection.
    """

    name: str
    phi: Callable[[np.ndarray], np.ndarray]
    grad_phi: Callable[[np.ndarray], np.ndarray]
    gauss_curvature: Callable[[np.ndarray], np.ndarray]
    params: Mapping[str, float] = field(default_factory=dict)
    euler_characteristic: Optional[int] = None
    analytic_project: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess_phi: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of projecting a single point onto the surface."""

    point: np.ndarray
    distance: float
    iterations: int
    residual: float


def sphere(radius: float = 1.0) -> ImplicitSurface:
    """Sphere of given radius centered at the origin."""
    if radius <= 0:
        raise ValueError(f"sphere requires R > 0, got R={radius}")
    r2 = radius * radius

    def phi(p):
        p = np.asarray(p, dtype=float)
        return np.einsum("...i,...i->...", p, p) - r2

    def grad(p):
        return 2.0 * np.asarray(p, dtype=float)

    def curvature(p):
        p = np.asarray(p, dtype=float)
        return np.full(p.shape[:-1], 1.0 / r2)

    def proj(p):
        p = np.asarray(p, dtype=float)
        norms = np.linalg.norm(p, axis=-1)
        if np.any(norms == 0.0):
            raise OutsideTube("cannot project the sphere center",
                              indices=np.flatnonzero(norms == 0.0))
        return p * (radius / norms)[..., None]

    def hess(p):
        p = np.asarray(p, dtype=float)
        eye = 2.0 * np.eye(3)
        return np.broadcast_to(eye, p.shape[:-1] + (3, 3))

    return ImplicitSurface(
        name="sphere",
        phi=phi,
        grad_phi=grad,
        gauss_curvature=curvature,
        params={"R": float(radius)},
        euler_characteristic=2,
        analytic_project=proj,
        hess_phi=hess,
    )


def torus(major_radius: float = 2.0, minor_radius: float = 1.0) -> ImplicitSurface:
    """Torus with tube of radius r around a circle of radius R in the xy-plane.

    Level set: (x^2 + y^2 + z^2 + R^2 - r^2)^2 - 4 R^2 (x^2 + y^2).
    """
    R, r = float(major_radius), float(minor_radius)
    if not 0 < r < R:
        raise ValueError(f"torus requires 0 < r < R, got R={R}, r={r}")

    def phi(p):
        p = np.asarray(p, dtype=float)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        u = x * x + y * y + z * z + R * R - r * r
        return u * u - 4.0 * R * R * (x * x + y * y)

    def grad(p):
        p = np.asarray(p, dtype=float)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        u = x * x + y * y + z * z + R * R - r * r
        g = np.empty_like(p)
        g[..., 0] = 4.0 * x * (u - 2.0 * R * R)
        g[..., 1] = 4.0 * y * (u - 2.0 * R * R)
        g[..., 2] = 4.0 * z * u
        return g

    def curvature(p):
        # cos(theta) recovered from the radial distance; no branch cuts.
        p = np.asarray(p, dtype=float)
        rho = np.hypot(p[..., 0], p[..., 1])
        if np.any(rho == 0.0):
            raise DegeneratePoint("torus curvature undefined on the z-axis")
        cos_t = np.clip((rho - R) / r, -1.0, 1.0)
        return cos_t / (r * (R + r * cos_t))

    def proj(p):
        p = np.asarray(p, dtype=float)
        rho = np.hypot(p[..., 0], p[..., 1])
        if np.any(rho == 0.0):
            raise OutsideTube("projection undefined on the torus axis",
                              indices=np.flatnonzero(rho == 0.0))
        center = np.empty_like(p)
        center[..., 0] = R * p[..., 0] / rho
        center[..., 1] = R * p[..., 1] / rho
        center[..., 2] = 0.0
        v = p - center
        vnorm = np.linalg.norm(v, axis=-1)
        if np.any(vnorm == 0.0):
            raise OutsideTube("projection undefined on the torus center circle",
                              indices=np.flatnonzero(vnorm == 0.0))
        return center + v * (r / vnorm)[..., None]

    def hess(p):
        p = np.asarray(p, dtype=float)
        u = np.einsum("...i,...i->...", p, p) + R * R - r * r
        return ((4.0 * u)[..., None, None] * np.eye(3)
                + 8.0 * p[..., :, None] * p[..., None, :]
                - 8.0 * R * R * np.diag([1.0, 1.0, 0.0]))

    return ImplicitSurface(
        name="torus",
        phi=phi,
        grad_phi=grad,
        gauss_curvature=curvature,
        params={"R": R, "r": r},
        euler_characteristic=0,
        analytic_project=proj,
        hess_phi=hess,
    )


def ellipsoid(a: float = 1.0, b: float = 1.0, c: float = 1.0) -> ImplicitSurface:
    """Axis-aligned ellipsoid x^2/a^2 + y^2/b^2 + z^2/c^2 = 1."""
    a, b, c = float(a), float(b), float(c)
    if min(a, b, c) <= 0:
        raise ValueError(f"ellipsoid requires a,b,c > 0, got a={a}, b={b}, c={c}")
    inv2 = np.array([1.0 / (a * a), 1.0 / (b * b), 1.0 / (c * c)])
    inv4 = inv2 * inv2
    abc2 = (a * b * c) ** 2

    def phi(p):
        p = np.asarray(p, dtype=float)
        return np.einsum("...i,i->...", p * p, inv2) - 1.0

    def grad(p):
        p = np.asarray(p, dtype=float)
        return 2.0 * p * inv2

    def curvature(p):
        p = np.asarray(p, dtype=float)
        q = np.einsum("...i,i->...", p * p, inv4)
        return 1.0 / (abc2 * q * q)

    def hess(p):
        p = np.asarray(p, dtype=float)
        h = np.diag(2.0 * inv2)
        return np.broadcast_to(h, p.shape[:-1] + (3, 3))

    return ImplicitSurface(
        name="ellipsoid",
        phi=phi,
        grad_phi=grad,
        gauss_curvature=curvature,
        params={"a": a, "b": b, "c": c},
        euler_characteristic=2,
        hess_phi=hess,
    )


def from_level_set(phi, grad_phi, gauss_curvature=None, analytic_project=None,
                   hess_phi=None, euler_characteristic=None, name="generic",
                   params=None) -> ImplicitSurface:
    """Wrap user callables into a surface descriptor.

    When ``gauss_curvature`` is omitted and ``hess_phi`` is given, the
    curvature is Goldman's ``K = grad^T adj(H) grad / |grad|^4`` (CAGD 22,
    2005) at points on the surface.  Without either it may be omitted only
    when area integrals are all that is needed.
    """

    def no_curvature(p):
        raise NotImplementedError("no Gaussian curvature defined for this surface")

    def goldman_curvature(p):
        g = np.asarray(grad_phi(p), dtype=float)
        h = np.asarray(hess_phi(p), dtype=float)
        c0, c1, c2 = h[..., :, 0], h[..., :, 1], h[..., :, 2]
        # the rows of adj(H) are the cross products of H's columns
        g_adj = (np.cross(c1, c2) * g[..., 0, None] + np.cross(c2, c0) * g[..., 1, None]
                 + np.cross(c0, c1) * g[..., 2, None])
        g2 = np.einsum("...i,...i->...", g, g)
        return np.einsum("...i,...i->...", g_adj, g) / (g2 * g2)

    if gauss_curvature is None:
        gauss_curvature = no_curvature if hess_phi is None else goldman_curvature
    return ImplicitSurface(
        name=name,
        phi=phi,
        grad_phi=grad_phi,
        gauss_curvature=gauss_curvature,
        params=dict(params or {}),
        euler_characteristic=euler_characteristic,
        analytic_project=analytic_project,
        hess_phi=hess_phi,
    )


def parse_surface(spec: str) -> ImplicitSurface:
    """Build a surface from a CLI string like ``torus:R=2,r=1``.

    Accepted forms: ``sphere:R=<f>``, ``torus:R=<f>,r=<f>``,
    ``ellipsoid:a=<f>,b=<f>,c=<f>``.  Unknown names or keys are rejected.
    """
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    kv = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"malformed surface parameter {item!r} in {spec!r}")
            try:
                kv[key.strip()] = float(val)
            except ValueError:
                raise ValueError(f"non-numeric value in surface parameter {item!r}") from None

    makers = {
        "sphere": (sphere, {"R": "radius"}),
        "torus": (torus, {"R": "major_radius", "r": "minor_radius"}),
        "ellipsoid": (ellipsoid, {"a": "a", "b": "b", "c": "c"}),
    }
    if name not in makers:
        raise ValueError(f"unknown surface {name!r} (expected sphere, torus or ellipsoid)")
    maker, keymap = makers[name]
    unknown = set(kv) - set(keymap)
    if unknown:
        raise ValueError(f"unknown parameter(s) {sorted(unknown)} for surface {name!r}")
    return maker(**{keymap[k]: v for k, v in kv.items()})


def gauss_curvature_at(surface: ImplicitSurface, p) -> float:
    """Gaussian curvature at a point on (or near) the surface."""
    return float(surface.gauss_curvature(np.asarray(p, dtype=float)))


def surface_area_exact(surface: ImplicitSurface) -> Optional[float]:
    """Closed-form surface area, or None when no closed form is exposed."""
    if surface.name == "sphere":
        R = surface.params["R"]
        return 4.0 * math.pi * R * R
    if surface.name == "torus":
        return 4.0 * math.pi**2 * surface.params["R"] * surface.params["r"]
    return None


def _hessian(surface: ImplicitSurface, pts: np.ndarray) -> np.ndarray:
    """Analytic Hessian when available, else central differences of grad_phi."""
    if surface.hess_phi is not None:
        return np.asarray(surface.hess_phi(pts), dtype=float)
    scale = 1.0 + np.linalg.norm(pts, axis=-1, keepdims=True)
    h = 1e-6 * scale
    out = np.empty(pts.shape[:-1] + (3, 3))
    for j in range(3):
        step = np.zeros_like(pts)
        step[..., j] = h[..., 0]
        out[..., :, j] = (surface.grad_phi(pts + step) - surface.grad_phi(pts - step)) / (
            2.0 * h
        )
    # symmetrize away finite-difference noise
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def project_many(surface: ImplicitSurface, points, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER):
    """Project an (n, 3) batch of points onto the surface.

    Returns (projected (n,3), signed distance (n,), iterations (n,),
    residuals (n,)).  Raises OutsideTube for degenerate seeds and
    NoConvergence if any point fails to converge within ``max_iter``; both
    name the failing points by their index in ``points``.

    The points are projected in blocks of ``_BLOCK`` into outputs allocated
    once, so the iteration's temporaries do not grow with the batch.  Every
    operation on a point is elementwise: its bits do not depend on its block.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")

    n = len(pts)
    proj = np.empty((n, 3))
    dist = np.empty(n)
    iters = np.zeros(n, dtype=int)
    resid = np.empty(n)
    unconverged = np.zeros(n, dtype=bool)
    outside, outside_indices = None, []
    for lo in range(0, n, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        try:
            if surface.analytic_project is not None:
                proj[block] = surface.analytic_project(pts[block])
                resid[block] = np.abs(surface.phi(proj[block]))
            else:
                (proj[block], iters[block], resid[block],
                 unconverged[block]) = _newton_block(surface, pts[block], tol, max_iter)
        except OutsideTube as exc:
            if outside is None:
                outside = exc
            outside_indices += [lo + i for i in exc.indices]
            continue
        dist[block] = np.sign(surface.phi(pts[block])) * np.linalg.norm(
            pts[block] - proj[block], axis=-1)

    if outside is not None:
        raise OutsideTube(str(outside), indices=outside_indices) from outside
    if np.any(unconverged):
        bad = np.flatnonzero(unconverged)
        worst = int(bad[np.argmax(resid[bad])])
        raise NoConvergence(int(iters[worst]), float(resid[worst]),
                            indices=bad.tolist(), residuals=resid[bad].tolist())
    return proj, dist, iters, resid


def _newton_block(surface: ImplicitSurface, pts: np.ndarray, tol: float,
                  max_iter: int):
    """Gradient flow, then damped Newton on the stationarity system, for one
    block of points: (projections, iterations, residual norms, mask of the
    points still above tolerance)."""
    scale = np.maximum(1.0, np.linalg.norm(pts, axis=-1))

    # gradient-flow pre-steps: basin-safe seed on (near) the zero set
    y = pts.copy()
    for _ in range(_FLOW_STEPS):
        g = surface.grad_phi(y)
        g2 = np.einsum("ij,ij->i", g, g)
        vanishing = g2 <= 1e-300 * scale * scale
        if np.any(vanishing):
            bad = int(np.argmin(g2))
            raise OutsideTube(
                f"vanishing level-set gradient at seed point {pts[bad]} "
                "(point outside the projectable tube)",
                indices=np.flatnonzero(vanishing))
        y -= (surface.phi(y) / g2)[:, None] * g

    g = surface.grad_phi(y)
    g2 = np.einsum("ij,ij->i", g, g)
    lam = np.einsum("ij,ij->i", pts - y, g) / g2

    def resid_vec(yv, lv, target):
        gv = surface.grad_phi(yv)
        stat = yv - target + lv[:, None] * gv
        return np.concatenate([stat, surface.phi(yv)[:, None]], axis=1)

    F = resid_vec(y, lam, pts)
    rnorm = np.linalg.norm(F, axis=1)
    iters = np.zeros(len(pts), dtype=int)
    active = rnorm > tol * scale

    for _ in range(max_iter):
        if not np.any(active):
            break
        ia = np.flatnonzero(active)
        ya, la = y[ia], lam[ia]
        ga = surface.grad_phi(ya)
        Ha = _hessian(surface, ya)

        # KKT system of the stationarity conditions
        n_a = len(ia)
        M = np.zeros((n_a, 4, 4))
        M[:, :3, :3] = np.eye(3) + la[:, None, None] * Ha
        M[:, :3, 3] = ga
        M[:, 3, :3] = ga
        rhs = -F[ia]
        try:
            delta = np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            delta = np.stack([np.linalg.lstsq(M[i], rhs[i], rcond=None)[0]
                              for i in range(n_a)])

        # damping: halve the step until the residual decreases; points that
        # never improve stay put (and eventually report NoConvergence)
        alpha = np.ones(n_a)
        best = rnorm[ia]
        target = pts[ia]
        for _ in range(40):
            y_try = ya + alpha[:, None] * delta[:, :3]
            l_try = la + alpha * delta[:, 3]
            F_try = resid_vec(y_try, l_try, target)
            r_try = np.linalg.norm(F_try, axis=1)
            improved = r_try < best
            if np.all(improved):
                break
            alpha = np.where(improved, alpha, alpha * 0.5)
        # the last trial holds every improved point's accepted step
        accepted = ia[improved]
        y[accepted] = y_try[improved]
        lam[accepted] = l_try[improved]
        F[accepted] = F_try[improved]
        rnorm[accepted] = r_try[improved]
        iters[ia] += 1
        active[ia] = rnorm[ia] > tol * scale[ia]
    return y, iters, rnorm, active


def project(surface: ImplicitSurface, x, tol: float = DEFAULT_TOL,
            max_iter: int = DEFAULT_MAX_ITER) -> ProjectionResult:
    """Closest point on the surface to ``x`` (single point)."""
    pts, dist, iters, resid = project_many(surface, np.asarray(x, dtype=float)[None, :],
                                           tol=tol, max_iter=max_iter)
    return ProjectionResult(point=pts[0], distance=float(dist[0]),
                            iterations=int(iters[0]), residual=float(resid[0]))
