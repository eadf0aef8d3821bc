"""Implicit surface descriptors and the closest-point projection.

A surface is the zero set of a level function phi: R^3 -> R.  The built-in
sphere, torus and ellipsoid carry analytic gradients, Hessians, Gaussian
curvature and a closest-point projection of their own: a closed form on the
sphere and torus, the root of the secular equation on the ellipsoid.  Generic
level sets fall back to a damped Newton iteration on the stationarity system
of the distance minimization.

All field callables are vectorized: they accept arrays of shape (..., 3) and
return values of shape (...) or (..., 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from . import blocks
from .errors import DegeneratePoint, NoConvergence, OutsideTube

# Newton's residual tolerance (times max(1, |x|)), and the step budget of
# Newton and of the ellipsoid's secular iteration; both read at call time
TOL = 1e-13
MAX_ITER = 50

# number of gradient-flow steps used to seed the Newton iteration
_FLOW_STEPS = 5

# the ellipsoid's secular function at roundoff: a point freezes below it
_SECULAR_TOL = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class ImplicitSurface:
    """Level-set description of a smooth closed surface.

    The surface is {x : phi(x) = 0} with phi < 0 inside and phi > 0 outside.
    ``gauss_curvature`` is defined for points in a tubular neighborhood;
    evaluate it at projected (on-surface) points.  ``analytic_project`` and
    ``hess_phi`` are optional accelerators for the projection.
    ``analytic_project`` maps an (n, 3) batch to its closest points; it may
    return non-finite coordinates where no closest point exists, or name the
    points it cannot project by their index in the batch, raising
    OutsideTube or NoConvergence.
    """

    name: str
    phi: Callable[[np.ndarray], np.ndarray]
    grad_phi: Callable[[np.ndarray], np.ndarray]
    gauss_curvature: Callable[[np.ndarray], np.ndarray]
    params: Mapping[str, float] = field(default_factory=dict)
    euler_characteristic: Optional[int] = None
    analytic_project: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess_phi: Optional[Callable[[np.ndarray], np.ndarray]] = None


def sphere(radius: float = 1.0) -> ImplicitSurface:
    """Sphere of given radius centered at the origin."""
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"sphere requires a finite R > 0, got R={radius}")
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
        return p * (radius / np.linalg.norm(p, axis=-1))[..., None]

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
    if not (0 < r < R and math.isfinite(R)):
        raise ValueError(f"torus requires 0 < r < R, R finite, got R={R}, r={r}")

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
        center = np.empty_like(p)
        center[..., 0] = R * p[..., 0] / rho
        center[..., 1] = R * p[..., 1] / rho
        center[..., 2] = 0.0
        v = p - center
        return center + v * (r / np.linalg.norm(v, axis=-1))[..., None]

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
    if not all(math.isfinite(x) and x > 0 for x in (a, b, c)):
        raise ValueError(f"ellipsoid requires finite a,b,c > 0, got a={a}, b={b}, c={c}")
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

    def proj(p):
        p = np.asarray(p, dtype=float)
        return _secular_project((a, b, c), p.reshape(-1, 3)).reshape(p.shape)

    return ImplicitSurface(
        name="ellipsoid",
        phi=phi,
        grad_phi=grad,
        gauss_curvature=curvature,
        params={"a": a, "b": b, "c": c},
        euler_characteristic=2,
        analytic_project=proj,
        hess_phi=hess,
    )


def _secular_project(axes, pts):
    """Closest points of (n, 3) points on the ellipsoid with semi-axes
    ``axes``, through its secular equation (D. Eberly, "Distance from a Point
    to an Ellipse, an Ellipsoid, or a Hyperellipsoid", 2011).

    The closest point to x is y_i = a_i^2 x_i / (t + a_i^2), t the largest
    root of F(t) = sum_i (a_i x_i / (t + a_i^2))^2 - 1 = phi(y).  On t > -m,
    m the smallest a_i^2, F is convex and decreasing, so Newton's iteration
    climbs to the root monotonically from its left.  It starts at the first
    Newton step from t = 0, 2 phi(x) / |grad phi(x)|^2, and clamps every step
    at t_lo = max(max_i(a_i |x_i| - a_i^2), -m), where F >= 0.  It runs on
    s = t + m, so that t + a_i^2 = s + (a_i^2 - m) keeps its relative
    precision near the pole t = -m.

    A point takes one more step and freezes on its own once F is at its
    roundoff, F <= 8 eps, which a step to the right of the root also meets;
    so its bits do not depend on the other points.  (A step bound in t, such
    as 4 eps (|t| + m), is below what F resolves when the axes differ
    much, and above it near the pole.)  One (n,) array per component,
    elementwise.

    Raises OutsideTube naming the points with no root above -m (the centre
    and the medial sheet, where the closest point is not unique) or with
    non-finite data, else NoConvergence naming the points still moving after
    ``MAX_ITER`` steps.
    """
    a2 = [ai * ai for ai in axes]
    m = min(a2)
    shift = [a2i - m for a2i in a2]
    # s stays above 0, so that a smallest axis with x_i = 0 has the term
    # 0 / s = 0 at the pole; where x_i != 0 there, s_lo >= |a_i x_i| already
    pole = np.finfo(float).smallest_subnormal
    x = [pts[:, i] for i in range(3)]
    ax = [ai * xi for ai, xi in zip(axes, x)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s_lo = np.maximum(np.maximum(np.abs(ax[0]) - shift[0], np.abs(ax[1]) - shift[1]),
                          np.maximum(np.abs(ax[2]) - shift[2], pole))
        u = [xi / a2i for xi, a2i in zip(x, a2)]
        s = np.maximum((x[0] * u[0] + x[1] * u[1] + x[2] * u[2] - 1.0)
                       / (2.0 * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2])) + m, s_lo)

        root = np.empty(len(pts))
        outside = np.zeros(len(pts), dtype=bool)
        idx = np.arange(len(pts))
        for _ in range(MAX_ITER):
            d = [s + ci for ci in shift]
            qq = [(axi / di) ** 2 for axi, di in zip(ax, d)]
            f = qq[0] + qq[1] + qq[2] - 1.0
            step = f / (2.0 * (qq[0] / d[0] + qq[1] / d[1] + qq[2] / d[2]))
            # F < 0 at the pole: no root above it
            bad = ~np.isfinite(step) | ((f < 0.0) & (s <= pole))
            settled = f <= _SECULAR_TOL
            outside[idx[bad]] = True
            root[idx[settled]] = np.maximum(s + step, s_lo)[settled]
            moving = ~(settled | bad)
            idx, f, s_lo = idx[moving], f[moving], s_lo[moving]
            s = np.maximum(s[moving] + step[moving], s_lo)
            ax = [axi[moving] for axi in ax]
            if not len(idx):
                break
    if np.any(outside):
        raise OutsideTube("no root of the ellipsoid's secular equation above "
                          "-min a^2 (the centre or the medial sheet)",
                          indices=np.flatnonzero(outside))
    if len(idx):
        resid = np.abs(f)
        raise NoConvergence(MAX_ITER, float(resid.max()), indices=idx,
                            residuals=resid)
    out = np.empty_like(pts)
    for i in range(3):
        out[:, i] = a2[i] * x[i] / (root + shift[i])
    return out


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
    ``ellipsoid:a=<f>,b=<f>,c=<f>``.  Unknown names or keys and repeated keys
    are rejected.
    """
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    kv = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            key = key.strip()
            if not eq:
                raise ValueError(f"malformed surface parameter {item!r} in {spec!r}")
            if key in kv:
                raise ValueError(f"repeated surface parameter {key!r} in {spec!r}")
            try:
                kv[key] = float(val)
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


def project_many(surface: ImplicitSurface, points, out=None):
    """Project an (n, 3) batch of points onto the surface.

    Returns (projected (n,3), signed distance (n,), iterations (n,),
    residuals (n,)).  Raises OutsideTube for degenerate seeds and for every
    point whose projection is not finite (a non-finite point, or one with no
    closest point), else NoConvergence if any point fails to converge within
    ``MAX_ITER``; both name the failing points by their index in ``points``.

    The projections go into ``out``, a float (n, 3) array, when it is given;
    it may alias ``points``, whose original values then give the distances
    all the same.  After a raise its blocks hold a mix of projected and
    original points.

    The points are projected at most ``blocks.BLOCK`` at a time, into
    outputs allocated once, so the iteration's temporaries do not grow with
    the batch (Newton's Hessians, closed-form step components and trial
    residuals, about 650 B per point; the ellipsoid's secular iteration,
    about 180 B).  Every operation on a point is elementwise: its bits do not
    depend on its block.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))

    n = len(pts)
    if out is None:
        out = np.empty((n, 3))
    elif out.shape != (n, 3) or out.dtype != float:
        raise ValueError(f"out must be a float ({n}, 3) array, "
                         f"got {out.dtype} {out.shape}")
    dist = np.empty(n)
    iters = np.zeros(n, dtype=int)
    resid = np.empty(n)
    unconverged = np.zeros(n, dtype=bool)
    outside, outside_indices = None, []
    for block in blocks.blocks(n):
        try:
            if surface.analytic_project is not None:
                with np.errstate(divide="ignore", invalid="ignore"):
                    proj = surface.analytic_project(pts[block])
                resid[block] = np.abs(surface.phi(proj))
            else:
                (proj, iters[block], resid[block],
                 unconverged[block]) = _newton_block(surface, pts[block])
            finite = np.isfinite(proj)
            if not finite.all():
                bad = np.flatnonzero(~finite.all(axis=1))
                raise OutsideTube("projection is not finite (a non-finite "
                                  "point, or no closest point)", indices=bad.tolist())
        except OutsideTube as exc:
            if outside is None:
                outside = exc
            outside_indices += [block.start + int(i) for i in exc.indices]
            continue
        except NoConvergence as exc:
            bad = block.start + np.asarray(exc.indices, dtype=int)
            unconverged[bad], iters[bad], resid[bad] = True, exc.iterations, exc.residuals
            continue
        # the original points are read before ``out`` may overwrite them
        dist[block] = np.sign(surface.phi(pts[block])) * np.linalg.norm(
            pts[block] - proj, axis=-1)
        out[block] = proj

    if outside is not None:
        raise OutsideTube(str(outside), indices=outside_indices) from outside
    if np.any(unconverged):
        bad = np.flatnonzero(unconverged)
        worst = int(bad[np.argmax(resid[bad])])
        raise NoConvergence(int(iters[worst]), float(resid[worst]),
                            indices=bad.tolist(), residuals=resid[bad].tolist())
    return out, dist, iters, resid


def _newton_block(surface: ImplicitSurface, pts: np.ndarray):
    """Gradient flow, then damped Newton on the stationarity system, for one
    block of points, and one full Newton step for each point that met the
    tolerance: (projections, iterations, residual norms, mask of the points
    still above tolerance)."""
    scale = np.maximum(1.0, np.linalg.norm(pts, axis=-1))

    # gradient-flow pre-steps: basin-safe seed on (near) the zero set
    y = pts.copy()
    for _ in range(_FLOW_STEPS):
        g = surface.grad_phi(y)
        g2 = np.einsum("ij,ij->i", g, g)
        vanishing = np.flatnonzero(g2 <= 1e-300 * scale * scale)
        if len(vanishing):
            raise OutsideTube(
                f"vanishing level-set gradient at seed point {pts[vanishing[0]]} "
                "(point outside the projectable tube)",
                indices=vanishing.tolist())
        y -= (surface.phi(y) / g2)[:, None] * g

    # grad_phi at the current iterate is kept for the next step
    g = surface.grad_phi(y)
    g2 = np.einsum("ij,ij->i", g, g)
    lam = np.einsum("ij,ij->i", pts - y, g) / g2
    _, stat, phi, rnorm = _residual(surface, pts, y, lam, g)
    iters = np.zeros(len(pts), dtype=int)
    active = rnorm > TOL * scale

    for _ in range(MAX_ITER):
        if not np.any(active):
            break
        ia = np.flatnonzero(active)
        ya, la = y[ia], lam[ia]
        dy, dl = _kkt_step(la, _hessian(surface, ya), g[ia], stat[ia], phi[ia])

        # damping: one step length, halved after each trial, tried only on the
        # points that have not improved yet; each point takes its first
        # improving trial, and a point that never improves stays put (and
        # eventually reports NoConvergence)
        idx, target, best = ia, pts[ia], rnorm[ia]
        alpha = 1.0
        for _ in range(40):
            y_try, l_try = ya + alpha * dy, la + alpha * dl
            trial = (y_try, l_try, *_residual(surface, target, y_try, l_try))
            improved = trial[-1] < best
            accepted = idx[improved]
            for kept, tried in zip((y, lam, g, stat, phi, rnorm), trial):
                kept[accepted] = tried[improved]
            if np.all(improved):
                break
            searching = ~improved
            idx, ya, la, dy, dl, target, best = (
                x[searching] for x in (idx, ya, la, dy, dl, target, best))
            alpha *= 0.5
        iters[ia] += 1
        active[ia] = rnorm[ia] > TOL * scale[ia]

    # one full Newton step past the tolerance, outside the line search: the
    # iteration stops at TOL, and the next (quadratically convergent) step
    # reaches roundoff; kept where it is finite and still within TOL (a
    # non-finite step has a non-finite residual)
    done = np.flatnonzero(~active)
    dy, dl = _kkt_step(lam[done], _hessian(surface, y[done]), g[done],
                       stat[done], phi[done])
    y_try = y[done] + dy
    r_try = _residual(surface, pts[done], y_try, lam[done] + dl)[3]
    keep = r_try <= TOL * scale[done]
    polished = done[keep]
    y[polished], rnorm[polished] = y_try[keep], r_try[keep]
    iters[polished] += 1
    return y, iters, rnorm, active


def _residual(surface: ImplicitSurface, pts, y, lam, g=None):
    """grad_phi(y) (``g`` if given) and the stationarity residual at targets
    pts: y - pts + lam grad_phi(y), phi(y) and the norm of the two."""
    g = surface.grad_phi(y) if g is None else g
    stat = y - pts + lam[:, None] * g
    phi = surface.phi(y)
    return g, stat, phi, np.sqrt(np.einsum("ij,ij->i", stat, stat) + phi * phi)


def _kkt_step(lam, hess, grad, stat, phi):
    """Newton step (dy, dlam) of the stationarity system for (n,) multipliers,
    (n, 3, 3) Hessians, (n, 3) gradients and stationarity residuals and (n,)
    level values: the solution of the KKT system

        [[A, grad], [grad^T, 0]] [dy; dlam] = -[stat; phi],  A = I + lam H,

    from its Schur complement through adj(A), one (n,) array per component;
    H need not be symmetric.  A finite point whose A is exactly singular, or
    whose Schur complement is 0, is solved as its own 4x4 system (least
    squares if that is singular too); a point with non-finite data gets a
    non-finite step.
    """
    g, r = grad.T, stat.T
    dy = np.empty_like(stat)
    with np.errstate(divide="ignore", invalid="ignore"):
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = (
            [float(i == j) + lam * hess[:, i, j] for j in range(3)] for i in range(3))
        adj = ((a11 * a22 - a12 * a21, a02 * a21 - a01 * a22, a01 * a12 - a02 * a11),
               (a12 * a20 - a10 * a22, a00 * a22 - a02 * a20, a02 * a10 - a00 * a12),
               (a10 * a21 - a11 * a20, a01 * a20 - a00 * a21, a00 * a11 - a01 * a10))
        det = a00 * adj[0][0] + a01 * adj[1][0] + a02 * adj[2][0]
        u = [-(row[0] * r[0] + row[1] * r[1] + row[2] * r[2]) for row in adj]
        v = [row[0] * g[0] + row[1] * g[1] + row[2] * g[2] for row in adj]
        schur = g[0] * v[0] + g[1] * v[1] + g[2] * v[2]
        dlam = (g[0] * u[0] + g[1] * u[1] + g[2] * u[2] + det * phi) / schur
        for c in range(3):
            dy[:, c] = (u[c] - v[c] * dlam) / det
    for i in np.flatnonzero((det == 0.0) | (schur == 0.0)):
        kkt = np.zeros((4, 4))
        kkt[:3, :3] = np.eye(3) + lam[i] * hess[i]
        kkt[:3, 3] = kkt[3, :3] = grad[i]
        rhs = -np.append(stat[i], phi[i])
        if not (np.all(np.isfinite(kkt)) and np.all(np.isfinite(rhs))):
            continue
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        dy[i], dlam[i] = sol[:3], sol[3]
    return dy, dlam
