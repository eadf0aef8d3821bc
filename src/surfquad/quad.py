"""Triangle quadrature rules and surface integral assembly.

Two integrand modes are supported: ``exact_f`` evaluates the integrand at the
curved chart points, ``interp_f`` samples it only at the projected nodes (on
the surface) and integrates its degree-k interpolant.  The total is
``math.fsum`` of the element values: the one correctly rounded sum, whatever
the element order.  An element's value does not depend on its chunk or
thread, so totals are bit-reproducible and independent of face numbering and
thread count.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrules
from .curved import (_CENTROID, CurvedElement, ElementBatch, _basis_tables,
                     _chart_metric, _folded_charts, build_surface_elements)
from .errors import (DegenerateJacobian, DegeneratePoint, IntegrationError,
                     UnsupportedDegree)
from .refmesh import FlatMesh
from .surfaces import ImplicitSurface

MODE_EXACT = "exact_f"
MODE_INTERP = "interp_f"

# elements per vectorized block of the surface assembly
_CHUNK = 512


@dataclass(frozen=True)
class QuadratureRule:
    """Positive-weight rule on the reference triangle, exact to ``degree``."""

    degree: int
    points: np.ndarray    # (n, 2)
    weights: np.ndarray   # (n,), sums to 1/2


@dataclass(frozen=True)
class IntegralResult:
    value: float
    n_elements: int
    mode: str
    k: int


def monomial_integral(a: int, b: int) -> float:
    """Exact integral of s^a t^b over the reference triangle: a! b!/(a+b+2)!."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def _verify_rule(rule: QuadratureRule, tol: float = 1e-13) -> None:
    """Abort if a built-in rule fails the monomial-moment oracle."""
    s, t = rule.points[:, 0], rule.points[:, 1]
    if np.any(rule.weights <= 0.0):
        raise AssertionError(f"degree-{rule.degree} rule has nonpositive weights")
    if np.any(s <= 0.0) or np.any(t <= 0.0) or np.any(s + t >= 1.0):
        raise AssertionError(f"degree-{rule.degree} rule has boundary/exterior points")
    for a in range(rule.degree + 1):
        for b in range(rule.degree + 1 - a):
            got = float(rule.weights @ (s**a * t**b))
            if abs(got - monomial_integral(a, b)) > tol:
                raise AssertionError(
                    f"degree-{rule.degree} rule fails on s^{a} t^{b}: "
                    f"{got!r} vs {monomial_integral(a, b)!r}")


@functools.cache
def builtin_rule(degree: int) -> QuadratureRule:
    """Embedded symmetric rule exact to the requested degree (1..12)."""
    if type(degree) is not int or not 1 <= degree <= 12:   # not bool either
        raise UnsupportedDegree(f"no embedded rule of degree {degree!r}")
    pts, wts = quadrules.rule_table(degree)
    rule = QuadratureRule(degree=degree, points=pts, weights=wts)
    _verify_rule(rule)
    return rule


def _nodal_values(mode: str, f: Callable, nodes: np.ndarray):
    """f at the projected nodes in interp mode; None in exact mode."""
    if mode not in (MODE_EXACT, MODE_INTERP):
        raise ValueError(f"unknown integration mode {mode!r}")
    return np.asarray(f(nodes), dtype=float) if mode == MODE_INTERP else None


def _chart_integrals(tables: tuple, weights: np.ndarray, nodes: np.ndarray,
                     f: Callable, f_nodal: np.ndarray | None):
    """Integrals of f over (C, N, 3) element nodes (from ``f_nodal`` if given)
    and the (C,) mask of elements with metric determinant <= 0."""
    pts, _, _, det = _chart_metric(tables, nodes)
    degenerate = np.any(det <= 0.0, axis=1)
    metric = np.sqrt(np.maximum(det, 0.0))
    if f_nodal is None:
        fvals = np.asarray(f(pts), dtype=float)
        if fvals.shape != pts.shape[:-1]:
            fvals = np.broadcast_to(fvals, pts.shape[:-1])
    # a non-finite f gives non-finite element values; callers name their faces
    with np.errstate(invalid="ignore"):
        if f_nodal is not None:
            fvals = (tables[0] @ f_nodal[..., None])[..., 0]
        # one product per element, as in _chart_metric: one (C, q) @ (q,)
        # product sums the chunk's last C % 4 rows in another order
        return ((fvals * metric)[:, None] @ weights)[:, 0], degenerate


def _element_values(batch: ElementBatch, rule: QuadratureRule, mode: str,
                    f: Callable, surface: ImplicitSurface,
                    threads: int = 1) -> np.ndarray:
    """Per-element integral values, vectorized over chunks of elements."""
    f_nodal_unique = _nodal_values(mode, f, batch.unique_nodes)
    tables = _basis_tables(batch.basis, rule.points)
    centroid_tables = _basis_tables(batch.basis, _CENTROID)

    out = np.empty(batch.n_elements)
    failures: list[tuple[int, Exception]] = []

    def run_chunk(lo: int) -> None:
        hi = min(lo + _CHUNK, batch.n_elements)
        nodes = batch.element_nodes(slice(lo, hi))           # (C, N, 3)
        f_nodal = (None if f_nodal_unique is None
                   else f_nodal_unique[batch.node_index[lo:hi]])
        out[lo:hi], degenerate = _chart_integrals(tables, rule.weights, nodes,
                                                  f, f_nodal)
        tris = batch.mesh.vertices[batch.mesh.faces[lo:hi]]
        folded = _folded_charts(surface, centroid_tables, nodes, tris)
        for mask, error, why in (
                (degenerate, DegenerateJacobian, "metric determinant <= 0"),
                (folded, DegenerateJacobian, "chart folds against the normal"),
                (~np.isfinite(out[lo:hi]), DegeneratePoint,
                 "element integral is not finite")):
            failures.extend((lo + int(ci), error(why))
                            for ci in np.flatnonzero(mask))

    starts = range(0, batch.n_elements, _CHUNK)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunk, starts))
    else:
        for lo in starts:
            run_chunk(lo)

    if failures:
        failures.sort(key=lambda t: t[0])
        raise IntegrationError(failures)
    return out


def integrate_element(elem: CurvedElement, f: Callable, rule: QuadratureRule,
                      mode: str = MODE_EXACT) -> float:
    """Integral of f over a single curved element."""
    nodes = elem.projected_nodes[None]
    value, degenerate = _chart_integrals(_basis_tables(elem.basis, rule.points),
                                         rule.weights, nodes, f,
                                         _nodal_values(mode, f, nodes))
    if degenerate[0]:
        raise DegenerateJacobian("metric determinant <= 0 at a quadrature point")
    if not np.isfinite(value[0]):
        raise DegeneratePoint("element integral is not finite")
    return float(value[0])


def integrate_surface(mesh: FlatMesh, surface: ImplicitSurface, f: Callable,
                      k: int, rule: QuadratureRule, mode: str = MODE_INTERP,
                      threads: int = 1,
                      batch: ElementBatch | None = None) -> IntegralResult:
    """Integral of f over the degree-k curved triangulation of the mesh."""
    if batch is None:
        batch = build_surface_elements(mesh, surface, k)
    elif batch.mesh is not mesh or batch.degree != k:
        raise ValueError("batch must hold the degree-k elements of this mesh")
    values = _element_values(batch, rule, mode, f, surface, threads=threads)
    return IntegralResult(value=math.fsum(values.tolist()),
                          n_elements=batch.n_elements, mode=mode, k=k)


def constant_one(pts: np.ndarray) -> np.ndarray:
    """The integrand f = 1 (vectorized)."""
    pts = np.asarray(pts)
    return np.ones(pts.shape[:-1])
