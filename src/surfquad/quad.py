"""Surface integral assembly over curved triangulations; the rules it takes
are ``quadrules``'.

Two integrand modes are supported: ``exact_f`` evaluates the integrand at the
curved chart points, ``interp_f`` samples it only at the projected nodes (on
the surface) and integrates its degree-k interpolant.  The total is
``math.fsum`` of the element values: the one correctly rounded sum, whatever
the element order.  An element's value does not depend on its chunk, face
block or thread, so totals are bit-reproducible and independent of face
numbering and thread count.

``integrate_surface`` streams a mesh: one pool of ``threads`` workers builds,
projects and integrates one face range (``curved.face_blocks``) per task, so
memory beyond the mesh is that of the ranges in flight, whatever the level.
A given batch is the one range, integrated in the calling thread.  A range is
integrated in chunks of at most ``_CHUNK`` elements, its nodal values taken
at most ``blocks.BLOCK`` nodes at a time.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import blocks
from .curved import (_CENTROID, _FOLDED, _SINGULAR, ElementBatch,
                     _chart_metric, _chart_points, _folded_charts,
                     build_surface_elements, face_blocks, merged_failures)
from .errors import DegenerateJacobian, DegeneratePoint, IntegrationError
from .interp import lagrange_basis
# monomial_integral stays importable from here for the acceptance checks
from .quadrules import QuadratureRule, monomial_integral
from .refmesh import FlatMesh
from .surfaces import ImplicitSurface

MODE_EXACT = "exact_f"
MODE_INTERP = "interp_f"

# at most this many elements per vectorized chunk of the surface assembly
_CHUNK = 512


@dataclass(frozen=True)
class IntegralResult:
    value: float
    n_elements: int
    mode: str
    k: int


def _check_mode(mode: str) -> None:
    if mode not in (MODE_EXACT, MODE_INTERP):
        raise ValueError(f"unknown integration mode {mode!r}")


def _nodal_values(mode: str, f: Callable, nodes: np.ndarray):
    """f at the (n, 3) projected nodes in interp mode, at most
    ``blocks.BLOCK`` nodes at a time into one (n,) array; None in exact
    mode."""
    _check_mode(mode)
    if mode == MODE_EXACT:
        return None
    values = np.empty(len(nodes))
    for block in blocks.blocks(len(nodes)):
        values[block] = f(nodes[block])
    return values


def _chart_integrals(tables: tuple, weights: np.ndarray, nodes: np.ndarray,
                     f: Callable, f_nodal: np.ndarray | None):
    """Integrals of f over (C, N, 3) element nodes (from ``f_nodal`` if given)
    and the (C,) mask of elements with metric determinant <= 0."""
    _, _, det = _chart_metric(tables, nodes)
    degenerate = np.any(det <= 0.0, axis=1)
    metric = np.sqrt(np.maximum(det, 0.0))
    if f_nodal is None:
        pts = _chart_points(tables, nodes)
        fvals = np.asarray(f(pts), dtype=float)
        if fvals.shape != pts.shape[:-1]:
            fvals = np.broadcast_to(fvals, pts.shape[:-1])
    # a non-finite f gives non-finite element values; callers name their faces
    with np.errstate(invalid="ignore"):
        if f_nodal is not None:
            # one (1, N) @ (N, q) product per element
            fvals = (f_nodal[:, None] @ tables[0].T)[:, 0]
        # one product per element, as in _chart_metric: one (C, q) @ (q,)
        # product sums the chunk's last C % 4 rows in another order
        return ((fvals * metric)[:, None] @ weights)[:, 0], degenerate


def _element_values(batch: ElementBatch, rule: QuadratureRule, mode: str,
                    f: Callable, surface: ImplicitSurface):
    """Per-element integral values, vectorized over chunks of elements, and
    the (face, error) failures of the batch's elements in face order."""
    f_nodal_unique = _nodal_values(mode, f, batch.unique_nodes)
    tables = batch.basis.tables(rule.points)
    centroid_tables = batch.basis.tables(_CENTROID)

    out = np.empty(batch.n_elements)
    failures: list[tuple[int, Exception]] = []
    for chunk in blocks.blocks(batch.n_elements, _CHUNK):
        nodes = batch.element_nodes(chunk)                   # (C, N, 3)
        f_nodal = (None if f_nodal_unique is None
                   else f_nodal_unique[batch.node_index[chunk]])
        out[chunk], degenerate = _chart_integrals(tables, rule.weights, nodes,
                                                  f, f_nodal)
        folded = _folded_charts(surface, centroid_tables, nodes)
        for mask, error, why in (
                (degenerate, DegenerateJacobian, _SINGULAR),
                (folded, DegenerateJacobian, _FOLDED),
                (~np.isfinite(out[chunk]), DegeneratePoint,
                 "element integral is not finite")):
            failures.extend((chunk.start + int(ci), error(why))
                            for ci in np.flatnonzero(mask))
    failures.sort(key=lambda t: t[0])
    return out, failures


def _streamed_values(mesh: FlatMesh, surface: ImplicitSurface, f: Callable,
                     k: int, rule: QuadratureRule, mode: str, threads: int = 1,
                     batch: ElementBatch | None = None) -> np.ndarray:
    """Per-element integral values of the mesh's degree-k elements, each face
    range built, projected and integrated by one task, on a pool of
    ``threads`` workers if more than one range, so that only the ranges in
    flight hold nodes.  A node shared by two ranges is projected in each,
    with the same bits, so the values are those of one whole batch.  A given
    ``batch`` (the mesh's degree-k elements) is the one range, used in place
    of its build."""
    lagrange_basis(k)     # cached once, before the tasks share it
    ranges = (face_blocks(mesh.n_faces) if batch is None
              else [slice(0, mesh.n_faces)])
    out = np.empty(mesh.n_faces)

    def run_block(faces: slice):
        try:
            elements = (build_surface_elements(mesh, surface, k, faces)
                        if batch is None else batch)
        except IntegrationError as exc:
            return exc, []
        out[faces], failures = _element_values(elements, rule, mode, f, surface)
        return None, [(faces.start + face, exc) for face, exc in failures]

    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_block, ranges))
    else:
        results = [run_block(faces) for faces in ranges]
    unprojected = [exc for exc, _ in results if exc is not None]
    if unprojected:
        raise merged_failures(unprojected) from unprojected[0]
    failures = [failure for _, block in results for failure in block]
    if failures:
        raise IntegrationError(failures)
    return out


def integrate_surface(mesh: FlatMesh, surface: ImplicitSurface, f: Callable,
                      k: int, rule: QuadratureRule, mode: str = MODE_INTERP,
                      threads: int = 1,
                      batch: ElementBatch | None = None) -> IntegralResult:
    """Integral of f over the degree-k curved triangulation of the mesh.

    The elements are streamed a face range at a time over ``threads``
    workers; a given ``batch`` (the mesh's degree-k elements) is integrated
    as the one range, in the calling thread.
    """
    _check_mode(mode)
    if batch is not None and (batch.mesh is not mesh or batch.degree != k):
        raise ValueError("batch must hold the degree-k elements of this mesh")
    values = _streamed_values(mesh, surface, f, k, rule, mode, threads, batch)
    return IntegralResult(value=_fsum(values), n_elements=mesh.n_faces,
                          mode=mode, k=k)


def _fsum(values: np.ndarray) -> float:
    """``math.fsum`` of an array, converted to floats a block at a time."""
    return math.fsum(itertools.chain.from_iterable(
        values[block].tolist() for block in blocks.blocks(len(values))))


def constant_one(pts: np.ndarray) -> np.ndarray:
    """The integrand f = 1 (vectorized)."""
    pts = np.asarray(pts)
    return np.ones(pts.shape[:-1])
