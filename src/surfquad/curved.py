"""Curved elements: reference nodes mapped through the flat chart and projected.

Every reference node of a flat triangle (vertices included) is pushed through
the affine chart and projected onto the surface; interpolating the projected
nodes gives the element's polynomial chart.  For whole meshes the nodes are
deduplicated through the vertex ids and ``refmesh.edge_table`` before
projection, so shared edge nodes of neighboring elements are bitwise identical
(watertight).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateJacobian, IntegrationError, NoConvergence, OutsideTube
from .interp import LagrangeBasis, lagrange_basis
from .refmesh import FlatMesh, edge_table
from .surfaces import ImplicitSurface, project_many


@dataclass(frozen=True)
class CurvedElement:
    """Degree-k curved triangle parametrized over the reference triangle."""

    degree: int
    flat_vertices: np.ndarray     # (3, 3) parametrizing flat triangle
    projected_nodes: np.ndarray   # (N, 3) nodes on the surface
    basis: LagrangeBasis


@dataclass(frozen=True)
class MetricSample:
    """Chart point with Jacobian and area density at one reference point."""

    point: np.ndarray      # (3,)
    jacobian: np.ndarray   # (3, 2), columns d/ds and d/dt
    g: float               # sqrt(det(J^T J))


def affine_chart_points(flat_tri: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
    """Map reference (s, t) points onto the flat triangle q1,q2,q3."""
    q1, q2, q3 = flat_tri
    s = ref_pts[:, 0][:, None]
    t = ref_pts[:, 1][:, None]
    return q1 + (q3 - q1) * s + (q2 - q1) * t


_CENTROID = np.array([[1.0 / 3.0, 1.0 / 3.0]])


def _basis_tables(basis: LagrangeBasis, ref_pts) -> tuple:
    """Basis values and their d/ds, d/dt at (q, 2) reference points, each (q, N)."""
    ds, dt = basis.eval_grad(ref_pts)
    return basis.eval(ref_pts), ds, dt


def _chart_metric(tables: tuple, nodes: np.ndarray):
    """Chart points and d/ds, d/dt Jacobian columns, each (C, q, 3), and the
    metric determinant det(J^T J) (C, q) of (C, N, 3) element nodes."""
    L, Ls, Lt = tables
    # One (q, N) @ (N, 3) BLAS product per element: an element's bits do not
    # depend on its chunk or its place in it.
    pts, js, jt = L @ nodes, Ls @ nodes, Lt @ nodes
    ee = np.einsum("cqd,cqd->cq", js, js)
    gg = np.einsum("cqd,cqd->cq", jt, jt)
    ff = np.einsum("cqd,cqd->cq", js, jt)
    return pts, js, jt, ee * gg - ff * ff


def _folded_charts(surface: ImplicitSurface, centroid_tables: tuple,
                  nodes: np.ndarray, flat_tris: np.ndarray) -> np.ndarray:
    """(C,) mask of charts that fold at the centroid: the curved chart flips
    against the normal relative to the (C, 3, 3) flat triangles."""
    pts, js, jt, det = _chart_metric(centroid_tables, nodes)
    normals = np.asarray(surface.grad_phi(pts[:, 0]), dtype=float)
    flat_cross = np.cross(flat_tris[:, 2] - flat_tris[:, 0],
                          flat_tris[:, 1] - flat_tris[:, 0])
    orient = (np.einsum("cd,cd->c", np.cross(js[:, 0], jt[:, 0]), normals)
              * np.einsum("cd,cd->c", flat_cross, normals))
    return (orient <= 0.0) | (det[:, 0] <= 0.0)


def build_element(surface: ImplicitSurface, flat_tri, degree: int,
                  basis: Optional[LagrangeBasis] = None) -> CurvedElement:
    """Project every reference node of one flat triangle onto the surface."""
    flat_tri = np.asarray(flat_tri, dtype=float)
    if basis is None:
        basis = lagrange_basis(degree)
    flat_nodes = affine_chart_points(flat_tri, basis.nodes)
    try:
        projected, _, _, _ = project_many(surface, flat_nodes)
    except NoConvergence as exc:
        raise NoConvergence(exc.iterations, exc.residual,
                            f"projection failed for element node(s) {exc.indices}: "
                            f"{exc}", indices=exc.indices) from exc
    if _folded_charts(surface, _basis_tables(basis, _CENTROID), projected[None],
                     flat_tri[None])[0]:
        raise DegenerateJacobian(
            "curved chart is not orientation-preserving; mesh too coarse")
    return CurvedElement(degree=degree, flat_vertices=flat_tri,
                         projected_nodes=projected, basis=basis)


def chart_eval(elem: CurvedElement, ref_pt) -> MetricSample:
    """Chart point, Jacobian and metric factor at one reference point."""
    pts, js, jt, det = _chart_metric(_basis_tables(elem.basis, ref_pt),
                                    elem.projected_nodes[None])
    det = float(det[0, 0])
    if det <= 0.0:
        raise DegenerateJacobian(f"metric determinant {det:.3e} <= 0")
    return MetricSample(point=pts[0, 0],
                        jacobian=np.column_stack([js[0, 0], jt[0, 0]]),
                        g=float(np.sqrt(det)))


def element_diameter(elem: CurvedElement) -> float:
    """Longest side of the parametrizing flat triangle."""
    q = elem.flat_vertices
    return float(max(np.linalg.norm(q[0] - q[1]), np.linalg.norm(q[1] - q[2]),
                     np.linalg.norm(q[2] - q[0])))


# ---------------------------------------------------------------------------
# mesh-level construction with watertight node sharing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementBatch:
    """All curved elements of a mesh, sharing one deduplicated node table."""

    degree: int
    basis: LagrangeBasis
    mesh: FlatMesh
    node_index: np.ndarray        # (F, N) rows of indices into unique_nodes
    unique_nodes: np.ndarray      # (U, 3) projected node coordinates

    @property
    def n_elements(self) -> int:
        return len(self.node_index)

    def element_nodes(self, faces=slice(None)) -> np.ndarray:
        """(F', N, 3) projected nodes gathered per element."""
        return self.unique_nodes[self.node_index[faces]]

    def element(self, face: int) -> CurvedElement:
        return CurvedElement(
            degree=self.degree,
            flat_vertices=self.mesh.vertices[self.mesh.faces[face]],
            projected_nodes=self.unique_nodes[self.node_index[face]],
            basis=self.basis)


def build_surface_elements(mesh: FlatMesh, surface: ImplicitSurface,
                           degree: int) -> ElementBatch:
    """Curved elements for every face, with shared-edge nodes deduplicated.

    Unique nodes are the referenced vertices, then k-1 nodes per edge of
    ``edge_table``, then each face's interior nodes.  Edge-node flat
    coordinates are computed from the canonical (smaller global vertex
    first) parametrization, so both adjacent faces name the identical
    floating-point point and receive the identical projection.
    """
    basis = lagrange_basis(degree)
    k = degree
    faces = mesh.faces
    verts = mesh.vertices
    edges, side_edge = edge_table(faces)
    used, vertex_id = np.unique(faces, return_inverse=True)
    edge_base = len(used)
    face_base = edge_base + len(edges) * (k - 1)

    # Each boundary lattice node lies `step` nodes along face side (0,1),
    # (1,2) or (2,0) from that side's first corner; step 0 is the corner.
    i, j = basis.node_set.lattice.T
    inner = (i > 0) & (j > 0) & (i + j < k)
    side = np.where((i == 0) & (j < k), 0, np.where(j == 0, 2, 1))
    step = np.choose(side, [j, i, k - i])
    corner = ~inner & (step == 0)
    along = ~inner & (step > 0)

    node_index = np.empty((len(faces), basis.count), dtype=np.int64)
    node_index[:, corner] = vertex_id.reshape(faces.shape)[:, side[corner]]
    s, t = side[along], step[along]
    forward = faces[:, s] < faces[:, (s + 1) % 3]
    node_index[:, along] = (edge_base + side_edge[:, s] * (k - 1)
                            + np.where(forward, t, k - t) - 1)
    n_inner = int(inner.sum())
    node_index[:, inner] = (face_base + np.arange(len(faces))[:, None] * n_inner
                            + np.arange(n_inner))

    va, vb = verts[edges[:, 0]][:, None], verts[edges[:, 1]][:, None]
    edge_flat = va + (vb - va) * (np.arange(1, k) / k)[:, None]
    q1, q2, q3 = (verts[faces[:, c]][:, None] for c in range(3))
    inner_flat = (q1 + (q3 - q1) * (i[inner] / k)[:, None]
                  + (q2 - q1) * (j[inner] / k)[:, None])
    flat_nodes = np.concatenate([verts[used], edge_flat.reshape(-1, 3),
                                 inner_flat.reshape(-1, 3)])
    try:
        projected, _, _, _ = project_many(surface, flat_nodes)
    except (NoConvergence, OutsideTube) as exc:
        raise IntegrationError(_locate_failures(node_index, exc)) from exc
    return ElementBatch(degree=degree, basis=basis, mesh=mesh,
                        node_index=node_index, unique_nodes=projected)


def _locate_failures(node_index: np.ndarray, exc):
    """Attribute failing unique-node indices to (face, local node) pairs."""
    failures = []
    for uid in exc.indices[:50]:
        faces, locals_ = np.nonzero(node_index == uid)
        if len(faces):
            node = int(locals_[0])
            if isinstance(exc, NoConvergence):
                sub = NoConvergence(exc.iterations, exc.residual,
                                    f"node {node} did not converge "
                                    f"(residual {exc.residual:.3e})")
            else:
                sub = OutsideTube(f"node {node}: {exc}")
            failures.append((int(faces[0]), sub))
    return failures or [(-1, exc)]
