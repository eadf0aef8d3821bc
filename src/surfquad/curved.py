"""Curved elements: reference nodes mapped through the flat chart and projected.

Every reference node of a flat triangle (vertices included) is pushed through
the affine chart and projected onto the surface; interpolating the projected
nodes gives the element's polynomial chart.  Elements are built a mesh at a
time, a single element as the face of a one-face mesh: the nodes are
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
from .refmesh import FlatMesh, edge_table, mesh_size
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
    """Map (n, 2) reference (s, t) points onto the flat triangle q1,q2,q3:
    (n, 3) points for one (3, 3) triangle, (C, n, 3) for (C, 3, 3)."""
    q1, q2, q3 = (flat_tri[..., c, None, :] for c in range(3))
    s = ref_pts[:, 0][:, None]
    t = ref_pts[:, 1][:, None]
    return q1 + (q3 - q1) * s + (q2 - q1) * t


# nodes per block when the flat nodes and node table of a mesh are filled
_FILL_BLOCK = 8192

_CENTROID = np.array([[1.0 / 3.0, 1.0 / 3.0]])


def _basis_tables(basis: LagrangeBasis, ref_pts) -> tuple:
    """Basis values L (q, N) at (q, 2) reference points and the stacked
    derivative table D = [d/ds; d/dt]^T, (N, 2q) and contiguous."""
    ds, dt = basis.eval_grad(ref_pts)
    return basis.eval(ref_pts), np.ascontiguousarray(np.concatenate([ds, dt]).T)


def _chart_points(tables: tuple, nodes: np.ndarray) -> np.ndarray:
    """Chart points (C, q, 3) of (C, N, 3) element nodes."""
    return tables[0] @ nodes


def _chart_metric(tables: tuple, nodes: np.ndarray):
    """d/ds and d/dt Jacobian columns, each (C, 3, q), and the metric
    determinant det(J^T J) (C, q) of (C, N, 3) element nodes."""
    # One (3, N) @ (N, 2q) BLAS product per element: an element's bits do not
    # depend on its chunk or its place in it.
    js, jt = np.split(nodes.transpose(0, 2, 1) @ tables[1], 2, axis=-1)
    ee = np.einsum("cdq,cdq->cq", js, js)
    gg = np.einsum("cdq,cdq->cq", jt, jt)
    ff = np.einsum("cdq,cdq->cq", js, jt)
    return js, jt, ee * gg - ff * ff


def _folded_charts(surface: ImplicitSurface, centroid_tables: tuple,
                  nodes: np.ndarray, flat_tris: np.ndarray) -> np.ndarray:
    """(C,) mask of charts that fold at the centroid: the curved chart flips
    against the normal relative to the (C, 3, 3) flat triangles."""
    js, jt, det = _chart_metric(centroid_tables, nodes)
    normals = np.asarray(
        surface.grad_phi(_chart_points(centroid_tables, nodes)[:, 0]), dtype=float)
    flat_cross = np.cross(flat_tris[:, 2] - flat_tris[:, 0],
                          flat_tris[:, 1] - flat_tris[:, 0])
    orient = (np.einsum("cd,cd->c", np.cross(js[..., 0], jt[..., 0]), normals)
              * np.einsum("cd,cd->c", flat_cross, normals))
    return (orient <= 0.0) | (det[:, 0] <= 0.0)


def build_element(surface: ImplicitSurface, flat_tri, degree: int,
                  basis: Optional[LagrangeBasis] = None) -> CurvedElement:
    """The curved element of one (3, 3) flat triangle: the only face of a
    one-face mesh.  ``basis``, if given, must be ``lagrange_basis(degree)``."""
    flat_tri = np.asarray(flat_tri, dtype=float)
    if flat_tri.shape != (3, 3):
        raise ValueError(f"expected one (3, 3) flat triangle, got {flat_tri.shape}")
    if basis is not None and basis is not lagrange_basis(degree):
        raise ValueError(f"basis must be lagrange_basis({degree})")
    batch = build_surface_elements(FlatMesh(flat_tri, [[0, 1, 2]]), surface, degree)
    if _folded_charts(surface, _basis_tables(batch.basis, _CENTROID),
                      batch.element_nodes(), flat_tri[None])[0]:
        raise DegenerateJacobian(
            "curved chart is not orientation-preserving; mesh too coarse")
    return batch.element(0)


def chart_eval(elem: CurvedElement, ref_pt) -> MetricSample:
    """Chart point, Jacobian and metric factor at one (2,) reference point."""
    ref_pt = np.asarray(ref_pt, dtype=float)
    if ref_pt.shape != (2,):
        raise ValueError(f"expected one (2,) reference point, got {ref_pt.shape}")
    tables = _basis_tables(elem.basis, ref_pt[None])
    nodes = elem.projected_nodes[None]
    js, jt, det = _chart_metric(tables, nodes)
    det = float(det[0, 0])
    if det <= 0.0:
        raise DegenerateJacobian(f"metric determinant {det:.3e} <= 0")
    return MetricSample(point=_chart_points(tables, nodes)[0, 0],
                        jacobian=np.column_stack([js[0, :, 0], jt[0, :, 0]]),
                        g=float(np.sqrt(det)))


def element_diameter(elem: CurvedElement) -> float:
    """Longest side of the parametrizing flat triangle."""
    return mesh_size(FlatMesh(elem.flat_vertices, [[0, 1, 2]]))


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
    vertex_id = vertex_id.reshape(faces.shape)
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
    s, t = side[along], step[along]
    n_inner = int(inner.sum())

    # The node table and the flat nodes are filled a bounded block of edges
    # or faces at a time, so no temporary grows with the mesh; every node is
    # computed elementwise, so its bits do not depend on its block.
    node_index = np.empty((len(faces), basis.count), dtype=np.int64)
    flat_nodes = np.empty((face_base + len(faces) * n_inner, 3))
    flat_nodes[:edge_base] = verts[used]
    steps = np.arange(1, k) / k
    for lo, hi in _blocks(len(edges), k - 1):
        va, vb = verts[edges[lo:hi, 0]][:, None], verts[edges[lo:hi, 1]][:, None]
        flat_nodes[edge_base + lo * (k - 1):edge_base + hi * (k - 1)] = (
            va + (vb - va) * steps[:, None]).reshape(-1, 3)
    for lo, hi in _blocks(len(faces), basis.count):
        f = faces[lo:hi]
        forward = f[:, s] < f[:, (s + 1) % 3]
        node_index[lo:hi, corner] = vertex_id[lo:hi][:, side[corner]]
        node_index[lo:hi, along] = (edge_base + side_edge[lo:hi, s] * (k - 1)
                                    + np.where(forward, t, k - t) - 1)
        node_index[lo:hi, inner] = (face_base + np.arange(lo, hi)[:, None] * n_inner
                                    + np.arange(n_inner))
        flat_nodes[face_base + lo * n_inner:face_base + hi * n_inner] = (
            affine_chart_points(verts[f], basis.nodes[inner]).reshape(-1, 3))
    del edges, side_edge, used, vertex_id     # not needed while projecting
    try:
        projected, _, _, _ = project_many(surface, flat_nodes)
    except (NoConvergence, OutsideTube) as exc:
        raise IntegrationError(_locate_failures(node_index, exc)) from exc
    return ElementBatch(degree=degree, basis=basis, mesh=mesh,
                        node_index=node_index, unique_nodes=projected)


def _blocks(n_rows: int, nodes_per_row: int):
    """(lo, hi) bounds of successive row blocks of about ``_FILL_BLOCK``
    nodes, for ``n_rows`` rows of ``nodes_per_row`` nodes each."""
    size = max(1, _FILL_BLOCK // max(1, nodes_per_row))
    for lo in range(0, n_rows, size):
        yield lo, min(lo + size, n_rows)


def _locate_failures(node_index: np.ndarray, exc):
    """Attribute failing unique-node indices to (face, local node) pairs."""
    failures = []
    for n, uid in enumerate(exc.indices[:50]):
        faces, locals_ = np.nonzero(node_index == uid)
        if len(faces):
            node = int(locals_[0])
            if isinstance(exc, NoConvergence):
                sub = NoConvergence(exc.iterations, exc.residuals[n],
                                    f"node {node} did not converge "
                                    f"(residual {exc.residuals[n]:.3e})")
            else:
                sub = OutsideTube(f"node {node}: {exc}")
            failures.append((int(faces[0]), sub))
    return failures or [(-1, exc)]
