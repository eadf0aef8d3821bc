"""Curved elements: reference nodes mapped through the flat chart and projected.

Every reference node of a flat triangle (vertices included) is pushed through
the affine chart and projected onto the surface; interpolating the projected
nodes gives the element's polynomial chart.  Elements are built for a
contiguous range of a mesh's faces (the whole mesh by default; a single
element is the face of a one-face mesh): the nodes are deduplicated through
the vertex ids and the edge table of the range's own faces before
projection, so shared edge nodes of neighboring elements are bitwise
identical (watertight), also when the two faces fall in different ranges.
``_node_ids`` numbers them from the node set's placement table, for a range
and for a failure's whole-mesh ids.  Integration and the node export stream
a fine mesh through ``face_blocks``: no mesh-wide node table exists, nor an
edge table unless a projection fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import blocks
from .errors import DegenerateJacobian, IntegrationError, NoConvergence, OutsideTube
from .interp import LagrangeBasis, lagrange_basis
from .refmesh import FlatMesh, edge_table
from .surfaces import ImplicitSurface, project_many


@dataclass(frozen=True)
class CurvedElement:
    """Degree-k curved triangle parametrized over the reference triangle."""

    projected_nodes: np.ndarray   # (N, 3) nodes on the surface
    basis: LagrangeBasis


def affine_chart_points(flat_tri: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
    """Map (n, 2) reference (s, t) points onto the flat triangle q1,q2,q3:
    (n, 3) points for one (3, 3) triangle, (C, n, 3) for (C, 3, 3)."""
    q1, q2, q3 = (flat_tri[..., c, None, :] for c in range(3))
    s = ref_pts[:, 0][:, None]
    t = ref_pts[:, 1][:, None]
    return q1 + (q3 - q1) * s + (q2 - q1) * t


# at most this many faces per block when a mesh's curved elements are built,
# projected and integrated or written one block at a time
_FACE_BLOCK = 2048

_CENTROID = np.array([[1.0 / 3.0, 1.0 / 3.0]])
_FOLDED = "chart folds against the outward normal: inverted flat face or mesh too coarse"
_SINGULAR = "metric determinant <= 0 at a quadrature point"


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
                   nodes: np.ndarray) -> np.ndarray:
    """(C,) mask of the charts of (C, N, 3) nodes that fold at the centroid:
    det <= 0, or (d/dt x d/ds) . (grad_phi summed over corners 0-2) <= 0."""
    js, jt, det = _chart_metric(centroid_tables, nodes)
    outward = np.asarray(surface.grad_phi(nodes[:, :3]), dtype=float).sum(axis=1)
    orient = np.einsum("cd,cd->c", np.cross(jt[..., 0], js[..., 0]), outward)
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
    nodes = batch.element_nodes()
    if _folded_charts(surface, batch.basis.tables(_CENTROID), nodes)[0]:
        raise DegenerateJacobian(_FOLDED)
    return CurvedElement(nodes[0], batch.basis)


# ---------------------------------------------------------------------------
# mesh-level construction with watertight node sharing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementBatch:
    """The curved elements of a mesh or of a range of its faces, sharing one
    deduplicated node table."""

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


def build_surface_elements(mesh: FlatMesh, surface: ImplicitSurface,
                           degree: int, faces: slice = slice(None)) -> ElementBatch:
    """Curved elements for a contiguous range of the mesh's faces (all of them
    by default), with shared-edge nodes deduplicated.

    The range's nodes are its vertices, then k-1 nodes per edge, then each
    face's interior nodes, each group in the range's order (vertex index, id
    in the ``edge_table`` of the range's faces, face): a range's nodes are
    those of the whole mesh's build, each once.  Edge-node flat coordinates
    are computed from the canonical (smaller global vertex first)
    parametrization and every node is projected elementwise, so the faces
    that share a node, in one range or in two, get the identical
    floating-point point and projection.  A partial range's batch holds its
    faces as a mesh over the same vertices: its node table and face numbers
    are local, while a projection failure names faces of the whole mesh and,
    in each sub-error's ``indices``, its whole-mesh id (from ``mesh.edges``).
    """
    basis = lagrange_basis(degree)
    k = degree
    first, stop, stride = faces.indices(mesh.n_faces)
    if stride != 1:
        raise ValueError(f"faces must be a contiguous range, got {faces}")
    stop = max(first, stop)
    block = (mesh if (first, stop) == (0, mesh.n_faces)
             else FlatMesh(mesh.vertices, mesh.faces[first:stop]))
    verts, block_faces = mesh.vertices, block.faces
    edges, edge_id = edge_table(block_faces)
    used, vertex_id = np.unique(block_faces, return_inverse=True)
    vertex_id = vertex_id.reshape(block_faces.shape)
    bases = (len(used), len(used) + len(edges) * (k - 1))
    side, step = basis.node_set.side, basis.node_set.step
    inner = side < 0
    n_inner = int(inner.sum())

    # The node table and the flat nodes are filled a block of edges or faces
    # of about ``blocks.BLOCK`` nodes at a time, so no temporary grows with
    # the range; every node is computed elementwise, so its bits do not depend
    # on its block or range.
    n_nodes = bases[1] + len(block_faces) * n_inner
    node_index = np.empty((len(block_faces), basis.count),
                          dtype=np.int32 if n_nodes < 2**31 else np.int64)
    flat_nodes = np.empty((n_nodes, 3))
    flat_nodes[:bases[0]] = verts[used]
    # the edge fractions: t of the node set's side-0 nodes, (0, 0) to (0, 1)
    steps = basis.nodes[(side == 0) & (step > 0), 1]
    for rows in blocks.blocks(len(edges), blocks.BLOCK // max(1, k - 1)):
        lo, hi = rows.start, rows.stop
        flat_nodes[bases[0] + lo * (k - 1):bases[0] + hi * (k - 1)] = (
            _edge_nodes(verts, edges[rows], steps))
    for rows in blocks.blocks(len(block_faces), blocks.BLOCK // basis.count):
        lo, hi = rows.start, rows.stop
        f = block_faces[rows]
        node_index[rows] = _node_ids(basis, f, vertex_id[rows], edge_id[rows],
                                     np.arange(lo, hi), bases)
        flat_nodes[bases[1] + lo * n_inner:bases[1] + hi * n_inner] = (
            affine_chart_points(verts[f], basis.nodes[inner]).reshape(-1, 3))
    del edges, edge_id, used, vertex_id     # not needed while projecting
    try:
        # projected in place: the flat nodes are not needed afterwards
        project_many(surface, flat_nodes, out=flat_nodes)
    except (NoConvergence, OutsideTube) as exc:
        vertices = np.unique(mesh.faces)   # the whole mesh's ranks
        mesh_ids = _node_ids(
            basis, block_faces, np.searchsorted(vertices, block_faces),
            mesh.edges[1][first:stop], np.arange(first, stop),
            (len(vertices), len(vertices) + len(mesh.edges[0]) * (k - 1)))
        raise IntegrationError(
            _locate_failures(node_index, exc, first, mesh_ids)) from exc
    return ElementBatch(degree=degree, basis=basis, mesh=block,
                        node_index=node_index, unique_nodes=flat_nodes)


def _node_ids(basis: LagrangeBasis, faces: np.ndarray, vertex_id: np.ndarray,
              edge_id: np.ndarray, face_id: np.ndarray, bases) -> np.ndarray:
    """The (F', N) node ids of (F', 3) faces, numbered from the ranks of
    their vertices and side edges, each (F', 3), and of the faces, (F',):
    a corner gets its vertex's rank, a side node ``bases[0] + edge rank *
    (k-1) + step - 1`` with the step counted from the edge's smaller vertex,
    and interior node i ``bases[1] + face rank * n_inner + i``."""
    k, side, step = basis.degree, basis.node_set.side, basis.node_set.step
    corner, along, inner = step == 0, step > 0, side < 0
    s, t = side[along], step[along]
    n_inner = int(inner.sum())
    ids = np.empty((len(faces), basis.count), dtype=np.int64)
    ids[:, corner] = vertex_id[:, side[corner]]
    forward = faces[:, s] < faces[:, (s + 1) % 3]
    ids[:, along] = (bases[0] + edge_id[:, s] * (k - 1)
                     + np.where(forward, t, k - t) - 1)
    ids[:, inner] = bases[1] + face_id[:, None] * n_inner + np.arange(n_inner)
    return ids


def _edge_nodes(verts: np.ndarray, ends: np.ndarray, steps: np.ndarray):
    """The flat nodes at fractions ``steps`` along each (E', 2) edge from its
    first (smaller) vertex, edge by edge: (E' * len(steps), 3)."""
    va, vb = verts[ends[:, 0]][:, None], verts[ends[:, 1]][:, None]
    return (va + (vb - va) * steps[:, None]).reshape(-1, 3)


def face_blocks(n_faces: int) -> list[slice]:
    """Successive ranges of at most ``_FACE_BLOCK`` faces that cover
    ``n_faces``."""
    return blocks.blocks(n_faces, _FACE_BLOCK)


def _locate_failures(node_index: np.ndarray, exc, first: int, mesh_ids):
    """Attribute every failing node to the first slot that uses it in
    row-major order (first face, lowest local node), in the order of
    ``exc.indices``; each sub-error carries as its ``indices`` the node's
    whole-mesh id, read at that slot of ``mesh_ids`` (shaped like
    ``node_index``), and faces count from ``first``."""
    uids = np.asarray(exc.indices, dtype=np.int64)
    faces, locals_ = np.nonzero(np.isin(node_index, uids))
    found, firsts = np.unique(node_index[faces, locals_], return_index=True)
    # every node fills at least one slot, so each uid is found
    slots = firsts[np.searchsorted(found, uids)]
    ids = mesh_ids[faces[slots], locals_[slots]].tolist()
    failures = []
    for n, (face, node) in enumerate(zip(faces[slots].tolist(),
                                         locals_[slots].tolist())):
        if isinstance(exc, NoConvergence):
            sub = NoConvergence(exc.iterations, exc.residuals[n],
                                f"node {node} did not converge "
                                f"(residual {exc.residuals[n]:.3e})",
                                indices=ids[n:n + 1],
                                residuals=exc.residuals[n:n + 1])
        else:
            sub = OutsideTube(f"node {node}: {exc}", indices=ids[n:n + 1])
        failures.append((first + face, sub))
    return failures or [(-1, exc)]


def merged_failures(errors) -> IntegrationError:
    """One error for the projection failures raised by the builds of
    successive face ranges, listed as one build of their union lists them:
    each failing node once, at its first slot, in node-id order; only the
    nodes outside the tube if there are any, since those stop a projection
    before its convergence is judged."""
    first = {}
    for err in errors:
        for face, sub in err.failures:
            first.setdefault(sub.indices[0] if sub.indices else -1, (face, sub))
    failures = [first[node] for node in sorted(first)]
    outside = [(face, sub) for face, sub in failures
               if isinstance(sub, OutsideTube)]
    return IntegrationError(outside or failures)
