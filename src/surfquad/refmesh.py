"""Flat conforming triangulations: base-mesh generators, bisection, census, OFF I/O.

Base meshes have every vertex on the target surface.  Bisection refines with
exact flat edge midpoints and does NOT re-project the new vertices: the fine
vertices parametrize the macro triangles and keep the point-symmetric child
pairs that ``symmetry_census`` counts.  ``project_vertices`` re-projects every
vertex instead; that removes the pairs (census 0) but not the even-degree
gain, so the gain does not rest on exact pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonTriangleFace, ParseError, TopologyMismatch
from .surfaces import ImplicitSurface, project_many


@dataclass(frozen=True)
class FlatMesh:
    """Indexed triangle mesh; faces are counterclockwise seen from outside."""

    vertices: np.ndarray          # (V, 3) float
    faces: np.ndarray             # (F, 3) int
    level: int = 0                # refinement generation
    parent_face: Optional[np.ndarray] = None   # (F,) int into previous level

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        f = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("vertices must be a (V, 3) coordinate array")
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValueError("faces must be an (F, 3) index array")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise ValueError(f"face vertex index out of range [0, {len(v)})")
        v.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)


@dataclass(frozen=True)
class MeshStats:
    """Size and symmetric-pair census of a mesh."""

    h: float
    n_faces: int
    n_symmetric_pairs: int
    n_unpaired: int


def mesh_size(mesh: FlatMesh) -> float:
    """Max face diameter (longest edge over all faces)."""
    tri = mesh.vertices[mesh.faces]
    d01 = np.linalg.norm(tri[:, 0] - tri[:, 1], axis=1)
    d12 = np.linalg.norm(tri[:, 1] - tri[:, 2], axis=1)
    d20 = np.linalg.norm(tri[:, 2] - tri[:, 0], axis=1)
    return float(np.max(np.stack([d01, d12, d20])))


def edge_table(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undirected edges of a face array and the edge id of every face side.

    Returns ``(edges, side_edge)``: ``edges`` is (E, 2), smaller vertex
    first, numbered in order of first appearance over the face sides (0,1),
    (1,2), (2,0), face by face; ``side_edge`` is (F, 3), the edge id of each
    of those sides.  Bisection, the topology checks and the curved-node
    table all key edges through this one function.
    """
    faces = np.asarray(faces, dtype=np.int64)
    pairs = np.sort(np.stack([faces, np.roll(faces, -1, axis=1)], axis=-1)
                    .reshape(-1, 2), axis=1)
    key = pairs[:, 0] * (int(pairs.max(initial=0)) + 1) + pairs[:, 1]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return pairs[first[order]], rank[inverse].reshape(-1, 3)


def euler_characteristic(mesh: FlatMesh) -> int:
    return mesh.n_vertices - len(edge_table(mesh.faces)[0]) + mesh.n_faces


def is_conforming_closed(mesh: FlatMesh) -> bool:
    """Every undirected edge in exactly two faces, once in each direction.

    A face that repeats a vertex has a side with no direction and fails.
    """
    edges, side_edge = edge_table(mesh.faces)
    start, end = mesh.faces, np.roll(mesh.faces, -1, axis=1)
    forward = np.bincount(side_edge[start < end], minlength=len(edges))
    backward = np.bincount(side_edge[start > end], minlength=len(edges))
    return bool(np.all(forward == 1) and np.all(backward == 1))


# ---------------------------------------------------------------------------
# base-mesh generators
# ---------------------------------------------------------------------------

_OCTA_CORNERS = np.array([
    [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
    [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
])


def _octa_faces():
    """The 8 octant faces of the octahedron, counterclockwise from outside."""
    faces = []
    for sx in (0, 1):
        for sy in (2, 3):
            for sz in (4, 5):
                parity = (sx + (sy - 2) + (sz - 4)) % 2
                if parity == 0:
                    faces.append((sx, sy, sz))
                else:
                    faces.append((sx, sz, sy))
    return faces


def _subdivided_octa(resolution: int):
    """Octahedron with each face split into resolution^2 lattice triangles.

    Vertices are deduplicated through exact integer barycentric keys, so
    shared vertices are computed once and bit-identical across faces.
    """
    res = resolution
    key_to_index = {}
    verts = []

    def vertex_index(weights):
        # weights: tuple of (corner id, integer numerator) with nonzero weight
        key = tuple(sorted(weights))
        idx = key_to_index.get(key)
        if idx is None:
            p = np.zeros(3)
            for cid, w in key:
                p += (w / res) * _OCTA_CORNERS[cid]
            idx = len(verts)
            verts.append(p)
            key_to_index[key] = idx
        return idx

    faces = []
    for c0, c1, c2 in _octa_faces():
        grid = {}
        for i in range(res + 1):
            for j in range(res + 1 - i):
                w = [(c0, res - i - j), (c1, i), (c2, j)]
                grid[(i, j)] = vertex_index(tuple((c, n) for c, n in w if n > 0))
        for i in range(res):
            for j in range(res - i):
                faces.append((grid[(i, j)], grid[(i + 1, j)], grid[(i, j + 1)]))
                if i + j < res - 1:
                    faces.append((grid[(i + 1, j)], grid[(i + 1, j + 1)],
                                  grid[(i, j + 1)]))
    return np.array(verts), np.array(faces, dtype=np.int64)


def generate_base(surface: ImplicitSurface, kind: str, resolution: int) -> FlatMesh:
    """Deterministic base triangulation with all vertices on the surface.

    kinds: ``octa_sphere`` (subdivided octahedron, radially projected),
    ``struct_torus`` ((4*res)^2 angular grid with checkerboard diagonals),
    ``scaled_ellipsoid`` (octa_sphere stretched onto the ellipsoid axes).
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")

    if kind == "octa_sphere":
        if surface.name != "sphere":
            raise TopologyMismatch(f"octa_sphere requires a sphere, got {surface.name}")
        verts, faces = _subdivided_octa(resolution)
        R = surface.params["R"]
        verts = verts * (R / np.linalg.norm(verts, axis=1))[:, None]
        return FlatMesh(verts, faces, level=0)

    if kind == "scaled_ellipsoid":
        if surface.name != "ellipsoid":
            raise TopologyMismatch(
                f"scaled_ellipsoid requires an ellipsoid, got {surface.name}")
        verts, faces = _subdivided_octa(resolution)
        verts = verts / np.linalg.norm(verts, axis=1)[:, None]
        axes = np.array([surface.params["a"], surface.params["b"], surface.params["c"]])
        return FlatMesh(verts * axes, faces, level=0)

    if kind == "struct_torus":
        if surface.name != "torus":
            raise TopologyMismatch(f"struct_torus requires a torus, got {surface.name}")
        R, r = surface.params["R"], surface.params["r"]
        n = 4 * resolution
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        phi_a = 2.0 * math.pi * ii.ravel() / n      # major angle
        theta = 2.0 * math.pi * jj.ravel() / n      # minor angle
        ring = R + r * np.cos(theta)
        verts = np.column_stack([ring * np.cos(phi_a), ring * np.sin(phi_a),
                                 r * np.sin(theta)])

        def vid(i, j):
            return (i % n) * n + (j % n)

        faces = []
        for i in range(n):
            for j in range(n):
                v00, v10 = vid(i, j), vid(i + 1, j)
                v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
                if (i + j) % 2 == 0:
                    faces.append((v00, v10, v11))
                    faces.append((v00, v11, v01))
                else:
                    faces.append((v00, v10, v01))
                    faces.append((v10, v11, v01))
        return FlatMesh(verts, np.array(faces, dtype=np.int64), level=0)

    raise ValueError(f"unknown mesh kind {kind!r}")


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def bisect(mesh: FlatMesh) -> FlatMesh:
    """Split every face into 4 children through exact flat edge midpoints.

    Shared-edge midpoints are deduplicated, so the result is conforming and
    midpoint coordinates are bitwise shared between neighbors.  New vertices
    are NOT projected back to the surface.
    """
    edges, side_edge = edge_table(mesh.faces)
    v = mesh.vertices
    mids = 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])
    a, b, c = mesh.faces.T
    mab, mbc, mca = (mesh.n_vertices + side_edge).T
    children = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca],
                        axis=1).reshape(-1, 3)
    return FlatMesh(np.concatenate([v, mids]), children, level=mesh.level + 1,
                    parent_face=np.repeat(np.arange(mesh.n_faces), 4))


def project_vertices(mesh: FlatMesh, surface: ImplicitSurface) -> FlatMesh:
    """Re-project every vertex onto the surface (breaks pair symmetry)."""
    proj, _, _, _ = project_many(surface, mesh.vertices)
    return FlatMesh(proj, mesh.faces, level=mesh.level, parent_face=mesh.parent_face)


# ---------------------------------------------------------------------------
# symmetric-pair census
# ---------------------------------------------------------------------------

def symmetry_census(mesh: FlatMesh) -> MeshStats:
    """Greedily pair faces that are point reflections of each other through a
    shared vertex; count pairs and leftovers.

    Faces ``fi`` and ``fj`` that each hold vertex ``v`` once are reflected
    through ``v`` when their other two vertices, taken relative to ``v``, sum
    to zero pairwise (straight or crossed) within ``1e-12·h``, h being
    ``mesh_size``.  Pairing rule: faces are visited in index order, then their
    corners in face order, then the faces ``fj > fi`` of that corner's fan in
    index order; the first reflected partner not yet paired wins.
    """
    h = mesh_size(mesh) if mesh.n_faces else 0.0
    tol = 1e-12 * h
    verts, own = mesh.vertices, mesh.faces.ravel()
    nxt = np.roll(mesh.faces, -1, axis=1).ravel()
    prv = np.roll(mesh.faces, -2, axis=1).ravel()
    # Corners 3*fi + c, sorted by vertex and then face; a face that repeats
    # its vertex v has no corner at v.
    corner = np.flatnonzero((nxt != own) & (prv != own))
    corner = corner[np.argsort(own[corner], kind="stable")]
    vertex = own[corner]
    a = verts[nxt[corner]] - verts[vertex]
    b = verts[prv[corner]] - verts[vertex]

    def cancel(x, y):
        return np.linalg.norm(x + y, axis=1) <= tol

    # Candidates (corner of fi, fj) from the corner pairs (k, k + d) of each
    # fan, tested for d = 1, 2, ... one offset at a time.
    pair_corner = [np.empty(0, dtype=np.int64)]
    pair_face = [np.empty(0, dtype=np.int64)]
    d = 1
    while (k := np.flatnonzero(vertex[:-d] == vertex[d:])).size:
        m = k + d
        hit = ((cancel(a[k], a[m]) & cancel(b[k], b[m]))
               | (cancel(a[k], b[m]) & cancel(b[k], a[m])))
        pair_corner.append(corner[k[hit]])
        pair_face.append(corner[m[hit]] // 3)
        d += 1
    pair_corner, pair_face = np.concatenate(pair_corner), np.concatenate(pair_face)
    order = np.lexsort((pair_face, pair_corner))     # (fi, corner, fj) order

    paired = [False] * mesh.n_faces
    n_pairs = 0
    for fi, fj in zip((pair_corner[order] // 3).tolist(), pair_face[order].tolist()):
        if not (paired[fi] or paired[fj]):
            paired[fi] = paired[fj] = True
            n_pairs += 1
    return MeshStats(h=h, n_faces=mesh.n_faces, n_symmetric_pairs=n_pairs,
                     n_unpaired=mesh.n_faces - 2 * n_pairs)


# ---------------------------------------------------------------------------
# OFF file I/O
# ---------------------------------------------------------------------------

# rows per written block: a text export holds one block of lines, never the
# whole file
_WRITE_BLOCK = 4096


def row_blocks(table: np.ndarray):
    """Yield (first row, block) for successive row blocks of ``table``,
    ``_WRITE_BLOCK`` rows at a time."""
    for lo in range(0, len(table), _WRITE_BLOCK):
        yield lo, table[lo:lo + _WRITE_BLOCK]


def write_off(mesh: FlatMesh, path) -> None:
    """ASCII OFF with shortest round-trip float formatting."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"OFF\n{mesh.n_vertices} {mesh.n_faces} 0\n")
        for _, block in row_blocks(mesh.vertices):
            fh.write("".join([f"{x!r} {y!r} {z!r}\n" for x, y, z in block.tolist()]))
        for _, block in row_blocks(mesh.faces):
            fh.write("".join([f"3 {a} {b} {c}\n" for a, b, c in block.tolist()]))


def read_off(path) -> FlatMesh:
    """Parse an ASCII OFF triangle mesh; raises ParseError/NonTriangleFace."""
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().splitlines()

    if not raw or raw[0].strip() != "OFF":
        raise ParseError(1, "expected 'OFF' header")
    if len(raw) < 2:
        raise ParseError(2, "missing counts line")
    counts = raw[1].split()
    if len(counts) != 3:
        raise ParseError(2, f"expected 'V F 0' counts line, got {raw[1]!r}")
    try:
        nv, nf, _ = (int(c) for c in counts)
    except ValueError:
        raise ParseError(2, f"non-integer counts in {raw[1]!r}") from None
    if nv < 0 or nf < 0:
        raise ParseError(2, f"negative counts in {raw[1]!r}")

    if len(raw) < 2 + nv + nf:
        raise ParseError(len(raw) + 1, "truncated file")

    verts = np.empty((nv, 3))
    for i in range(nv):
        line_no = 3 + i
        parts = raw[2 + i].split()
        if len(parts) != 3:
            raise ParseError(line_no, f"expected 3 coordinates, got {len(parts)}")
        try:
            verts[i] = [float(p) for p in parts]
        except ValueError:
            raise ParseError(line_no, f"bad float in {raw[2 + i]!r}") from None

    faces = np.empty((nf, 3), dtype=np.int64)
    for i in range(nf):
        line_no = 3 + nv + i
        parts = raw[2 + nv + i].split()
        if not parts:
            raise ParseError(line_no, "empty face line")
        try:
            sizes = [int(p) for p in parts]
        except ValueError:
            raise ParseError(line_no, f"bad integer in {raw[2 + nv + i]!r}") from None
        if sizes[0] != 3:
            raise NonTriangleFace(f"line {line_no}: face with {sizes[0]} vertices")
        if len(sizes) != 4:
            raise ParseError(line_no, f"expected '3 i j k', got {raw[2 + nv + i]!r}")
        if any(s < 0 or s >= nv for s in sizes[1:]):
            raise ParseError(line_no, "vertex index out of range")
        faces[i] = sizes[1:]

    return FlatMesh(verts, faces, level=0)
