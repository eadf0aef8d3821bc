"""Flat conforming triangulations: base-mesh generators, bisection, census, OFF I/O.

Base meshes have every vertex on the target surface.  ``KINDS`` is the one
table of mesh kinds, the surface each is made for and the parameters it
reads.  The octahedral kinds share one integer lattice, built with array
operations, and number its vertices by first appearance with
``_first_appearance``, the rule ``edge_table`` numbers edges by.  Both
mesh-level passes hold only what they return: the edge table its output plus
its keys and one stable argsort's working arrays, and ``mesh_size`` one block
of the mesh's kept edges.  Bisection refines with exact flat edge midpoints
and does NOT re-project the new vertices: the fine vertices parametrize the
macro triangles and keep the point-symmetric child pairs that
``symmetry_census`` counts.
``project_vertices`` re-projects every vertex instead; that removes the pairs
(census 0) but not the even-degree gain, so the gain does not rest on exact
pairs.

``write_off`` writes each coordinate as its ``repr``, formatted in numpy by
``text.floats``, at most ``blocks.BLOCK`` lines at a time; ``read_off``
converts each block with one ``np.loadtxt``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import blocks, text
from .errors import NonTriangleFace, ParseError, TopologyMismatch
from .surfaces import ImplicitSurface, project_many


@dataclass(frozen=True)
class FlatMesh:
    """Indexed triangle mesh; faces are counterclockwise seen from outside, and
    integration checks it: an inverted face fails with ``DegenerateJacobian``."""

    vertices: np.ndarray          # (V, 3) float
    faces: np.ndarray             # (F, 3) int

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

    @functools.cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """``edge_table(self.faces)``, computed once per mesh: bisection, the
        topology checks, ``mesh_size`` and the census share it, and a curved
        build reads it only to name a failing node by its whole-mesh id."""
        table = edge_table(self.faces)
        for array in table:
            array.setflags(write=False)
        return table


@dataclass(frozen=True)
class MeshStats:
    """Size and symmetric-pair census of a mesh."""

    h: float
    n_faces: int
    n_symmetric_pairs: int
    n_unpaired: int


def mesh_size(mesh: FlatMesh) -> float:
    """Max face diameter: the longest edge of the mesh's kept table, taken
    ``blocks.BLOCK`` edges at a time (0.0 for a mesh with no faces).  Every
    face side is an edge, so this is the longest face side."""
    edges, v = mesh.edges[0], mesh.vertices
    h = 0.0
    for block in blocks.blocks(len(edges)):
        a, b = edges[block].T
        h = max(h, float(np.max(np.linalg.norm(v[a] - v[b], axis=1))))
    return h


def edge_table(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undirected edges of a face array and the edge id of every face side.

    Returns ``(edges, side_edge)``: ``edges`` is (E, 2), smaller vertex
    first, numbered in order of first appearance over the face sides (0,1),
    (1,2), (2,0), face by face; ``side_edge`` is (F, 3), the edge id of each
    of those sides.  Bisection, the topology checks, ``mesh_size`` and every
    range of the curved-node build key edges through this one function.
    Each side's key is formed from the min and max of its two vertices, one
    column of sides at a time, so besides its output the table holds the
    (3F,) keys and the working arrays of ``_first_appearance``.
    """
    faces = np.asarray(faces, dtype=np.int64)
    base = int(faces.max(initial=0)) + 1
    keys = np.empty(faces.shape, dtype=np.int64)
    for c in range(3):
        a, b = faces[:, c], faces[:, (c + 1) % 3]
        np.minimum(a, b, out=keys[:, c])
        keys[:, c] *= base
        keys[:, c] += np.maximum(a, b)
    first, ids = _first_appearance(keys.ravel())
    return np.stack(np.divmod(keys.ravel()[first], base), axis=1), ids.reshape(-1, 3)


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct values of a 1-D key array by first appearance.

    Returns ``(first, ids)``: ``first`` holds the index of each distinct
    value's first occurrence, in increasing order, and ``ids`` the number of
    every key's value, so ``keys[first][ids] == keys``.  Edges and the
    octahedral lattice's vertices are numbered by this one rule.

    One stable argsort groups equal keys with their first occurrence leading;
    the groups, numbered in key order, are then ranked by that occurrence.
    Besides the two outputs it holds two (n,) int64 arrays (the sort order
    and the sorted keys, reused for the group numbers) and an (n,) mask.
    """
    order = np.argsort(keys, kind="stable")
    group = keys[order]
    start = np.empty(len(keys), dtype=bool)
    start[:1] = True
    np.not_equal(group[1:], group[:-1], out=start[1:])
    leading = order[start]           # each group's first index, in key order
    np.cumsum(start, out=group)
    group -= 1
    del start
    ids = np.empty_like(order)
    ids[order] = group
    del order, group
    by_first = np.argsort(leading)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    return leading[by_first], rank[ids]


def euler_characteristic(mesh: FlatMesh) -> int:
    return mesh.n_vertices - len(mesh.edges[0]) + mesh.n_faces


def is_conforming_closed(mesh: FlatMesh) -> bool:
    """Every undirected edge in exactly two faces, once in each direction.

    A face that repeats a vertex has a side with no direction and fails.
    """
    edges, side_edge = mesh.edges
    start, end = mesh.faces, np.roll(mesh.faces, -1, axis=1)
    forward = np.bincount(side_edge[start < end], minlength=len(edges))
    backward = np.bincount(side_edge[start > end], minlength=len(edges))
    return bool(np.all(forward == 1) and np.all(backward == 1))


# ---------------------------------------------------------------------------
# base-mesh generators
# ---------------------------------------------------------------------------

# each base-mesh kind: the surface it is made for and the parameters it reads
# from it, in the order it reads them; ``cli`` offers these kinds
KINDS = {"octa_sphere": ("sphere", ("R",)), "struct_torus": ("torus", ("R", "r")),
         "scaled_ellipsoid": ("ellipsoid", ("a", "b", "c"))}

_OCTA_CORNERS = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                          [0, 0, 1], [0, 0, -1]])
# the 8 octant faces, counterclockwise from outside
_OCTA_FACES = np.array([[0, 2, 4], [0, 5, 2], [0, 4, 3], [0, 3, 5],
                        [1, 4, 2], [1, 2, 5], [1, 3, 4], [1, 5, 3]])


def _subdivided_octa(res: int):
    """Octahedron with each face split into res^2 lattice triangles.

    Point (i, j), i + j <= res, of face (c0, c1, c2) has the integer
    coordinates ``(res-i-j)*c0 + i*c1 + j*c2``; vertices are numbered by
    first appearance over the faces in order, each face's points in
    lexicographic order, so a point shared by faces is one vertex
    ``coords / res``.  Cell (i, j) gives its up triangle (i,j), (i+1,j),
    (i,j+1), then its down triangle (i+1,j), (i+1,j+1), (i,j+1) when
    i + j < res - 1.
    """
    i, j = np.nonzero(np.add.outer(np.arange(res + 1), np.arange(res + 1)) <= res)
    coords = (np.stack([res - i - j, i, j], axis=1)
              @ _OCTA_CORNERS[_OCTA_FACES]).reshape(-1, 3)
    first, ids = _first_appearance((coords + res) @ (2 * res + 1) ** np.arange(3))
    point = np.zeros((res + 1, res + 1), dtype=np.int64)
    point[i, j] = np.arange(len(i))
    ci, cj = i[i + j < res], j[i + j < res]
    p00, p10, p01, p11 = (point[ci, cj], point[ci + 1, cj], point[ci, cj + 1],
                          point[ci + 1, cj + 1])
    cells = np.stack([p00, p10, p01, p10, p11, p01], axis=1).reshape(-1, 3)
    cells = cells[np.stack([ci + cj < res, ci + cj < res - 1], axis=1).ravel()]
    return coords[first] / res, ids.reshape(8, -1)[:, cells].reshape(-1, 3)


def _struct_torus(R: float, r: float, n: int):
    """n x n angular grid; cell (i, j) is split along its diagonal from
    (i, j) when i + j is even, else along the other one."""
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    phi_a = 2.0 * math.pi * ii.ravel() / n      # major angle
    theta = 2.0 * math.pi * jj.ravel() / n      # minor angle
    ring = R + r * np.cos(theta)
    verts = np.column_stack([ring * np.cos(phi_a), ring * np.sin(phi_a),
                             r * np.sin(theta)])
    i, j = ii.ravel(), jj.ravel()
    v00, v10 = i * n + j, (i + 1) % n * n + j
    v01, v11 = i * n + (j + 1) % n, (i + 1) % n * n + (j + 1) % n
    even = np.stack([v00, v10, v11, v00, v11, v01], axis=1)
    odd = np.stack([v00, v10, v01, v10, v11, v01], axis=1)
    return verts, np.where(((i + j) % 2 == 0)[:, None], even, odd).reshape(-1, 3)


def generate_base(surface: ImplicitSurface, kind: str, resolution: int) -> FlatMesh:
    """Deterministic base triangulation with all vertices on the surface.

    kinds (``KINDS`` names each one's surface and the parameters it reads):
    ``octa_sphere`` (subdivided octahedron, radially projected),
    ``struct_torus`` ((4*res)^2 angular grid with checkerboard diagonals),
    ``scaled_ellipsoid`` (octa_sphere stretched onto the ellipsoid axes).
    """
    if (isinstance(resolution, bool) or not isinstance(resolution, (int, np.integer))
            or resolution < 1):
        raise ValueError(f"resolution must be an integer >= 1, got {resolution!r}")
    if kind not in KINDS:
        raise ValueError(f"unknown mesh kind {kind!r}")
    name, keys = KINDS[kind]
    if surface.name != name:
        raise TopologyMismatch(
            f"{kind} requires the {name} surface, got {surface.name}")
    missing = [key for key in keys if key not in surface.params]
    if missing:
        raise TopologyMismatch(
            f"{kind} reads the {name} parameter(s) {missing}, which the "
            "surface lacks")
    params = [surface.params[key] for key in keys]

    if kind == "struct_torus":
        return FlatMesh(*_struct_torus(*params, 4 * resolution))
    verts, faces = _subdivided_octa(resolution)
    norm = np.linalg.norm(verts, axis=1)
    if kind == "octa_sphere":
        return FlatMesh(verts * (params[0] / norm)[:, None], faces)
    return FlatMesh(verts / norm[:, None] * np.array(params), faces)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def bisect(mesh: FlatMesh) -> FlatMesh:
    """Split every face into 4 children through exact flat edge midpoints.

    Shared-edge midpoints are deduplicated, so the result is conforming and
    midpoint coordinates are bitwise shared between neighbors.  New vertices
    are NOT projected back to the surface.  The children of face i are faces
    4i .. 4i+3, so base face i's descendants after L levels are faces
    i*4^L .. (i+1)*4^L - 1.
    """
    edges, side_edge = mesh.edges
    v = mesh.vertices
    mids = 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])
    a, b, c = mesh.faces.T
    mab, mbc, mca = (mesh.n_vertices + side_edge).T
    children = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca],
                        axis=1).reshape(-1, 3)
    return FlatMesh(np.concatenate([v, mids]), children)


def project_vertices(mesh: FlatMesh, surface: ImplicitSurface) -> FlatMesh:
    """Re-project every vertex onto the surface (breaks pair symmetry)."""
    proj, _, _, _ = project_many(surface, mesh.vertices)
    return FlatMesh(proj, mesh.faces)


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
    h = mesh_size(mesh)
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
    # fan, tested for d = 1, 2, ... one offset at a time, a block of pairs at
    # a time.
    pair_corner = [np.empty(0, dtype=np.int64)]
    pair_face = [np.empty(0, dtype=np.int64)]
    d = 1
    while (pairs := np.flatnonzero(vertex[:-d] == vertex[d:])).size:
        for block in blocks.blocks(pairs.size):
            k = pairs[block]
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

def write_off(mesh: FlatMesh, path) -> None:
    """ASCII OFF with shortest round-trip float formatting, at most
    ``blocks.BLOCK`` lines at a time: the export holds one block of lines,
    never the whole file."""
    with open(path, "wb") as fh:
        fh.write(f"OFF\n{mesh.n_vertices} {mesh.n_faces} 0\n".encode("ascii"))
        for block in blocks.blocks(mesh.n_vertices):
            fh.write(text.packed(text.line(text.floats(mesh.vertices[block]), " ")))
        for block in blocks.blocks(mesh.n_faces):
            fh.write(text.packed(text.line(
                text.ints(np.insert(mesh.faces[block], 0, 3, axis=1)), " ")))


def read_off(path) -> FlatMesh:
    """Parse an ASCII OFF triangle mesh; raises ParseError/NonTriangleFace.

    Each block is converted by one ``np.loadtxt``; its lines are walked one
    at a time only when that fails or a face is bad, to name the line."""
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

    verts = _parse_block(raw[2:2 + nv], float, 3)
    if verts is None:
        verts = _vertex_lines(raw, nv)
    faces = _parse_block(raw[2 + nv:2 + nv + nf], np.int64, 4)
    if (faces is None or np.any(faces[:, 0] != 3) or np.any(faces[:, 1:] < 0)
            or np.any(faces[:, 1:] >= nv)):
        faces = _face_lines(raw, nv, nf)
    else:
        faces = faces[:, 1:]
    return FlatMesh(verts, faces)


def _parse_block(lines, dtype, columns) -> Optional[np.ndarray]:
    """The whitespace-separated values of ``lines`` as a (len(lines),
    columns) array, or None if any line does not parse to that many."""
    if not lines:
        return np.empty((0, columns), dtype=dtype)
    try:
        with warnings.catch_warnings():
            # numpy before 2.0 reads '1.0' as an integer with this warning
            warnings.simplefilter("error", DeprecationWarning)
            block = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None
    return block if block.shape == (len(lines), columns) else None


def _vertex_lines(raw, nv) -> np.ndarray:
    """The vertex block parsed line by line; raises ParseError at the first
    line that is not three floats."""
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
    return verts


def _face_lines(raw, nv, nf) -> np.ndarray:
    """The face block parsed line by line; raises ParseError or
    NonTriangleFace at the first line that is not '3 i j k' with indices in
    range."""
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
    return faces
