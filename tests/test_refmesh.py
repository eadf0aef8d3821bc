import re
import tracemalloc

import numpy as np
import pytest

import surfquad as sq
from surfquad.errors import NonTriangleFace, ParseError, TopologyMismatch
from surfquad.refmesh import KINDS, FlatMesh, MeshStats, mesh_size


@pytest.fixture()
def generic_triangle_mesh():
    tri = np.array([[0.0, 0.0, 0.0], [2.1, 0.3, 0.0], [0.7, 1.9, 0.4]])
    return FlatMesh(tri, np.array([[0, 1, 2]]))


class TestGenerators:
    def test_octa_sphere_res1(self, unit_sphere):
        m = sq.generate_base(unit_sphere, "octa_sphere", 1)
        assert (m.n_vertices, m.n_faces) == (6, 8)
        assert sq.euler_characteristic(m) == 2
        assert sq.is_conforming_closed(m)
        assert np.max(np.abs(unit_sphere.phi(m.vertices))) <= 1e-12

    def test_octa_sphere_res3_on_surface(self, unit_sphere):
        m = sq.generate_base(unit_sphere, "octa_sphere", 3)
        assert m.n_faces == 8 * 9
        assert sq.euler_characteristic(m) == 2
        assert sq.is_conforming_closed(m)
        assert np.max(np.abs(unit_sphere.phi(m.vertices))) <= 1e-12

    def test_struct_torus_res1(self, torus21):
        m = sq.generate_base(torus21, "struct_torus", 1)
        assert (m.n_vertices, m.n_faces) == (16, 32)
        assert sq.euler_characteristic(m) == 0
        assert sq.is_conforming_closed(m)
        assert np.max(np.abs(torus21.phi(m.vertices))) <= 1e-12

    def test_struct_torus_outward_orientation(self, torus21):
        m = sq.generate_base(torus21, "struct_torus", 2)
        tri = m.vertices[m.faces]
        centers = tri.mean(axis=1)
        proj = torus21.analytic_project(centers)
        normals = torus21.grad_phi(proj)
        face_n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        assert np.all(np.einsum("ij,ij->i", face_n, normals) > 0)

    def test_octa_sphere_outward_orientation(self, unit_sphere):
        m = sq.generate_base(unit_sphere, "octa_sphere", 2)
        tri = m.vertices[m.faces]
        centers = tri.mean(axis=1)
        face_n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        assert np.all(np.einsum("ij,ij->i", face_n, centers) > 0)

    def test_scaled_ellipsoid(self):
        e = sq.ellipsoid(2.0, 1.0, 1.0)
        m = sq.generate_base(e, "scaled_ellipsoid", 1)
        assert m.n_faces == 8
        assert any(np.allclose(v, [2.0, 0.0, 0.0]) for v in m.vertices)
        assert np.max(np.abs(e.phi(m.vertices))) <= 1e-12

    def test_topology_mismatch(self, unit_sphere, torus21, flat_ellipsoid):
        # every kind builds on the surface KINDS names for it and no other
        assert list(KINDS) == ["octa_sphere", "struct_torus", "scaled_ellipsoid"]
        for kind, (name, _) in KINDS.items():
            for surface in (unit_sphere, torus21, flat_ellipsoid):
                if surface.name == name:
                    assert sq.is_conforming_closed(sq.generate_base(surface, kind, 2))
                else:
                    with pytest.raises(TopologyMismatch):
                        sq.generate_base(surface, kind, 2)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_missing_parameters_named(self, kind):
        # a surface of the kind's name without the parameters the kind reads
        # used to fail with a bare KeyError
        name, keys = KINDS[kind]
        surface = sq.from_level_set(phi=lambda p: p[..., 0],
                                    grad_phi=lambda p: np.ones_like(p), name=name)
        with pytest.raises(TopologyMismatch, match=re.escape(str(list(keys)))):
            sq.generate_base(surface, kind, 1)

    def test_bad_resolution_and_kind(self, unit_sphere):
        with pytest.raises(ValueError):
            sq.generate_base(unit_sphere, "octa_sphere", 0)
        with pytest.raises(ValueError):
            sq.generate_base(unit_sphere, "icosahedron", 1)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_resolution_must_be_an_integer(self, kind, unit_sphere, torus21,
                                           flat_ellipsoid):
        # a float resolution used to build a grid that does not close (1.1 on
        # the torus: 50 faces, chi = 2) and True one of resolution 1
        surface = {"sphere": unit_sphere, "torus": torus21,
                   "ellipsoid": flat_ellipsoid}[KINDS[kind][0]]
        for bad in (1.1, 1.5, 2.0, True, np.True_):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                sq.generate_base(surface, kind, bad)
        mesh = sq.generate_base(surface, kind, 2)
        for res in (np.int64(2), np.int32(2)):
            same = sq.generate_base(surface, kind, res)
            assert same.vertices.tobytes() == mesh.vertices.tobytes()
            assert np.array_equal(same.faces, mesh.faces)


def _subdivided_octa_reference(res):
    """Integer barycentric keys deduplicated through a dict, face by face and
    lattice point by lattice point."""
    corners = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                        [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    octants = []
    for sx in (0, 1):
        for sy in (2, 3):
            for sz in (4, 5):
                even = (sx + (sy - 2) + (sz - 4)) % 2 == 0
                octants.append((sx, sy, sz) if even else (sx, sz, sy))
    key_to_index, verts, faces = {}, [], []

    def vertex_index(weights):
        key = tuple(sorted(weights))
        if key not in key_to_index:
            p = np.zeros(3)
            for cid, w in key:
                p += (w / res) * corners[cid]
            key_to_index[key] = len(verts)
            verts.append(p)
        return key_to_index[key]

    for c0, c1, c2 in octants:
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
    return np.array(verts), np.array(faces)


def _base_reference(surface, kind, res):
    """Base meshes as a per-vertex and per-cell loop builds them."""
    if kind == "struct_torus":
        R, r = surface.params["R"], surface.params["r"]
        n = 4 * res
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        phi_a = 2.0 * np.pi * ii.ravel() / n
        theta = 2.0 * np.pi * jj.ravel() / n
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
                    faces += [(v00, v10, v11), (v00, v11, v01)]
                else:
                    faces += [(v00, v10, v01), (v10, v11, v01)]
        return verts, np.array(faces)
    verts, faces = _subdivided_octa_reference(res)
    if kind == "octa_sphere":
        return verts * (surface.params["R"] / np.linalg.norm(verts, axis=1))[:, None], faces
    verts = verts / np.linalg.norm(verts, axis=1)[:, None]
    axes = np.array([surface.params["a"], surface.params["b"], surface.params["c"]])
    return verts * axes, faces


class TestBaseNumbering:
    # OFF bytes depend on the vertex and face numbering of the base mesh
    @pytest.mark.parametrize("kind, surface", [
        ("octa_sphere", sq.sphere(1.0)), ("octa_sphere", sq.sphere(2.5)),
        ("struct_torus", sq.torus(2.0, 1.0)), ("struct_torus", sq.torus(3.0, 0.7)),
        ("scaled_ellipsoid", sq.ellipsoid(1.0, 1.0, 0.6)),
        ("scaled_ellipsoid", sq.ellipsoid(1.3, 0.9, 0.6)),
    ], ids=lambda v: v if isinstance(v, str) else ",".join(map(str, v.params.values())))
    def test_matches_reference_loop(self, kind, surface):
        for res in range(1, 9):
            verts, faces = _base_reference(surface, kind, res)
            m = sq.generate_base(surface, kind, res)
            assert m.vertices.tobytes() == verts.tobytes()
            assert np.array_equal(m.faces, faces)


class TestConformity:
    @pytest.mark.parametrize("face", [[0, 1, -1], [0, 1, 5]],
                             ids=["negative", "past_end"])
    def test_face_index_out_of_range_rejected(self, face):
        # a negative index would silently wrap to the last vertex in bisect
        with pytest.raises(ValueError, match="out of range"):
            FlatMesh(np.eye(3), [face])

    @pytest.mark.parametrize("width", [2, 4])
    def test_vertex_shape_rejected(self, width):
        # (3, 2) vertices would bisect into (6, 2) and give mesh_size 0.0
        with pytest.raises(ValueError, match=r"\(V, 3\)"):
            FlatMesh(np.zeros((3, width)), [[0, 1, 2]])

    def test_repeated_vertex_face_rejected(self):
        # the side (0, 0) is its own reverse; no closed surface has it
        assert not sq.is_conforming_closed(FlatMesh(np.eye(3), [[0, 0, 1]]))

    @pytest.mark.parametrize("edit", [
        lambda f: np.vstack([f[:3], f[3, ::-1], f[4:]]),
        lambda f: np.vstack([f, f[:1]]),
        lambda f: f[1:],
    ], ids=["flipped", "duplicated", "removed"])
    def test_broken_octahedron_rejected(self, unit_sphere, edit):
        m = sq.generate_base(unit_sphere, "octa_sphere", 1)
        assert sq.is_conforming_closed(m)
        assert not sq.is_conforming_closed(FlatMesh(m.vertices, edit(m.faces)))

    def test_audit_builds_one_edge_table(self, unit_sphere, monkeypatch, tmp_path):
        # a mesh read back from OFF has no table yet; both checks share the
        # one the mesh keeps
        sq.write_off(sq.bisect(sq.generate_base(unit_sphere, "octa_sphere", 2)),
                     tmp_path / "m.off")
        mesh = sq.read_off(tmp_path / "m.off")
        calls = []
        table = sq.refmesh.edge_table
        monkeypatch.setattr(sq.refmesh, "edge_table",
                            lambda faces: calls.append(len(faces)) or table(faces))
        assert sq.is_conforming_closed(mesh)
        assert sq.euler_characteristic(mesh) == 2
        assert calls == [mesh.n_faces]


def _edge_table_reference(faces):
    """``edge_table`` as it was built on ``np.unique``: the stacked and sorted
    side pairs, keyed and numbered by first appearance."""
    faces = np.asarray(faces, dtype=np.int64)
    pairs = np.sort(np.stack([faces, np.roll(faces, -1, axis=1)], axis=-1)
                    .reshape(-1, 2), axis=1)
    keys = pairs[:, 0] * (int(pairs.max(initial=0)) + 1) + pairs[:, 1]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return pairs[first[order]], rank[inverse.ravel()].reshape(-1, 3)


def _mesh_size_reference(mesh):
    """The longest face side from the (F, 3, 3) face corners."""
    tri = mesh.vertices[mesh.faces]
    d01 = np.linalg.norm(tri[:, 0] - tri[:, 1], axis=1)
    d12 = np.linalg.norm(tri[:, 1] - tri[:, 2], axis=1)
    d20 = np.linalg.norm(tri[:, 2] - tri[:, 0], axis=1)
    return float(np.max(np.stack([d01, d12, d20])))


def _random_face_arrays():
    rng = np.random.default_rng(11)
    closed = sq.bisect(sq.bisect(sq.generate_base(sq.sphere(1.0), "octa_sphere", 2)))
    repeated = rng.integers(0, 40, (300, 3))
    repeated[::3, 1] = repeated[::3, 0]
    return {
        # a closed mesh with a third of its faces dropped, in random order
        "open": closed.faces[rng.permutation(closed.n_faces)[:2 * closed.n_faces // 3]],
        # three distinct vertices per face out of 12: most edges in 3+ faces
        "non_manifold": np.array([rng.choice(12, 3, replace=False) for _ in range(200)]),
        "repeated_vertex": repeated,
        "one_face": np.array([[7, 2, 5]]),
        "no_faces": np.zeros((0, 3), dtype=np.int64),
    }


class TestEdgeTable:
    @pytest.mark.parametrize("case", list(_random_face_arrays()))
    def test_matches_unique_reference(self, case):
        faces = _random_face_arrays()[case]
        got, want = sq.refmesh.edge_table(faces), _edge_table_reference(faces)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("levels", [3, 5])
    def test_peak_memory_flat_across_levels(self, torus21, levels):
        # the table holds its output, the (3F,) keys and the numbering's
        # working arrays (2.5x its output); the unique-based table peaked at
        # 4.5x.  mesh_size reads the kept table a block of edges at a time.
        mesh = sq.generate_base(torus21, "struct_torus", 2)
        for _ in range(levels):
            mesh = sq.bisect(mesh)
        edges, side_edge = mesh.edges
        tracemalloc.start()
        try:
            sq.refmesh.edge_table(mesh.faces)
            table_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            sq.mesh_size(mesh)
            size_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table_peak <= 3.5 * (edges.nbytes + side_edge.nbytes)
        assert size_peak < 1e6


class TestMeshSize:
    @pytest.mark.parametrize("kind, surface", [
        ("octa_sphere", sq.sphere(1.0)), ("struct_torus", sq.torus(2.0, 1.0)),
        ("scaled_ellipsoid", sq.ellipsoid(1.3, 0.9, 0.6))],
        ids=["octa_sphere", "struct_torus", "scaled_ellipsoid"])
    def test_equals_face_side_formula(self, kind, surface):
        # every face side is an edge and |a - b| = |b - a|, bit for bit
        mesh = sq.generate_base(surface, kind, 2)
        for level in range(5):
            assert sq.mesh_size(mesh) == _mesh_size_reference(mesh)
            if level < 4:
                mesh = sq.bisect(mesh)

    def test_blocked_pass_same_value(self, torus21, monkeypatch, passes):
        mesh = sq.bisect(sq.generate_base(torus21, "struct_torus", 2))
        monkeypatch.setattr(sq.blocks, "BLOCK", 50)
        assert sq.mesh_size(mesh) == _mesh_size_reference(mesh)
        assert passes["mesh_size"] == [-(-len(mesh.edges[0]) // 50)]

    def test_no_faces(self):
        # used to raise numpy's zero-size reduction ValueError
        assert sq.mesh_size(_EMPTY_MESH) == 0.0
        assert sq.mesh_size(FlatMesh(np.eye(3), np.zeros((0, 3), int))) == 0.0


def _bisect_reference(mesh):
    """Midpoints numbered by first appearance over sides ab, bc, ca, face by face."""
    verts, index, faces = list(mesh.vertices), {}, []

    def mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in index:
            index[key] = len(verts)
            verts.append(0.5 * (mesh.vertices[key[0]] + mesh.vertices[key[1]]))
        return index[key]

    for a, b, c in mesh.faces.tolist():
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        faces += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    return np.array(verts), np.array(faces)


class TestBisect:
    @pytest.mark.parametrize("case", ["octa_sphere", "struct_torus", "permuted"])
    def test_numbering_matches_first_appearance(self, unit_sphere, torus21, case):
        # OFF bytes depend on this numbering; integral totals do not
        if case == "struct_torus":
            m = sq.generate_base(torus21, "struct_torus", 1)
        else:
            m = sq.generate_base(unit_sphere, "octa_sphere", 1)
        if case == "permuted":
            m = sq.bisect(m)
            m = FlatMesh(m.vertices,
                         m.faces[np.random.default_rng(7).permutation(m.n_faces)])
        for _ in range(2):
            verts, faces = _bisect_reference(m)
            m = sq.bisect(m)
            assert np.array_equal(m.vertices, verts)
            assert np.array_equal(m.faces, faces)

    def test_face_count_powers(self, unit_sphere):
        m = sq.generate_base(unit_sphere, "octa_sphere", 1)
        for level in range(1, 4):
            m = sq.bisect(m)
            assert m.n_faces == 8 * 4**level

    def test_h_exactly_halves(self, torus21):
        m = sq.generate_base(torus21, "struct_torus", 2)
        for _ in range(3):
            h = sq.mesh_size(m)
            m = sq.bisect(m)
            assert sq.mesh_size(m) == pytest.approx(h / 2, rel=1e-14)

    def test_corner_child_is_midpoint_construction(self, generic_triangle_mesh):
        m = sq.bisect(generic_triangle_mesh)
        v = generic_triangle_mesh.vertices
        child = m.vertices[m.faces[0]]
        expect = np.stack([v[0], 0.5 * (v[0] + v[1]), 0.5 * (v[2] + v[0])])
        assert np.array_equal(child, expect)

    def test_children_diameters_halve(self, generic_triangle_mesh):
        parent_h = sq.mesh_size(generic_triangle_mesh)
        m = sq.bisect(generic_triangle_mesh)
        tri = m.vertices[m.faces]
        for t in tri:
            d = max(np.linalg.norm(t[0] - t[1]), np.linalg.norm(t[1] - t[2]),
                    np.linalg.norm(t[2] - t[0]))
            assert d == pytest.approx(parent_h / 2, rel=1e-14)

    def test_preserves_conformity_and_euler(self, unit_sphere, torus21):
        for surf, kind, chi in ((unit_sphere, "octa_sphere", 2),
                                (torus21, "struct_torus", 0)):
            m = sq.generate_base(surf, kind, 1)
            for _ in range(2):
                m = sq.bisect(m)
                assert sq.is_conforming_closed(m)
                assert sq.euler_characteristic(m) == chi

    def test_fine_vertices_not_reprojected(self, unit_sphere):
        m = sq.bisect(sq.generate_base(unit_sphere, "octa_sphere", 1))
        new = m.vertices[6:]
        # flat midpoints of a unit-sphere octahedron sit strictly inside
        assert np.all(unit_sphere.phi(new) < -0.1)

    def test_fine_vertices_stay_on_macro_planes(self, unit_sphere):
        # octahedron macro faces lie on |x|+|y|+|z| = 1; bisection never
        # leaves them
        m = sq.generate_base(unit_sphere, "octa_sphere", 1)
        for _ in range(2):
            m = sq.bisect(m)
        assert np.max(np.abs(np.abs(m.vertices).sum(axis=1) - 1.0)) < 1e-14

    def test_project_vertices_restores_surface(self, unit_sphere):
        m = sq.bisect(sq.generate_base(unit_sphere, "octa_sphere", 1))
        mp = sq.project_vertices(m, unit_sphere)
        assert np.max(np.abs(unit_sphere.phi(mp.vertices))) <= 1e-12


def _census_reference(mesh):
    """The per-face greedy loop that ``symmetry_census`` vectorizes."""
    h = mesh_size(mesh) if mesh.n_faces else 0.0
    tol = 1e-12 * h
    verts = mesh.vertices
    faces = mesh.faces

    vertex_faces = {}
    for fi, face in enumerate(faces):
        for v in face:
            vertex_faces.setdefault(int(v), []).append(fi)

    def others(fi, v):
        return [int(w) for w in faces[fi] if w != v]

    def reflected(fi, fj, v):
        p = verts[v]
        oi = others(fi, v)
        oj = others(fj, v)
        if len(oi) != 2 or len(oj) != 2:
            return False
        ai, bi = verts[oi[0]] - p, verts[oi[1]] - p
        aj, bj = verts[oj[0]] - p, verts[oj[1]] - p
        straight = (np.linalg.norm(ai + aj) <= tol and np.linalg.norm(bi + bj) <= tol)
        crossed = (np.linalg.norm(ai + bj) <= tol and np.linalg.norm(bi + aj) <= tol)
        return straight or crossed

    paired = np.zeros(mesh.n_faces, dtype=bool)
    n_pairs = 0
    for fi in range(mesh.n_faces):
        if paired[fi]:
            continue
        found = False
        for v in faces[fi]:
            for fj in vertex_faces[int(v)]:
                if fj <= fi or paired[fj]:
                    continue
                if reflected(fi, fj, int(v)):
                    paired[fi] = paired[fj] = True
                    n_pairs += 1
                    found = True
                    break
            if found:
                break

    return MeshStats(h=h, n_faces=mesh.n_faces, n_symmetric_pairs=n_pairs,
                     n_unpaired=mesh.n_faces - 2 * n_pairs)


def _levels(mesh, levels):
    meshes = [mesh]
    for _ in range(levels):
        meshes.append(sq.bisect(meshes[-1]))
    return meshes


def _permuted_torus():
    mesh = _levels(sq.generate_base(sq.torus(2.0, 1.0), "struct_torus", 1), 2)[-1]
    order = np.random.default_rng(7).permutation(mesh.n_faces)
    return [FlatMesh(mesh.vertices, mesh.faces[order])]


def _repeated_vertex_meshes():
    # Faces 0 and 1 of the first mesh reflect through vertex 0 with opposite
    # orientation (the crossed assignment); faces 2 and 3 repeat a vertex.
    # The second mesh's faces would reflect through their repeated vertex.
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.0], [0.3, 1.0, 0.1],
                      [-0.3, -1.0, -0.1], [-1.0, -0.2, 0.0]])
    return [FlatMesh(verts, [[0, 1, 2], [0, 3, 4], [0, 0, 1], [1, 1, 2]]),
            FlatMesh(verts[[0, 1, 4]], [[0, 0, 1], [0, 0, 2]])]


def _near_reflection_meshes():
    # One vertex of a point-reflected pair moved by 0.5e-12*h (inside the
    # census tolerance) and by 1e-9*h (outside it).
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.0], [0.3, 1.0, 0.1],
                      [-1.0, -0.2, 0.0], [-0.3, -1.0, -0.1]])
    h = mesh_size(FlatMesh(verts, [[0, 1, 2], [0, 3, 4]]))
    return [FlatMesh(np.vstack([verts[:4], verts[4] + [eps * h, 0.0, 0.0]]),
                     [[0, 1, 2], [0, 3, 4]]) for eps in (0.5e-12, 1e-9)]


_EMPTY_MESH = FlatMesh(np.zeros((0, 3)), np.zeros((0, 3), int))

_CENSUS_CASES = {
    "generic_triangle": lambda: _levels(FlatMesh(
        [[0.0, 0.0, 0.0], [2.1, 0.3, 0.0], [0.7, 1.9, 0.4]], [[0, 1, 2]]), 4),
    "octa_sphere": lambda: _levels(
        sq.generate_base(sq.sphere(1.0), "octa_sphere", 1), 3),
    "struct_torus": lambda: _levels(
        sq.generate_base(sq.torus(2.0, 1.0), "struct_torus", 1), 3),
    "scaled_ellipsoid": lambda: _levels(
        sq.generate_base(sq.ellipsoid(1.0, 1.0, 0.6), "scaled_ellipsoid", 2), 3),
    "permuted_torus": _permuted_torus,
    "repeated_vertex": _repeated_vertex_meshes,
    "near_reflection": _near_reflection_meshes,
    "empty": lambda: [_EMPTY_MESH],
}


class TestSymmetryCensus:
    @pytest.mark.parametrize("case", list(_CENSUS_CASES))
    def test_matches_reference_loop(self, case):
        for mesh in _CENSUS_CASES[case]():
            assert sq.symmetry_census(mesh) == _census_reference(mesh)

    def test_known_counts_on_small_meshes(self):
        counts = [(st.n_symmetric_pairs, st.n_unpaired)
                  for st in map(sq.symmetry_census, _repeated_vertex_meshes())]
        assert counts == [(1, 2), (0, 2)]
        assert [sq.symmetry_census(m).n_symmetric_pairs
                for m in _near_reflection_meshes()] == [1, 0]
        assert sq.symmetry_census(_EMPTY_MESH) == MeshStats(0.0, 0, 0, 0)

    def test_invariant_partition(self, unit_sphere):
        m = sq.bisect(sq.bisect(sq.generate_base(unit_sphere, "octa_sphere", 1)))
        st = sq.symmetry_census(m)
        assert 2 * st.n_symmetric_pairs + st.n_unpaired == st.n_faces

    def test_single_triangle_levels(self, generic_triangle_mesh):
        # exhaustive-oracle counts: one bisection of a generic triangle yields
        # NO point-reflection pair through a shared vertex among the 4
        # children; pairs appear from the second bisection on
        mesh = generic_triangle_mesh
        observed = []
        for _ in range(4):
            mesh = sq.bisect(mesh)
            observed.append(sq.symmetry_census(mesh).n_symmetric_pairs)
        assert observed[0] == 0
        assert observed[1] >= 3
        assert observed[2] >= 21
        assert observed[3] >= 105

    def test_exhaustive_level1_oracle(self, generic_triangle_mesh):
        # direct check of the reflection relation over all child pairs and
        # both vertex assignments
        mesh = sq.bisect(generic_triangle_mesh)
        tri = mesh.vertices[mesh.faces]
        found = 0
        for i in range(4):
            for j in range(i + 1, 4):
                shared = set(mesh.faces[i]) & set(mesh.faces[j])
                for v in shared:
                    p = mesh.vertices[v]
                    oi = [mesh.vertices[w] - p for w in mesh.faces[i] if w != v]
                    oj = [mesh.vertices[w] - p for w in mesh.faces[j] if w != v]
                    for a, b in ((0, 1), (1, 0)):
                        if (np.linalg.norm(oi[0] + oj[a]) < 1e-12
                                and np.linalg.norm(oi[1] + oj[b]) < 1e-12):
                            found += 1
        assert found == 0
        assert sq.symmetry_census(mesh).n_symmetric_pairs == found

    def test_unpaired_density_sqrt_bound(self, unit_sphere, torus21):
        # unpaired fraction <= C / sqrt(n) with C = 3 sqrt(macro faces)
        for surf, kind in ((unit_sphere, "octa_sphere"), (torus21, "struct_torus")):
            m = sq.generate_base(surf, kind, 1)
            for _ in range(3):
                m = sq.bisect(m)
            st = sq.symmetry_census(m)
            c = 3.0 * np.sqrt(m.n_faces / 4**3)
            assert st.n_unpaired / st.n_faces <= c / np.sqrt(st.n_faces)

    def test_unpaired_order_2_to_m(self, generic_triangle_mesh):
        mesh = generic_triangle_mesh
        for m in range(1, 5):
            mesh = sq.bisect(mesh)
            st = sq.symmetry_census(mesh)
            assert st.n_unpaired <= 3 * 2**m
            assert st.n_faces == 4**m

    def test_coarse_unpaired_dominates(self, unit_sphere):
        st = sq.symmetry_census(sq.generate_base(unit_sphere, "octa_sphere", 1))
        assert st.n_unpaired >= st.n_symmetric_pairs


class TestOffIO:
    def test_round_trip_bit_identical(self, unit_sphere, tmp_path):
        m = sq.bisect(sq.generate_base(unit_sphere, "octa_sphere", 1))
        path = tmp_path / "mesh.off"
        sq.write_off(m, path)
        back = sq.read_off(path)
        assert np.array_equal(back.vertices, m.vertices)
        assert np.array_equal(back.faces, m.faces)

    def test_rewrite_stable(self, torus21, tmp_path):
        m = sq.generate_base(torus21, "struct_torus", 1)
        p1, p2 = tmp_path / "a.off", tmp_path / "b.off"
        sq.write_off(m, p1)
        sq.write_off(sq.read_off(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_blocked_write_same_bytes(self, torus21, generic_triangle_mesh,
                                      tmp_path, monkeypatch, passes):
        m = sq.generate_base(torus21, "struct_torus", 1)
        whole, blocked = tmp_path / "whole.off", tmp_path / "blocked.off"
        sq.write_off(m, whole)
        monkeypatch.setattr(sq.blocks, "BLOCK", 2)
        sq.write_off(m, blocked)
        assert blocked.read_bytes() == whole.read_bytes()
        # 16 vertices and 32 faces, two lines per write
        assert passes["write_off"] == [1, 1, 8, 16]
        sq.write_off(generic_triangle_mesh, blocked)
        assert blocked.read_text() == ("OFF\n3 1 0\n0.0 0.0 0.0\n2.1 0.3 0.0\n"
                                       "0.7 1.9 0.4\n3 0 1 2\n")

    def test_bytes_equal_repr(self, flat_ellipsoid, tmp_path):
        # negative coordinates, exact zeros and every digit count
        m = sq.bisect(sq.generate_base(flat_ellipsoid, "scaled_ellipsoid", 2))
        path = tmp_path / "mesh.off"
        sq.write_off(m, path)
        lines = [f"{x!r} {y!r} {z!r}" for x, y, z in m.vertices.tolist()]
        lines += [f"3 {a} {b} {c}" for a, b, c in m.faces.tolist()]
        assert path.read_text() == (f"OFF\n{m.n_vertices} {m.n_faces} 0\n"
                                    + "\n".join(lines) + "\n")

    @pytest.mark.parametrize("body, line", [
        ("0 0 0\n1 0 0\n0 1 0\n3 0 1.0 2\n", 6),     # float face index
        ("0 0 0\n\n0 1 0\n3 0 1 2\n", 4),            # blank vertex line
        ("0 0 0\n1 0 0 0\n0 1 0\n3 0 1 2\n", 4),     # four coordinates
        ("0 0 0\n1 0 0\n0 1 0\n3 0 1 2 3\n", 6),     # four indices
        ("0 0 0\n1 0 0\n0 1 0\n3 0 -1 2\n", 6),      # negative index
    ])
    def test_bad_line_named(self, tmp_path, body, line):
        path = tmp_path / "bad.off"
        path.write_text("OFF\n3 1 0\n" + body)
        with pytest.raises(ParseError) as err:
            sq.read_off(path)
        assert err.value.line == line

    def test_quad_face_rejected(self, tmp_path):
        path = tmp_path / "quad.off"
        path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
        with pytest.raises(NonTriangleFace):
            sq.read_off(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.off"
        path.write_text("")
        with pytest.raises(ParseError) as err:
            sq.read_off(path)
        assert err.value.line == 1

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFF\n2 1 0\n0 0 0\nnot a vertex\n3 0 1 1\n")
        with pytest.raises(ParseError) as err:
            sq.read_off(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("counts", ["-1 0 0", "3 -1 0"])
    def test_negative_counts(self, tmp_path, counts):
        path = tmp_path / "negative.off"
        path.write_text(f"OFF\n{counts}\n0 0 0\n1 0 0\n0 1 0\n")
        with pytest.raises(ParseError) as err:
            sq.read_off(path)
        assert err.value.line == 2

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "oob.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n")
        with pytest.raises(ParseError) as err:
            sq.read_off(path)
        assert err.value.line == 6
