import copy
import math
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest

import surfquad as sq
from surfquad import cli
from surfquad.curved import (_FOLDED, _chart_metric, _chart_points,
                             affine_chart_points, build_surface_elements)
from surfquad.errors import (DegenerateJacobian, DegeneratePoint, IntegrationError,
                             NoConvergence, OutsideTube)
from surfquad.quad import MODE_EXACT, _chart_integrals
from surfquad.refmesh import FlatMesh

from conftest import failing_nodes, newton


@pytest.fixture(scope="module")
def octant_tri():
    return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def plane_surface():
    """z = 0 plane as a level set (open surface, used for flat-element tests)."""
    return sq.from_level_set(
        phi=lambda p: np.asarray(p, dtype=float)[..., 2],
        grad_phi=lambda p: np.broadcast_to(
            np.array([0.0, 0.0, 1.0]), np.asarray(p).shape).copy(),
        analytic_project=lambda p: np.asarray(p, dtype=float) * [1.0, 1.0, 0.0],
        name="plane")


class TestBuildElement:
    def test_k1_keeps_on_surface_vertices(self, unit_sphere, octant_tri):
        el = sq.build_element(unit_sphere, octant_tri, 1)
        assert np.allclose(el.projected_nodes, octant_tri, atol=1e-15)

    def test_k2_edge_midpoints_project_radially(self, unit_sphere, octant_tri):
        el = sq.build_element(unit_sphere, octant_tri, 2)
        r = 1.0 / math.sqrt(2.0)
        expected = {(r, r, 0.0), (r, 0.0, r), (0.0, r, r)}
        mids = {tuple(np.round(p, 12)) for p in el.projected_nodes[3:]}
        assert mids == {tuple(np.round(e, 12)) for e in expected}

    def test_k4_node_count(self, torus21):
        tri = np.array([[3.0, 0.0, 0.0], [2.9, 0.5, 0.1], [2.8, -0.1, 0.55]])
        el = sq.build_element(torus21, tri, 4)
        assert el.projected_nodes.shape == (15, 3)

    def test_all_nodes_on_surface(self, unit_sphere, octant_tri):
        el = sq.build_element(unit_sphere, octant_tri, 6)
        assert np.max(np.abs(unit_sphere.phi(el.projected_nodes))) <= 1e-11

    def test_affine_chart_convention(self, octant_tri):
        pts = affine_chart_points(octant_tri, np.array([[0.0, 0.0], [1.0, 0.0],
                                                        [0.0, 1.0]]))
        assert np.allclose(pts[0], octant_tri[0])   # (0,0) -> q1
        assert np.allclose(pts[1], octant_tri[2])   # (1,0) -> q3
        assert np.allclose(pts[2], octant_tri[1])   # (0,1) -> q2


class TestOneElementPipeline:
    """A single element is the face of a one-face mesh, bit for bit."""

    @pytest.mark.parametrize("surface, kind, res", [
        (sq.torus(2.0, 1.0), "struct_torus", 2),
        (sq.ellipsoid(1.0, 1.0, 0.6), "scaled_ellipsoid", 1),
        (newton(sq.ellipsoid(1.0, 1.0, 0.6)), "scaled_ellipsoid", 1)],
        ids=["torus", "ellipsoid", "newton-ellipsoid"])
    def test_single_element_equals_one_face_mesh(self, surface, kind, res):
        base = sq.generate_base(surface, kind, res)
        tri = base.vertices[base.faces[3]]
        mesh = FlatMesh(tri, [[0, 1, 2]])
        for k in range(1, 7):
            el = sq.build_element(surface, tri, k)
            batch = build_surface_elements(mesh, surface, k)
            assert el.projected_nodes.tobytes() == batch.element_nodes()[0].tobytes()
            assert el.basis is batch.basis

    def test_projection_failure_names_face_0(self, flat_ellipsoid,
                                             one_iteration_projector):
        base = sq.generate_base(flat_ellipsoid, "scaled_ellipsoid", 1)
        with pytest.raises(IntegrationError) as err:
            sq.build_element(flat_ellipsoid, base.vertices[base.faces[0]], 4)
        assert {face for face, _ in err.value.failures} == {0}
        assert all(isinstance(sub, NoConvergence) and "node" in str(sub)
                   for _, sub in err.value.failures)

    def test_projection_failure_names_face_0_newton(self, newton_ellipsoid,
                                                    one_iteration_projector):
        self.test_projection_failure_names_face_0(newton_ellipsoid, one_iteration_projector)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 3, 3), (9,)])
    def test_rejects_triangle_shape(self, unit_sphere, shape):
        with pytest.raises(ValueError, match=r"\(3, 3\)"):
            sq.build_element(unit_sphere, np.ones(shape), 2)

    def test_rejects_foreign_basis(self, unit_sphere, octant_tri):
        for basis in (sq.lagrange_basis(3), copy.copy(sq.lagrange_basis(2))):
            with pytest.raises(ValueError, match="lagrange_basis"):
                sq.build_element(unit_sphere, octant_tri, 2, basis)
        el = sq.build_element(unit_sphere, octant_tri, 2, sq.lagrange_basis(2))
        assert el.basis is sq.lagrange_basis(2)


def chart_samples(el, ref_pts):
    """Chart points (q, 3), Jacobian columns d/ds and d/dt (q, 3) each and
    area density sqrt(det(J^T J)) (q,) of one element at (q, 2) points."""
    tables = el.basis.tables(np.asarray(ref_pts, dtype=float).reshape(-1, 2))
    nodes = el.projected_nodes[None]
    js, jt, det = _chart_metric(tables, nodes)
    return (_chart_points(tables, nodes)[0], js[0].T, jt[0].T,
            np.sqrt(det[0]))


class TestChartEval:
    def test_flat_k1_metric_is_twice_area(self):
        surf = plane_surface()
        tri = np.array([[0.0, 0.0, 0.0], [3.0, 1.0, 0.0], [1.0, 2.0, 0.0]])
        el = sq.build_element(surf, tri, 1)
        area = 0.5 * np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0]))
        g = chart_samples(el, [(0.2, 0.3), (0.0, 0.0), (0.4, 0.5)])[3]
        assert g == pytest.approx(np.full(3, 2 * area), rel=1e-14)

    def test_unit_right_triangle_metric_one(self):
        surf = plane_surface()
        tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        el = sq.build_element(surf, tri, 1)
        assert chart_samples(el, (0.25, 0.25))[3][0] == pytest.approx(1.0, rel=1e-14)

    def test_octant_area_k6_single_element(self, unit_sphere, octant_tri):
        # frozen from a composite-quadrature oracle: one degree-6 chart over
        # the whole octant carries an irreducible ~1.7e-3 area defect
        got = sq.integrate_surface(FlatMesh(octant_tri, [[0, 1, 2]]), unit_sphere,
                                   lambda p: np.ones(p.shape[:-1]), 6,
                                   sq.builtin_rule(12), MODE_EXACT).value
        # 1.568048904871 is the converged composite-quadrature value; the
        # single degree-12 rule adds ~4.6e-6 of its own on this huge element
        assert got == pytest.approx(1.568048904871, abs=1e-5)
        assert got == pytest.approx(4 * math.pi / 8, rel=2e-3)

    def test_octant_area_k6_refined(self, unit_sphere, octant_tri):
        mesh = FlatMesh(octant_tri, np.array([[0, 1, 2]]))
        for _ in range(3):
            mesh = sq.bisect(mesh)
        rule = sq.builtin_rule(12)
        f = lambda p: np.ones(p.shape[:-1])
        got = sq.integrate_surface(mesh, unit_sphere, f, 6, rule).value
        assert got == pytest.approx(4 * math.pi / 8, rel=1e-8)

    def test_jacobian_matches_finite_differences(self, torus21, rng):
        tri = np.array([[3.0, 0.0, 0.0], [2.85, 0.45, 0.1], [2.8, -0.05, 0.5]])
        el = sq.build_element(torus21, tri, 3)
        h = 1e-6
        for _ in range(10):
            s = rng.uniform(0.1, 0.8)
            t = rng.uniform(0.1, 0.9) * (1 - s)
            pts, js, jt, _ = chart_samples(
                el, [(s, t), (s + h, t), (s - h, t), (s, t + h), (s, t - h)])
            fd_s = (pts[1] - pts[2]) / (2 * h)
            fd_t = (pts[3] - pts[4]) / (2 * h)
            assert np.max(np.abs(js[0] - fd_s)) < 1e-5
            assert np.max(np.abs(jt[0] - fd_t)) < 1e-5

    def test_degenerate_triangle_rejected(self):
        surf = plane_surface()
        tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(DegenerateJacobian):
            sq.build_element(surf, tri, 1)
        mesh = FlatMesh(tri, np.array([[0, 1, 2]]))
        with pytest.raises(IntegrationError) as err:
            sq.integrate_surface(mesh, surf, lambda p: np.ones(p.shape[:-1]), 1,
                                 sq.builtin_rule(4))
        assert {face for face, _ in err.value.failures} == {0}
        assert all(isinstance(e, DegenerateJacobian)
                   for _, e in err.value.failures)


class TestOrientation:
    """FlatMesh faces are counterclockwise seen from outside; a chart that
    folds against the outward normal is rejected, also on an inverted face."""

    def test_clockwise_triangle_rejected(self):
        tri = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(DegenerateJacobian, match="inverted flat face"):
            sq.build_element(plane_surface(), tri, 1)

    @staticmethod
    def inverted_mesh(surface):
        """octa_sphere res 2 bisected twice, with face 5's first vertex
        reflected across its opposite edge: faces 5 and 7 turn clockwise
        seen from outside (flat and curved alike)."""
        mesh = sq.generate_base(surface, "octa_sphere", 2)
        for _ in range(2):
            mesh = sq.bisect(mesh)
        v = mesh.vertices.copy()
        a, b, c = mesh.faces[5]
        v[a] = v[b] + v[c] - v[a]
        return FlatMesh(v, mesh.faces)

    def test_inverted_faces_named(self, unit_sphere):
        mesh = self.inverted_mesh(unit_sphere)
        with pytest.raises(IntegrationError) as err:
            # unchecked, the overlap counts twice: 12.6025 against 4 pi
            sq.integrate_surface(mesh, unit_sphere,
                                 lambda p: np.ones(p.shape[:-1]), 2,
                                 sq.builtin_rule(12))
        assert {face for face, _ in err.value.failures} == {5, 7}
        assert all(isinstance(e, DegenerateJacobian)
                   for _, e in err.value.failures)

    def test_inverted_face_alone_rejected(self, unit_sphere):
        # each path that takes face 5 on its own checks the fold too
        mesh = self.inverted_mesh(unit_sphere)
        with pytest.raises(IntegrationError) as err:
            sq.integrate_surface(FlatMesh(mesh.vertices, mesh.faces[5:6]),
                                 unit_sphere, lambda p: np.ones(p.shape[:-1]),
                                 2, sq.builtin_rule(12))
        assert [(face, type(e), str(e)) for face, e in err.value.failures] == [
            (0, DegenerateJacobian, _FOLDED)]
        with pytest.raises(DegenerateJacobian, match=re.escape(_FOLDED)):
            sq.build_element(unit_sphere, mesh.vertices[mesh.faces[5]], 2)


class TestElementDiameter:
    def test_unit_right_triangle(self):
        tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert sq.mesh_size(FlatMesh(tri, [[0, 1, 2]])) == pytest.approx(
            math.sqrt(2.0))

    def test_halves_under_bisection(self, unit_sphere):
        mesh = sq.generate_base(unit_sphere, "octa_sphere", 1)
        child = sq.bisect(mesh)
        h0 = sq.mesh_size(FlatMesh(mesh.vertices, mesh.faces[0:1]))
        h1 = sq.mesh_size(FlatMesh(child.vertices, child.faces[0:1]))
        assert h1 == pytest.approx(h0 / 2)


class TestWatertight:
    def test_shared_edge_nodes_bitwise_identical(self, unit_sphere):
        k = 4
        mesh = sq.bisect(sq.generate_base(unit_sphere, "octa_sphere", 1))
        batch = build_surface_elements(mesh, unit_sphere, k)
        # lattice (i, j) is the reference point (s, t) = (i/k, j/k); the face
        # corners 0, 1, 2 sit at lattice (0, 0), (0, k), (k, 0)
        local = {(int(i), int(j)): n
                 for n, (i, j) in enumerate(batch.basis.node_set.lattice)}
        corner = np.array([[0, 0], [0, 1], [1, 0]])
        # each face walks the k-1 nodes of every side from the smaller vertex id
        walks = {}
        for fi, face in enumerate(mesh.faces):
            nodes = batch.element_nodes(slice(fi, fi + 1))[0]
            for a, b in ((0, 1), (1, 2), (2, 0)):
                walk = [local[tuple((k - step) * corner[a] + step * corner[b])]
                        for step in range(1, k)]
                if face[a] > face[b]:
                    walk.reverse()
                key = (min(face[a], face[b]), max(face[a], face[b]))
                walks.setdefault(key, []).append(nodes[walk])
        for key, pair in walks.items():
            assert len(pair) == 2, f"edge {key} not shared by two faces"
            assert np.array_equal(pair[0], pair[1]), f"edge {key}"

    @pytest.mark.parametrize("k, count", [(1, 6), (2, 18), (3, 38)])
    def test_unique_node_sharing_counts(self, unit_sphere, k, count):
        mesh = sq.generate_base(unit_sphere, "octa_sphere", 1)
        batch = build_surface_elements(mesh, unit_sphere, k)
        # octahedron: 6 vertices + 12 edges * (k-1) + 8 faces * (k-1)(k-2)/2
        assert batch.unique_nodes.shape[0] == count

    def test_unreferenced_vertex_not_projected(self, flat_ellipsoid):
        mesh = sq.generate_base(flat_ellipsoid, "scaled_ellipsoid", 1)
        with pytest.raises(OutsideTube):
            sq.project_many(flat_ellipsoid, np.zeros((1, 3)))
        stray = FlatMesh(np.vstack([mesh.vertices, np.zeros(3)]), mesh.faces)
        base = build_surface_elements(mesh, flat_ellipsoid, 3)
        batch = build_surface_elements(stray, flat_ellipsoid, 3)
        assert len(batch.unique_nodes) == len(base.unique_nodes)
        assert np.array_equal(batch.element_nodes(), base.element_nodes())

    def test_unreferenced_vertex_not_projected_newton(self, newton_ellipsoid):
        self.test_unreferenced_vertex_not_projected(newton_ellipsoid)

    def test_traversal_order_independence(self, unit_sphere):
        mesh = sq.bisect(sq.generate_base(unit_sphere, "octa_sphere", 1))
        rule = sq.builtin_rule(12)
        f = lambda p: np.ones(p.shape[:-1])
        base = sq.integrate_surface(mesh, unit_sphere, f, 3, rule).value
        perm = np.random.default_rng(3).permutation(mesh.n_faces)
        shuffled = FlatMesh(mesh.vertices, mesh.faces[perm])
        got = sq.integrate_surface(shuffled, unit_sphere, f, 3, rule).value
        assert got == base   # correctly rounded total, bitwise equal


class TestBuildBlocks:
    """build_surface_elements fills its flat nodes and node table a block of
    edges or faces at a time."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_bits_independent_of_fill_block(self, torus21, flat_ellipsoid, k,
                                            monkeypatch, passes, newton_ellipsoid):
        cases = [(torus21, sq.generate_base(torus21, "struct_torus", 1))] + [
            (surface, sq.generate_base(surface, "scaled_ellipsoid", 1))
            for surface in (flat_ellipsoid, newton_ellipsoid)]
        whole = [build_surface_elements(mesh, surface, k) for surface, mesh in cases]
        # 32 and 8 faces: one block by default, one or two faces and two to
        # seven edges per block here
        monkeypatch.setattr(sq.blocks, "BLOCK", 7)
        passes.clear()
        for (surface, mesh), a in zip(cases, whole):
            b = build_surface_elements(mesh, surface, k)
            for x, y in ((a.node_index, b.node_index), (a.unique_nodes, b.unique_nodes)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        # the edge and face fills of every mesh each ran more than one pass
        assert len(passes["build_surface_elements"]) == 6
        assert min(passes["build_surface_elements"]) > 1

    def test_peak_memory_bounded_by_kept_arrays(self, torus21):
        # the flat nodes, projected in place, and project_many's three (n,)
        # outputs are the only full-size arrays: 2.34x the kept arrays here
        # with an int32 node table (2.1x with int64), 3.1x with a separate
        # projection output, 3.9x before the fill was blocked
        mesh = sq.generate_base(torus21, "struct_torus", 2)
        for _ in range(3):
            mesh = sq.bisect(mesh)
        sq.lagrange_basis(4)
        tracemalloc.start()
        try:
            batch = build_surface_elements(mesh, torus21, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.4 * (batch.unique_nodes.nbytes + batch.node_index.nbytes)


class TestFaceRanges:
    """A face range's build is the whole batch restricted to its faces: its
    elements' nodes are the whole batch's, bit for bit, each node once; its
    edge nodes are numbered by the range's own edge table."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_range_is_whole_batch_restricted(self, torus21, flat_ellipsoid, k,
                                             newton_ellipsoid):
        ellipsoid_mesh = sq.bisect(sq.generate_base(flat_ellipsoid, "scaled_ellipsoid", 1))
        for surface, mesh in (
                (torus21, sq.bisect(sq.generate_base(torus21, "struct_torus", 1))),
                (flat_ellipsoid, ellipsoid_mesh), (newton_ellipsoid, ellipsoid_mesh)):
            whole = build_surface_elements(mesh, surface, k)
            assert whole.node_index.dtype == np.int32
            full = build_surface_elements(mesh, surface, k, slice(0, mesh.n_faces))
            assert full.mesh is mesh
            assert full.node_index.tobytes() == whole.node_index.tobytes()
            assert full.unique_nodes.tobytes() == whole.unique_nodes.tobytes()
            for faces in (slice(0, 1), slice(5, 12), slice(17, None), slice(-3, None)):
                part = build_surface_elements(mesh, surface, k, faces)
                assert (part.element_nodes().tobytes()
                        == whole.element_nodes(faces).tobytes())
                assert len(part.unique_nodes) == len(np.unique(whole.node_index[faces]))
                assert np.array_equal(part.mesh.faces, mesh.faces[faces])
                assert part.mesh.vertices is mesh.vertices

    def test_streaming_builds_no_mesh_edge_table(self, torus21, tmp_path,
                                                 monkeypatch):
        # every range numbers its edges with the table of its own faces, so
        # neither streamed integration nor the node export keeps a mesh-wide
        # edge table on a mesh whose builds all succeed
        monkeypatch.setattr(sq.curved, "_FACE_BLOCK", 7)
        mesh = sq.bisect(sq.generate_base(torus21, "struct_torus", 1))
        assert len(sq.curved.face_blocks(mesh.n_faces)) == 19
        rule = sq.builtin_rule(12)
        for threads in (1, 2):
            sq.integrate_surface(mesh, torus21, torus21.gauss_curvature, 4, rule,
                                 threads=threads)
            assert "edges" not in vars(mesh)
        cli._write_curved_nodes(mesh, torus21, 4, tmp_path / "nodes.csv")
        assert "edges" not in vars(mesh)

    def test_rejects_strided_range(self, unit_sphere):
        mesh = sq.generate_base(unit_sphere, "octa_sphere", 1)
        with pytest.raises(ValueError, match="contiguous"):
            build_surface_elements(mesh, unit_sphere, 2, slice(0, 8, 2))

    def test_face_blocks_cover_the_mesh(self, monkeypatch):
        monkeypatch.setattr(sq.curved, "_FACE_BLOCK", 3)
        assert sq.curved.face_blocks(7) == [slice(0, 2), slice(2, 4), slice(4, 7)]
        assert sq.curved.face_blocks(0) == []


class TestStream:
    """``stream`` yields each range's task result in range order, runs every
    task, and raises the projection failures of all ranges together."""

    RANGES = [slice(0, 2), slice(2, 4), slice(4, 7), slice(7, 9)]

    @staticmethod
    def failure(face, node, outside=False):
        sub = (OutsideTube("outside", indices=[node]) if outside
               else NoConvergence(1, 0.5, indices=[node], residuals=[0.5]))
        return IntegrationError([(face, sub)])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_ranges_in_order(self, threads):
        def task(faces):
            time.sleep(0.01 * (len(self.RANGES) - faces.start // 2))  # later finish first
            return faces.stop - faces.start

        got = list(sq.curved.stream(task, self.RANGES, threads))
        assert got == [(faces, faces.stop - faces.start) for faces in self.RANGES]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_every_task_runs_after_a_failure(self, threads):
        # ranges 1 and 3 fail; node 4 fails in both and is named once, at
        # range 1's face; the failures come in node-id order
        failing = {2: self.failure(2, 9), 7: self.failure(7, 4)}
        failing[2].failures.append((3, NoConvergence(1, 0.5, indices=[4])))
        ran, yielded = [], []

        def task(faces):
            ran.append(faces)
            if faces.start in failing:
                raise failing[faces.start]
            return faces.start

        with pytest.raises(IntegrationError) as err:
            for faces, _ in sq.curved.stream(task, self.RANGES, threads):
                yielded.append(faces)
        assert sorted(ran, key=lambda s: s.start) == self.RANGES
        assert yielded == self.RANGES[:1]
        assert [(face, sub.indices) for face, sub in err.value.failures] == [
            (3, [4]), (2, [9])]
        assert err.value.__cause__ is failing[2]

    def test_outside_tube_failures_alone(self):
        failing = {0: self.failure(0, 5), 4: self.failure(4, 8, outside=True)}

        def task(faces):
            if faces.start in failing:
                raise failing[faces.start]

        with pytest.raises(IntegrationError) as err:
            list(sq.curved.stream(task, self.RANGES))
        [(face, sub)] = err.value.failures
        assert (face, sub.indices, type(sub)) == (4, [8], OutsideTube)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_other_exceptions_propagate(self, threads):
        raised = DegeneratePoint("f is not finite")

        def task(faces):
            if faces.start == 2:
                raise raised
            return faces.start

        with pytest.raises(DegeneratePoint) as err:
            list(sq.curved.stream(task, self.RANGES, threads))
        assert err.value is raised

    def test_one_range_runs_in_the_calling_thread(self):
        def task(faces):
            return threading.get_ident()

        here = threading.get_ident()
        assert [t for _, t in sq.curved.stream(task, self.RANGES[:1], 2)] == [here]
        assert [t for _, t in sq.curved.stream(task, self.RANGES, 1)] == [here] * 4
        assert here not in {t for _, t in sq.curved.stream(task, self.RANGES, 2)}

    @pytest.mark.parametrize("bad", [0, -3, True, np.True_, 2.5, "2", None])
    def test_threads_must_be_a_positive_integer(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            list(sq.curved.stream(lambda faces: None, self.RANGES, bad))


@pytest.fixture(scope="module", params=[1, 4, 10])
def kernel_chunk(request, torus21):
    """Degree-12 rule tables and a 512-element chunk of the level-2 torus."""
    mesh = sq.bisect(sq.bisect(sq.generate_base(torus21, "struct_torus", 2)))
    batch = build_surface_elements(mesh, torus21, request.param)
    return (batch.basis.tables(sq.builtin_rule(12).points),
            batch.element_nodes(slice(0, 512)))


class TestChartMetricKernel:
    # One BLAS product per element: a single GEMM over the whole chunk gives
    # an element other bits at k=10 than it gets alone.
    def test_element_bits_independent_of_chunk(self, kernel_chunk):
        tables, nodes = kernel_chunk
        chunk = _chart_metric(tables, nodes)
        perm = np.random.default_rng(5).permutation(len(nodes))
        permuted = _chart_metric(tables, nodes[perm])
        for got, out in zip(permuted, chunk):
            assert np.array_equal(got, out[perm])
        for c in range(len(nodes)):
            alone = _chart_metric(tables, nodes[c:c + 1])
            assert all(np.array_equal(a[0], out[c])
                       for a, out in zip(alone, chunk))

    def test_matches_per_element_dot(self, kernel_chunk):
        tables, nodes = kernel_chunk
        D = tables[1]
        jac = np.array([np.dot(n.T, D) for n in nodes])
        js, jt = np.split(jac, 2, axis=-1)
        det = (np.sum(js * js, axis=1) * np.sum(jt * jt, axis=1)
               - np.sum(js * jt, axis=1) ** 2)
        for got, ref in zip(_chart_metric(tables, nodes), (js, jt, det)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestChartIntegrals:
    @pytest.mark.parametrize("interp", [False, True])
    def test_element_value_bits_independent_of_chunk(self, kernel_chunk, interp):
        tables, nodes = kernel_chunk
        weights = sq.builtin_rule(12).weights
        f = lambda p: np.sin(p[..., 0]) * p[..., 2] + p[..., 1] ** 2

        def values(nodes):
            return _chart_integrals(tables, weights, nodes, f,
                                    f(nodes) if interp else None)[0]

        chunk = values(nodes)
        perm = np.random.default_rng(5).permutation(len(nodes))
        assert np.array_equal(values(nodes[perm]), chunk[perm])
        for c in range(len(nodes)):
            assert np.array_equal(values(nodes[c:c + 1]), chunk[c:c + 1])


class TestGeometricConvergence:
    def test_chart_distance_order(self, unit_sphere):
        # fixed macro element two bisections below the octant, then 4 levels;
        # max distance to the sphere decays like h^(k+1)
        tri = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        base = FlatMesh(tri, np.array([[0, 1, 2]]))
        for _ in range(2):
            base = sq.bisect(base)
        lat = [(i / 12, j / 12) for i in range(13) for j in range(13 - i)]
        sample = np.array(lat)
        for k in (1, 2, 3):
            basis = sq.lagrange_basis(k)
            mesh = base
            hs, dist = [], []
            for _ in range(4):
                worst = 0.0
                for f in mesh.faces:
                    el = sq.build_element(unit_sphere, mesh.vertices[f], k, basis)
                    pts = basis.eval(sample) @ el.projected_nodes
                    d = np.abs(unit_sphere.phi(pts)) / np.linalg.norm(
                        unit_sphere.grad_phi(pts), axis=-1)
                    worst = max(worst, float(d.max()))
                hs.append(sq.mesh_size(mesh))
                dist.append(worst)
                mesh = sq.bisect(mesh)
            slope = float(np.polyfit(np.log(hs), np.log(dist), 1)[0])
            assert abs(slope - (k + 1)) <= 0.4


class TestFailureAttribution:
    def test_projection_failures_name_faces_and_nodes(self, flat_ellipsoid,
                                                      one_iteration_projector):
        mesh = sq.bisect(sq.generate_base(flat_ellipsoid, "scaled_ellipsoid", 1))
        with pytest.raises(IntegrationError) as err:
            build_surface_elements(mesh, flat_ellipsoid, 4)
        assert err.value.failures
        face, sub = err.value.failures[0]
        assert face >= 0
        assert "node" in str(sub)

    def test_projection_failures_name_faces_and_nodes_newton(self, newton_ellipsoid,
                                                             one_iteration_projector):
        self.test_projection_failures_name_faces_and_nodes(newton_ellipsoid,
                                                           one_iteration_projector)

    def test_each_node_quotes_its_own_residual(self, flat_ellipsoid,
                                               one_iteration_projector):
        mesh = sq.bisect(sq.generate_base(flat_ellipsoid, "scaled_ellipsoid", 1))
        basis = sq.lagrange_basis(4)
        with pytest.raises(IntegrationError) as err:
            build_surface_elements(mesh, flat_ellipsoid, 4)
        residuals = []
        for face, sub in err.value.failures:
            node = int(re.search(r"node (\d+) ", str(sub)).group(1))
            flat = affine_chart_points(mesh.vertices[mesh.faces[face]],
                                       basis.nodes[node:node + 1])
            with pytest.raises(NoConvergence) as alone:
                sq.project_many(flat_ellipsoid, flat)
            # edge nodes are placed from the edge's smaller vertex, so the
            # flat point may differ from the face's affine chart in the last bit
            assert sub.residual == pytest.approx(alone.value.residual, rel=1e-9)
            assert f"residual {sub.residual:.3e}" in str(sub)
            residuals.append(sub.residual)
        assert len(set(residuals)) > 1

    def test_each_node_quotes_its_own_residual_newton(self, newton_ellipsoid,
                                                      one_iteration_projector):
        self.test_each_node_quotes_its_own_residual(newton_ellipsoid,
                                                    one_iteration_projector)

    def test_every_failing_node_at_its_first_slot(self, flat_ellipsoid,
                                                  one_iteration_projector):
        mesh = sq.bisect(sq.generate_base(flat_ellipsoid, "scaled_ellipsoid", 1))
        with pytest.raises(IntegrationError) as err:
            build_surface_elements(mesh, flat_ellipsoid, 4)
        failing = err.value.__cause__.indices
        assert len(failing) == len(err.value.failures) == failing_nodes(flat_ellipsoid)
        # the node table depends on the mesh and k alone
        index = build_surface_elements(mesh, sq.sphere(1.0), 4).node_index
        for uid, (face, sub) in zip(failing, err.value.failures):
            node = int(re.search(r"node (\d+) ", str(sub)).group(1))
            faces, locals_ = np.nonzero(index == uid)
            assert (face, node) == (faces[0], locals_[0])

    def test_every_failing_node_at_its_first_slot_newton(self, newton_ellipsoid,
                                                         one_iteration_projector):
        self.test_every_failing_node_at_its_first_slot(newton_ellipsoid,
                                                       one_iteration_projector)

    def test_message_lists_each_face_once(self, flat_ellipsoid,
                                          one_iteration_projector):
        mesh = sq.bisect(sq.generate_base(flat_ellipsoid, "scaled_ellipsoid", 1))
        with pytest.raises(IntegrationError) as err:
            build_surface_elements(mesh, flat_ellipsoid, 4)
        faces = list(dict.fromkeys(face for face, _ in err.value.failures))
        assert len(faces) < len(err.value.failures)
        shown = ", ".join(str(f) for f in faces[:10])
        assert f"faces [{shown}]" in str(err.value)
        many = IntegrationError([(f % 12, ValueError("x")) for f in range(30)])
        assert len(many.failures) == 30
        assert str(many).startswith(
            "integration failed on faces [0, 1, 2, 3, 4, 5, 6, 7, 8, 9] (+2 more): x")

    def test_message_lists_each_face_once_newton(self, newton_ellipsoid,
                                                 one_iteration_projector):
        self.test_message_lists_each_face_once(newton_ellipsoid, one_iteration_projector)

    def test_face_blocks_report_the_whole_builds_failures(
            self, flat_ellipsoid, one_iteration_projector, monkeypatch, tmp_path,
            capsys):
        mesh = sq.bisect(sq.generate_base(flat_ellipsoid, "scaled_ellipsoid", 1))
        with pytest.raises(IntegrationError) as err:
            build_surface_elements(mesh, flat_ellipsoid, 4)
        assert [sub.indices for _, sub in err.value.failures] == [
            [uid] for uid in err.value.__cause__.indices]

        def listed(failures):
            return [(face, str(sub), sub.residual, sub.indices)
                    for face, sub in failures]

        expected = listed(err.value.failures)
        assert len(expected) == failing_nodes(flat_ellipsoid)
        # 11 blocks of 2 or 3 faces: most failing nodes are shared by two blocks
        monkeypatch.setattr(sq.curved, "_FACE_BLOCK", 3)
        rule = sq.builtin_rule(12)
        for threads in (1, 2):
            with pytest.raises(IntegrationError) as streamed:
                sq.integrate_surface(mesh, flat_ellipsoid,
                                     flat_ellipsoid.gauss_curvature, 4, rule,
                                     threads=threads)
            assert listed(streamed.value.failures) == expected
        with pytest.raises(IntegrationError) as exported:
            cli._write_curved_nodes(mesh, flat_ellipsoid, 4, tmp_path / "n.csv")
        assert listed(exported.value.failures) == expected
        code = cli.main(
            f"mesh --surface ellipsoid:a=1,b=1,c=0.6 --kind scaled_ellipsoid "
            f"--res 1 --levels 1 --k 4 --out {tmp_path / 'm.off'} "
            f"--curved-nodes {tmp_path / 'n.csv'}".split())
        assert code == 1
        assert (f"({failing_nodes(flat_ellipsoid)} face/node failure(s))"
                in capsys.readouterr().err)

    def test_face_blocks_report_the_whole_builds_failures_newton(
            self, newton_ellipsoid, one_iteration_projector, monkeypatch, tmp_path,
            capsys, newton_cli):
        self.test_face_blocks_report_the_whole_builds_failures(
            newton_ellipsoid, one_iteration_projector, monkeypatch, tmp_path, capsys)

    def test_failures_numbered_by_vertex_rank(self, flat_ellipsoid,
                                              one_iteration_projector,
                                              monkeypatch, tmp_path):
        # vertex 0 is unreferenced, so every vertex's rank is its index - 1:
        # the whole build, the streamed ranges and the export name the same
        # nodes by the same ids as on the mesh without the extra vertex
        mesh = sq.bisect(sq.generate_base(flat_ellipsoid, "scaled_ellipsoid", 1))
        shifted = FlatMesh(np.vstack([[[5.0, 5.0, 5.0]], mesh.vertices]),
                           mesh.faces + 1)

        def listed(failures):
            return [(face, str(sub), sub.indices) for face, sub in failures]

        failures = []
        for m in (mesh, shifted):
            with pytest.raises(IntegrationError) as err:
                build_surface_elements(m, flat_ellipsoid, 4)
            failures.append(listed(err.value.failures))
        expected = failures[0]
        assert failures[1] == expected and len(expected) == failing_nodes(flat_ellipsoid)
        monkeypatch.setattr(sq.curved, "_FACE_BLOCK", 3)
        for threads in (1, 2):
            with pytest.raises(IntegrationError) as streamed:
                sq.integrate_surface(shifted, flat_ellipsoid,
                                     flat_ellipsoid.gauss_curvature, 4,
                                     sq.builtin_rule(12), threads=threads)
            assert listed(streamed.value.failures) == expected
        with pytest.raises(IntegrationError) as exported:
            cli._write_curved_nodes(shifted, flat_ellipsoid, 4, tmp_path / "n.csv")
        assert listed(exported.value.failures) == expected

    def test_failures_numbered_by_vertex_rank_newton(self, newton_ellipsoid,
                                                     one_iteration_projector,
                                                     monkeypatch, tmp_path):
        self.test_failures_numbered_by_vertex_rank(newton_ellipsoid,
                                                   one_iteration_projector,
                                                   monkeypatch, tmp_path)

    @pytest.mark.parametrize("surface", [sq.sphere(1.0),
                                         sq.ellipsoid(1.0, 1.0, 0.6),
                                         newton(sq.ellipsoid(1.0, 1.0, 0.6))],
                             ids=["sphere", "ellipsoid", "newton-ellipsoid"])
    def test_outside_tube_once_across_face_blocks(self, surface, monkeypatch):
        # both faces hold the k=2 node at the origin, on their shared edge
        verts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                          [0.0, 0.0, -1.0]])
        mesh = FlatMesh(verts, np.array([[0, 1, 2], [1, 0, 3]]))
        with pytest.raises(IntegrationError) as whole:
            build_surface_elements(mesh, surface, 2)
        monkeypatch.setattr(sq.curved, "_FACE_BLOCK", 1)
        with pytest.raises(IntegrationError) as streamed:
            sq.integrate_surface(mesh, surface, lambda p: np.ones(p.shape[:-1]),
                                 2, sq.builtin_rule(4))
        for err in (whole, streamed):
            [(face, sub)] = err.value.failures
            assert face == 0 and isinstance(sub, OutsideTube)
            assert "node 3" in str(sub)

    @pytest.mark.parametrize("surface", [sq.sphere(1.0),
                                         sq.ellipsoid(1.0, 1.0, 0.6),
                                         newton(sq.ellipsoid(1.0, 1.0, 0.6))],
                             ids=["sphere", "ellipsoid", "newton-ellipsoid"])
    def test_outside_tube_names_face_and_node(self, surface):
        # the k=2 node on the edge (1,0,0)-(-1,0,0) is the origin, where the
        # closed-form projections and the Newton seed are all undefined
        tri = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        mesh = FlatMesh(tri, np.array([[0, 1, 2]]))
        calls = [lambda: build_surface_elements(mesh, surface, 2),
                 lambda: sq.integrate_surface(mesh, surface,
                                              lambda p: np.ones(p.shape[:-1]),
                                              2, sq.builtin_rule(4))]
        for call in calls:
            with pytest.raises(IntegrationError) as err:
                call()
            face, sub = err.value.failures[0]
            assert face == 0
            assert isinstance(sub, OutsideTube)
            assert "node 3" in str(sub)     # first edge node, edge q1-q2

    @pytest.mark.parametrize("surface", [sq.sphere(1.0),
                                         sq.ellipsoid(1.0, 1.0, 0.6),
                                         newton(sq.ellipsoid(1.0, 1.0, 0.6))],
                             ids=["sphere", "ellipsoid", "newton-ellipsoid"])
    def test_outside_tube_in_later_block(self, surface, monkeypatch, passes):
        # unique nodes 0-2 are the vertices and the origin is an edge node
        # (3-5): in blocks of two it is projected in a later block than node 0
        monkeypatch.setattr(sq.blocks, "BLOCK", 2)
        self.test_outside_tube_names_face_and_node(surface)
        assert passes["project_many"] == [3, 3]
