import itertools
import math
import re
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import surfquad as sq
from surfquad.curved import build_surface_elements
from surfquad.errors import DegeneratePoint, IntegrationError, UnsupportedDegree
from surfquad.quad import (MODE_EXACT, MODE_INTERP, _element_values,
                           _streamed_values)
from surfquad.quadrules import _gauss_01, _verify_rule, monomial_integral
from surfquad.refmesh import FlatMesh

from conftest import newton


def plane_surface():
    return sq.from_level_set(
        phi=lambda p: np.asarray(p, dtype=float)[..., 2],
        grad_phi=lambda p: np.broadcast_to(
            np.array([0.0, 0.0, 1.0]), np.asarray(p).shape).copy(),
        analytic_project=lambda p: np.asarray(p, dtype=float) * [1.0, 1.0, 0.0],
        name="plane")


class TestBuiltinRules:
    def test_degree_1_is_centroid(self):
        rule = sq.builtin_rule(1)
        assert np.allclose(rule.points, [[1 / 3, 1 / 3]])
        assert np.allclose(rule.weights, [0.5])

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_monomial_exactness_sweep(self, degree):
        rule = sq.builtin_rule(degree)
        s, t = rule.points[:, 0], rule.points[:, 1]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                got = float(rule.weights @ (s**a * t**b))
                assert abs(got - monomial_integral(a, b)) <= 1e-13, (a, b)

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_weights_positive_points_interior(self, degree):
        rule = sq.builtin_rule(degree)
        assert np.all(rule.weights > 0)
        s, t = rule.points[:, 0], rule.points[:, 1]
        assert np.all(s > 0) and np.all(t > 0) and np.all(s + t < 1)
        assert abs(rule.weights.sum() - 0.5) <= 1e-14

    def test_degree12_mixed_monomial(self):
        # int s^5 t^7 = 5! 7! / 14!
        rule = sq.builtin_rule(12)
        got = float(rule.weights @ (rule.points[:, 0]**5 * rule.points[:, 1]**7))
        want = 604800.0 / 87178291200.0
        assert abs(got - want) <= 1e-13
        assert want == pytest.approx(6.9374e-6, rel=1e-4)

    def test_degree12_not_exact_beyond_sharpness(self):
        # the degree-12 slot holds a 39-point rule exact through degree 13;
        # inexactness shows at 14
        rule = sq.builtin_rule(12)
        got13 = float(rule.weights @ rule.points[:, 0]**13)
        assert abs(got13 - monomial_integral(13, 0)) <= 1e-13
        got14 = float(rule.weights @ rule.points[:, 0]**14)
        assert abs(got14 - monomial_integral(14, 0)) > 1e-13

    @pytest.mark.parametrize("bad", [0, 13, -1, 12.0, True])
    def test_unsupported_degree(self, bad):
        # cached int keys must not admit the float 12.0 or the bool True
        sq.builtin_rule(12)
        sq.builtin_rule(1)
        with pytest.raises(UnsupportedDegree):
            sq.builtin_rule(bad)


POINT_COUNTS = (1, 3, 6, 6, 7, 12, 15, 16, 19, 25, 30, 39)


class TestRuleStructure:
    @pytest.mark.parametrize("degree", range(1, 13))
    def test_fully_symmetric_compact_and_reproducible(self, degree):
        rule = sq.builtin_rule(degree)
        n = len(rule.weights)
        assert n == POINT_COUNTS[degree - 1]
        s, t = rule.points[:, 0], rule.points[:, 1]
        lam = np.column_stack([1.0 - s - t, t, s])
        for perm in itertools.permutations(range(3)):
            moved = lam[:, perm][:, [2, 1]]
            dist = np.abs(moved[:, None, :] - rule.points[None]).max(axis=2)
            match = dist.argmin(axis=1)
            assert sorted(match) == list(range(n)), perm
            assert dist[range(n), match].max() <= 1e-15, perm
            assert np.abs(rule.weights[match] - rule.weights).max() <= 1e-15
        sq.builtin_rule.cache_clear()
        again = sq.builtin_rule(degree)
        assert again is not rule
        assert again.points.tobytes() == rule.points.tobytes()
        assert again.weights.tobytes() == rule.weights.tobytes()

    def test_oracle_rejects_small_relative_moment_errors(self):
        # a conical Gauss product exact through degree 19, with its weights
        # moved orthogonally to every monomial of degree <= 11 so that
        # s^6 t^6 is off by 1e-10 relative: every moment error stays below
        # an absolute 1e-13, the way a stalled polish would leave it
        u, wu = _gauss_01(10, 1)
        v, wv = _gauss_01(10, 0)
        s = np.repeat(u, 10)
        t = np.tile(v, 10) * (1.0 - s)
        low = np.column_stack([s**a * t**b for a in range(12)
                               for b in range(12 - a)])
        bump = (s * t)**6 - low @ np.linalg.lstsq(low, (s * t)**6, rcond=None)[0]
        eps = 1e-10 * monomial_integral(6, 6) / float(bump @ (s * t)**6)
        rule = sq.QuadratureRule(degree=12, points=np.column_stack([s, t]),
                                 weights=np.outer(wu, wv).ravel() + eps * bump)
        moment = lambda a, b: float(rule.weights @ (s**a * t**b))
        assert moment(6, 6) == pytest.approx(monomial_integral(6, 6) * (1 + 1e-10),
                                             rel=1e-13)
        assert max(abs(moment(a, b) - monomial_integral(a, b))
                   for a in range(13) for b in range(13 - a)) <= 1e-13
        with pytest.raises(AssertionError, match="degree-12 rule fails on s"):
            _verify_rule(rule)

    def test_oracle_rejects_nan(self):
        rule = sq.builtin_rule(4)
        weights = rule.weights.copy()
        weights[0] = np.nan
        with pytest.raises(AssertionError, match="fails on s"):
            _verify_rule(sq.QuadratureRule(4, rule.points, weights))


class TestComputedRules:
    @pytest.mark.parametrize("alpha", [0, 1])
    @pytest.mark.parametrize("m", range(1, 8))
    def test_gauss_01_exact_through_2m_minus_1(self, m, alpha):
        u, w = _gauss_01(m, alpha)
        assert len(u) == len(w) == m

        def rel_err(j):
            # int_0^1 u^j (1-u)^alpha du = j! alpha! / (j + alpha + 1)!
            exact = (math.factorial(j) * math.factorial(alpha)
                     / math.factorial(j + alpha + 1))
            return abs(float(w @ u**j) - exact) / exact

        for j in range(2 * m):
            assert rel_err(j) <= 16 * np.finfo(float).eps, j
        assert rel_err(2 * m) > 1e-8

    def test_degree12_moments_in_exact_arithmetic(self):
        # the stored floats summed without rounding: only the rule's own
        # data error remains, a few ulps when the polish has converged
        rule = sq.builtin_rule(12)
        s, t, w = ([Fraction(float(x)) for x in col]
                   for col in (rule.points[:, 0], rule.points[:, 1], rule.weights))
        worst = 0.0
        for a in range(14):
            for b in range(14 - a):
                exact = Fraction(math.factorial(a) * math.factorial(b),
                                 math.factorial(a + b + 2))
                got = sum(wi * si**a * ti**b for wi, si, ti in zip(w, s, t))
                worst = max(worst, float(abs(got - exact) / exact))
        assert worst <= 1e-15


def one_face(tri):
    """The one-face mesh of a (3, 3) triangle: a single element."""
    return FlatMesh(tri, [[0, 1, 2]])


class TestIntegrateElement:
    def test_constant_over_flat_unit_right_triangle(self):
        surf = plane_surface()
        tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        got = sq.integrate_surface(one_face(tri), surf,
                                   lambda p: np.ones(p.shape[:-1]), 1,
                                   sq.builtin_rule(4), mode=MODE_EXACT).value
        assert got == pytest.approx(0.5, rel=1e-14)

    def test_modes_agree_for_affine_integrand_flat_element(self):
        surf = plane_surface()
        tri = np.array([[0.2, -0.1, 0.0], [1.3, 0.4, 0.0], [0.5, 1.1, 0.0]])
        f = lambda p: 2.0 * p[..., 0] - 3.0 * p[..., 1] + 0.5
        rule = sq.builtin_rule(8)
        exact, interp = (sq.integrate_surface(one_face(tri), surf, f, 2, rule,
                                              mode=mode).value
                         for mode in (MODE_EXACT, MODE_INTERP))
        assert interp == pytest.approx(exact, abs=1e-12)

    def test_interp_samples_only_projected_nodes(self, unit_sphere):
        # integrand defined strictly on the surface: blows up off it
        tri = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

        def on_surface_only(p):
            r = np.linalg.norm(p, axis=-1)
            assert np.max(np.abs(r - 1.0)) < 1e-9
            return np.ones(p.shape[:-1])

        sq.integrate_surface(one_face(tri), unit_sphere, on_surface_only, 3,
                             sq.builtin_rule(12), mode=MODE_INTERP)

    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_INTERP])
    def test_element_sum_matches_surface_integral(self, torus21, mode):
        # the total is the correctly rounded sum of the per-element values,
        # each that of the face taken alone
        rule = sq.builtin_rule(12)
        f = torus21.gauss_curvature
        mesh = sq.generate_base(torus21, "struct_torus", 1)
        for k, m in ((3, mesh), (2, sq.bisect(mesh))):
            per_element = [
                sq.integrate_surface(FlatMesh(m.vertices, m.faces[i:i + 1]),
                                     torus21, f, k, rule, mode=mode).value
                for i in range(m.n_faces)]
            batch = build_surface_elements(m, torus21, k)
            total = sq.integrate_surface(m, torus21, f, k, rule, mode=mode,
                                         batch=batch).value
            assert total == math.fsum(per_element), k

    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_INTERP])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_element_integral_names_faces(self, unit_sphere, mode,
                                                     bad):
        # f is `bad` near the north pole and `-bad` near the south pole
        mesh = sq.bisect(sq.generate_base(unit_sphere, "octa_sphere", 1))
        batch = build_surface_elements(mesh, unit_sphere, 2)
        polar = np.any(np.abs(batch.element_nodes()[..., 2]) == 1.0, axis=1)
        assert 0 < polar.sum() < batch.n_elements

        def f(p):
            z = p[..., 2]
            return np.where(z > 0.9, bad, np.where(z < -0.9, -bad, 1.0))

        rule = sq.builtin_rule(12)
        with pytest.raises(IntegrationError) as err:
            sq.integrate_surface(mesh, unit_sphere, f, 2, rule, mode=mode,
                                 batch=batch)
        assert [face for face, _ in err.value.failures] == list(
            np.flatnonzero(polar))
        assert all(isinstance(e, DegeneratePoint) for _, e in err.value.failures)
        for i in range(batch.n_elements):
            alone = FlatMesh(mesh.vertices, mesh.faces[i:i + 1])
            if polar[i]:
                with pytest.raises(IntegrationError) as err:
                    sq.integrate_surface(alone, unit_sphere, f, 2, rule, mode=mode)
                assert [(face, type(e)) for face, e in err.value.failures] == [
                    (0, DegeneratePoint)]
            else:
                assert math.isfinite(sq.integrate_surface(
                    alone, unit_sphere, f, 2, rule, mode=mode).value)


class TestIntegrateSurface:
    def test_sphere_area_k2(self, unit_sphere):
        mesh = sq.generate_base(unit_sphere, "octa_sphere", 1)
        for _ in range(3):
            mesh = sq.bisect(mesh)
        res = sq.integrate_surface(mesh, unit_sphere,
                                   lambda p: np.ones(p.shape[:-1]), 2,
                                   sq.builtin_rule(12))
        assert res.n_elements == 512
        assert res.value == pytest.approx(4 * math.pi, rel=5e-5)

    def test_sphere_area_k4_tight(self, unit_sphere):
        mesh = sq.generate_base(unit_sphere, "octa_sphere", 3)
        for _ in range(3):
            mesh = sq.bisect(mesh)
        res = sq.integrate_surface(mesh, unit_sphere,
                                   lambda p: np.ones(p.shape[:-1]), 4,
                                   sq.builtin_rule(12))
        assert res.value == pytest.approx(4 * math.pi, rel=1e-9)

    def test_torus_area_k2(self, torus21):
        mesh = sq.generate_base(torus21, "struct_torus", 2)
        for _ in range(3):
            mesh = sq.bisect(mesh)
        res = sq.integrate_surface(mesh, torus21,
                                   lambda p: np.ones(p.shape[:-1]), 2,
                                   sq.builtin_rule(12))
        assert res.value == pytest.approx(8 * math.pi**2, rel=1e-6)

    def test_torus_curvature_integral_vanishes(self, torus21):
        mesh = sq.generate_base(torus21, "struct_torus", 2)
        levels = []
        for _ in range(3):
            mesh = sq.bisect(mesh)
            levels.append(abs(sq.integrate_surface(
                mesh, torus21, torus21.gauss_curvature, 2,
                sq.builtin_rule(12)).value))
        assert levels[-1] < 1e-4
        assert levels[2] < levels[1] < levels[0]

    def test_ellipsoid_gauss_bonnet(self, flat_ellipsoid):
        # base res 4: the stretched res-1 octa mesh is still preasymptotic
        # at level 3 for this surface
        mesh = sq.generate_base(flat_ellipsoid, "scaled_ellipsoid", 4)
        for _ in range(3):
            mesh = sq.bisect(mesh)
        res = sq.integrate_surface(mesh, flat_ellipsoid,
                                   flat_ellipsoid.gauss_curvature, 2,
                                   sq.builtin_rule(12))
        assert res.value == pytest.approx(4 * math.pi, abs=1e-5)

    def test_area_errors_decrease_monotonically(self, unit_sphere):
        mesh = sq.generate_base(unit_sphere, "octa_sphere", 1)
        errors = []
        for _ in range(4):
            v = sq.integrate_surface(mesh, unit_sphere,
                                     lambda p: np.ones(p.shape[:-1]), 2,
                                     sq.builtin_rule(12)).value
            errors.append(abs(v - 4 * math.pi))
            mesh = sq.bisect(mesh)
        assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))

    def test_threads_bit_identical(self, torus21):
        mesh = sq.bisect(sq.generate_base(torus21, "struct_torus", 1))
        rule = sq.builtin_rule(12)
        vals = [sq.integrate_surface(mesh, torus21, torus21.gauss_curvature,
                                     3, rule, threads=n).value
                for n in (1, 2, 4)]
        assert vals[0] == vals[1] == vals[2]

    def test_threads_must_be_a_positive_integer(self, torus21, monkeypatch):
        # 0, -3, True and 2.5 used to give the one-thread value and "2" a
        # bare TypeError, streamed or with a given batch
        monkeypatch.setattr(sq.curved, "_FACE_BLOCK", 64)
        mesh = sq.bisect(sq.generate_base(torus21, "struct_torus", 1))
        rule = sq.builtin_rule(12)
        f = torus21.gauss_curvature
        batch = build_surface_elements(mesh, torus21, 2)
        for bad in (0, -3, True, np.True_, 2.5, "2"):
            for given in (None, batch):
                with pytest.raises(ValueError, match=re.escape(repr(bad))):
                    sq.integrate_surface(mesh, torus21, f, 2, rule, threads=bad,
                                         batch=given)
        value = sq.integrate_surface(mesh, torus21, f, 2, rule).value
        for good in (np.int64(2), np.int32(3)):
            assert sq.integrate_surface(mesh, torus21, f, 2, rule,
                                        threads=good).value == value

    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_INTERP])
    def test_traversal_order_independence_six_faces(self, unit_sphere, mode):
        # 6 faces leave a chunk whose length is not a multiple of 4; one BLAS
        # matrix-vector product over the chunk sums its last rows in another
        # order, which would make the total depend on which faces come last
        v = np.array([[1.0, 0.0, 0.0], [-0.5, math.sqrt(0.75), 0.0],
                      [-0.5, -math.sqrt(0.75), 0.0], [0.0, 0.0, 1.0],
                      [0.0, 0.0, -1.0]])
        faces = np.array([[0, 1, 3], [1, 2, 3], [2, 0, 3],
                          [1, 0, 4], [2, 1, 4], [0, 2, 4]])
        rule = sq.builtin_rule(12)
        f = lambda p: np.ones(p.shape[:-1])
        perms = [np.random.default_rng(seed).permutation(6) for seed in range(8)]
        for k in (2, 3, 4):
            vals = {sq.integrate_surface(FlatMesh(v, faces[perm]), unit_sphere,
                                         f, k, rule, mode=mode).value
                    for perm in perms}
            assert len(vals) == 1, k

    def test_interp_mode_forms_no_chart_points(self, unit_sphere, monkeypatch):
        def chart_points(tables, nodes):
            raise AssertionError("chart points formed")

        monkeypatch.setattr(sq.quad, "_chart_points", chart_points)
        monkeypatch.setattr(sq.curved, "_chart_points", chart_points)
        mesh = sq.generate_base(unit_sphere, "octa_sphere", 1)
        f = lambda p: np.ones(p.shape[:-1])
        rule = sq.builtin_rule(12)
        sq.integrate_surface(mesh, unit_sphere, f, 2, rule, mode=MODE_INTERP)
        with pytest.raises(AssertionError, match="chart points formed"):
            sq.integrate_surface(mesh, unit_sphere, f, 2, rule, mode=MODE_EXACT)

    def test_failure_aggregation(self, flat_ellipsoid, one_iteration_projector):
        mesh = sq.generate_base(flat_ellipsoid, "scaled_ellipsoid", 1)
        with pytest.raises(IntegrationError) as err:
            sq.integrate_surface(mesh, flat_ellipsoid,
                                 lambda p: np.ones(p.shape[:-1]), 4,
                                 sq.builtin_rule(12))
        assert all(face >= 0 for face, _ in err.value.failures)

    def test_failure_aggregation_newton(self, newton_ellipsoid, one_iteration_projector):
        self.test_failure_aggregation(newton_ellipsoid, one_iteration_projector)

    def test_batch_must_match_mesh_and_k(self, unit_sphere):
        base = sq.generate_base(unit_sphere, "octa_sphere", 1)
        mesh = sq.bisect(base)
        f = lambda p: np.ones(p.shape[:-1])
        rule = sq.builtin_rule(12)
        batch = build_surface_elements(mesh, unit_sphere, 4)
        for m, k in ((mesh, 2), (base, 4), (sq.bisect(base), 4)):
            with pytest.raises(ValueError):
                sq.integrate_surface(m, unit_sphere, f, k, rule, batch=batch)
        given = sq.integrate_surface(mesh, unit_sphere, f, 4, rule, batch=batch)
        assert given == sq.integrate_surface(mesh, unit_sphere, f, 4, rule)

    def test_one_range_runs_in_the_calling_thread(self, unit_sphere):
        # a given batch is the one range, as is a mesh of fewer than 2,048
        # faces: no pool starts for either, whatever ``threads``
        mesh = sq.bisect(sq.generate_base(unit_sphere, "octa_sphere", 1))
        seen = set()

        def f(p):
            seen.add(threading.get_ident())
            return np.ones(p.shape[:-1])

        rule = sq.builtin_rule(12)
        for mode in (MODE_EXACT, MODE_INTERP):
            for batch in (build_surface_elements(mesh, unit_sphere, 4), None):
                sq.integrate_surface(mesh, unit_sphere, f, 4, rule, mode=mode,
                                     threads=2, batch=batch)
        assert seen == {threading.get_ident()}

    def test_unknown_mode(self, unit_sphere):
        mesh = sq.generate_base(unit_sphere, "octa_sphere", 1)
        with pytest.raises(ValueError):
            sq.integrate_surface(mesh, unit_sphere,
                                 lambda p: np.ones(p.shape[:-1]), 1,
                                 sq.builtin_rule(4), mode="nope")



class TestStreamedIntegration:
    """Without a batch, integrate_surface builds, projects and integrates one
    face block per task; every element value is that of one whole batch."""

    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_INTERP])
    @pytest.mark.parametrize("surface, kind, levels", [
        (sq.torus(2.0, 1.0), "struct_torus", 1),
        (sq.ellipsoid(1.0, 1.0, 0.6), "scaled_ellipsoid", 2),
        (newton(sq.ellipsoid(1.0, 1.0, 0.6)), "scaled_ellipsoid", 2)],
        ids=["torus", "ellipsoid", "newton-ellipsoid"])
    def test_element_values_bitwise_across_blocks(self, surface, kind, levels,
                                                  mode, monkeypatch):
        mesh = sq.generate_base(surface, kind, 1)
        for _ in range(levels):
            mesh = sq.bisect(mesh)     # 128 faces
        rule = sq.builtin_rule(12)
        f = surface.gauss_curvature
        for k in (1, 4):
            whole, failures = _element_values(build_surface_elements(mesh, surface, k),
                                              rule, mode, f, surface)
            assert failures == []
            # 19 blocks of 6 or 7 faces, and one block
            for block in (7, 1 << 30):
                monkeypatch.setattr(sq.curved, "_FACE_BLOCK", block)
                for threads in (1, 2):
                    got = _streamed_values(mesh, surface, f, k, rule, mode, threads)
                    assert got.tobytes() == whole.tobytes(), (k, block, threads)
                    total = sq.integrate_surface(mesh, surface, f, k, rule, mode=mode,
                                                 threads=threads)
                    assert total.value == math.fsum(whole.tolist())
                    assert total.n_elements == mesh.n_faces

    def test_peak_memory_flat_in_level(self, torus21):
        # Every block numbers its edges with its own faces' table, so a call
        # peaks at one 2,048-face block and the (F,) element values: 2.9 MB
        # at level 3 (4 blocks) and 3.1 MB at level 4 (16 blocks), also on a
        # mesh's first call.  A whole batch peaks at 5.4 and 18.6 MB.
        rule = sq.builtin_rule(12)
        mesh = sq.generate_base(torus21, "struct_torus", 2)
        for _ in range(3):
            mesh = sq.bisect(mesh)
        peaks = []
        for _ in range(2):
            sq.integrate_surface(mesh, torus21, torus21.gauss_curvature, 4, rule)
            tracemalloc.start()
            try:
                sq.integrate_surface(mesh, torus21, torus21.gauss_curvature, 4, rule)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            mesh = sq.bisect(mesh)
        assert peaks[1] < 1.25 * peaks[0]
