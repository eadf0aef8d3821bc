import math
from fractions import Fraction

import numpy as np
import pytest

import surfquad as sq
from surfquad.curved import build_surface_elements
from surfquad.errors import DegeneratePoint, IntegrationError, UnsupportedDegree
from surfquad.quad import MODE_EXACT, MODE_INTERP, monomial_integral
from surfquad.quadrules import _gauss_01
from surfquad.refmesh import FlatMesh


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
        # the embedded degree-12 rule is a symmetrized Gauss product and so
        # carries the family's odd bonus degree (13); inexactness shows at 14
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
        # data error remains, a few ulps when the Gauss data is correct
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


class TestIntegrateElement:
    def test_constant_over_flat_unit_right_triangle(self):
        surf = plane_surface()
        tri = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        el = sq.build_element(surf, tri, 1)
        got = sq.integrate_element(el, lambda p: np.ones(p.shape[:-1]),
                                   sq.builtin_rule(4))
        assert got == pytest.approx(0.5, rel=1e-14)

    def test_modes_agree_for_affine_integrand_flat_element(self):
        surf = plane_surface()
        tri = np.array([[0.2, -0.1, 0.0], [1.3, 0.4, 0.0], [0.5, 1.1, 0.0]])
        el = sq.build_element(surf, tri, 2)
        f = lambda p: 2.0 * p[..., 0] - 3.0 * p[..., 1] + 0.5
        rule = sq.builtin_rule(8)
        exact = sq.integrate_element(el, f, rule, mode=MODE_EXACT)
        interp = sq.integrate_element(el, f, rule, mode=MODE_INTERP)
        assert interp == pytest.approx(exact, abs=1e-12)

    def test_interp_samples_only_projected_nodes(self, unit_sphere):
        # integrand defined strictly on the surface: blows up off it
        tri = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        el = sq.build_element(unit_sphere, tri, 3)

        def on_surface_only(p):
            r = np.linalg.norm(p, axis=-1)
            assert np.max(np.abs(r - 1.0)) < 1e-9
            return np.ones(p.shape[:-1])

        sq.integrate_element(el, on_surface_only, sq.builtin_rule(12),
                             mode=MODE_INTERP)


    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_INTERP])
    def test_element_sum_matches_surface_integral(self, torus21, mode):
        # the total is the correctly rounded sum of the per-element values
        rule = sq.builtin_rule(12)
        f = torus21.gauss_curvature
        mesh = sq.generate_base(torus21, "struct_torus", 1)
        for k, m in ((3, mesh), (2, sq.bisect(mesh))):
            batch = build_surface_elements(m, torus21, k)
            per_element = [sq.integrate_element(batch.element(i), f, rule,
                                                mode=mode)
                           for i in range(batch.n_elements)]
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
            if polar[i]:
                with pytest.raises(DegeneratePoint):
                    sq.integrate_element(batch.element(i), f, rule, mode=mode)
            else:
                assert math.isfinite(
                    sq.integrate_element(batch.element(i), f, rule, mode=mode))


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

    def test_failure_aggregation(self, flat_ellipsoid, one_iteration_projector):
        mesh = sq.generate_base(flat_ellipsoid, "scaled_ellipsoid", 1)
        with pytest.raises(IntegrationError) as err:
            sq.integrate_surface(mesh, flat_ellipsoid,
                                 lambda p: np.ones(p.shape[:-1]), 4,
                                 sq.builtin_rule(12))
        assert all(face >= 0 for face, _ in err.value.failures)

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

    def test_unknown_mode(self, unit_sphere):
        mesh = sq.generate_base(unit_sphere, "octa_sphere", 1)
        with pytest.raises(ValueError):
            sq.integrate_surface(mesh, unit_sphere,
                                 lambda p: np.ones(p.shape[:-1]), 1,
                                 sq.builtin_rule(4), mode="nope")

