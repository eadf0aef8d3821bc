import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import surfquad as sq
from surfquad import study
from surfquad.errors import DegeneratePoint, NoConvergence, OutsideTube

from conftest import torus_points


class TestProjection:
    def test_sphere_radial(self, unit_sphere):
        res = sq.project(unit_sphere, [2.0, 0.0, 0.0])
        assert np.allclose(res.point, [1.0, 0.0, 0.0])
        assert res.distance == pytest.approx(1.0)

    def test_torus_major_plane(self, torus21):
        res = sq.project(torus21, [3.5, 0.0, 0.0])
        assert np.allclose(res.point, [3.0, 0.0, 0.0])
        assert res.distance == pytest.approx(0.5)

    def test_ellipsoid_axis_point(self):
        e = sq.ellipsoid(2.0, 1.0, 1.0)
        res = sq.project(e, [3.0, 0.0, 0.0])
        assert np.allclose(res.point, [2.0, 0.0, 0.0], atol=1e-12)

    def test_generic_newton_matches_analytic_sphere(self):
        gen = sq.from_level_set(
            phi=lambda p: np.einsum("...i,...i->...", p, p) - 1.0,
            grad_phi=lambda p: 2.0 * np.asarray(p, dtype=float))
        x = np.array([0.3, 0.4, 0.5])
        res = sq.project(gen, x)
        assert np.linalg.norm(res.point - x / np.linalg.norm(x)) <= 1e-12

    def test_signed_distance_inside_negative(self, unit_sphere):
        res = sq.project(unit_sphere, [0.25, 0.0, 0.0])
        assert res.distance == pytest.approx(-0.75)

    def test_idempotence(self, torus21, rng):
        for _ in range(20):
            x = sq.project(torus21, rng.normal(size=3) + [2.5, 0, 0]).point
            again = sq.project(torus21, x)
            assert np.linalg.norm(again.point - x) <= 10 * 1e-13

    def test_newton_idempotence(self, flat_ellipsoid, rng):
        for _ in range(10):
            seed = rng.normal(size=3) * 0.1 + [1.0, 0.1, 0.1]
            x = sq.project(flat_ellipsoid, seed).point
            again = sq.project(flat_ellipsoid, x)
            assert np.linalg.norm(again.point - x) <= 10 * 1e-13

    def test_minimality_against_dense_sample(self, torus21, rng):
        # brute-force oracle: no sampled surface point may be closer
        sample = torus_points(2.0, 1.0, 100, 100)
        for _ in range(10):
            x = rng.normal(size=3) * 0.3 + [2.8, 0.3, 0.2]
            res = sq.project(torus21, x)
            dmin = np.min(np.linalg.norm(sample - x, axis=1))
            assert np.linalg.norm(res.point - x) <= dmin + 1e-9

    def test_normal_alignment(self, flat_ellipsoid, rng):
        # sin of the angle via the cross product; acos cannot resolve < 1.5e-8
        for _ in range(20):
            x = rng.normal(size=3) * 0.2 + [0.9, 0.2, 0.1]
            res = sq.project(flat_ellipsoid, x)
            if abs(res.distance) <= 1e-6:
                continue
            v = x - res.point
            g = flat_ellipsoid.grad_phi(res.point)
            sinang = np.linalg.norm(np.cross(v, g)) / (
                np.linalg.norm(v) * np.linalg.norm(g))
            assert sinang < 1e-8

    def test_residual_on_surface(self, flat_ellipsoid, rng):
        pts = rng.normal(size=(50, 3)) * 0.15 + [0.8, 0.2, 0.1]
        proj, _, _, _ = sq.project_many(flat_ellipsoid, pts)
        assert np.max(np.abs(flat_ellipsoid.phi(proj))) < 1e-12

    def test_outside_tube_center(self, unit_sphere):
        with pytest.raises(OutsideTube):
            sq.project(unit_sphere, [0.0, 0.0, 0.0])

    def test_outside_tube_torus_axis(self, torus21):
        with pytest.raises(OutsideTube):
            sq.project(torus21, [0.0, 0.0, 0.5])

    def test_no_convergence_budget(self, flat_ellipsoid):
        with pytest.raises(NoConvergence) as err:
            sq.project(flat_ellipsoid, [0.9, 0.4, 0.3], max_iter=1)
        assert err.value.iterations <= 1
        assert err.value.residual > 0

    def test_non_finite_step_stays_put(self, flat_ellipsoid):
        # a NaN Newton step never improves the residual: the point keeps its
        # last iterate and fails, instead of returning NaN as converged
        def hess(p):
            h = np.array(flat_ellipsoid.hess_phi(p))
            h[..., 0, 0] = np.nan
            return h
        broken = sq.from_level_set(flat_ellipsoid.phi, flat_ellipsoid.grad_phi,
                                   hess_phi=hess)
        with pytest.raises(NoConvergence) as err:
            sq.project_many(broken, [[1.2, 0.3, 0.2], [1.0, 0.0, 0.0]])
        assert err.value.indices == [0]
        assert math.isfinite(err.value.residual)

    def test_tol_validation(self, unit_sphere):
        # a NaN or infinite tolerance would accept the Newton seed as is
        for tol in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                sq.project(unit_sphere, [2.0, 0.0, 0.0], tol=tol)


def shell_points(surface, n, rng, lo=0.8, hi=1.2):
    """n points at radial scale lo..hi about the ellipsoid/sphere surface."""
    dirs = rng.normal(size=(n, 3))
    on = dirs / np.sqrt(surface.phi(dirs) + 1.0)[:, None]
    return on * rng.uniform(lo, hi, size=(n, 1))


class TestProjectionBlocks:
    """project_many works in blocks of surfaces._BLOCK points."""

    B = 5

    @pytest.mark.parametrize("name", ["ellipsoid", "torus", "sphere"])
    @pytest.mark.parametrize("n", [B - 1, B, B + 1])
    def test_bits_independent_of_block(self, name, n, rng, monkeypatch):
        if name == "torus":
            surface = sq.torus(2.0, 1.0)
            pts = torus_points(2.0, 1.0, 7, 5)[:n] * rng.uniform(0.9, 1.1, (n, 1))
        else:
            surface = (sq.ellipsoid(1.0, 1.0, 0.6) if name == "ellipsoid"
                       else sq.sphere(1.0))
            pts = shell_points(surface, n, rng)
        whole = sq.project_many(surface, pts)
        monkeypatch.setattr(sq.surfaces, "_BLOCK", self.B)
        blocked = sq.project_many(surface, pts)
        for a, b in zip(whole, blocked):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        if name == "ellipsoid":
            assert len(set(whole[2].tolist())) > 1    # Newton, varied iteration counts

    def test_no_convergence_names_points_across_blocks(self, flat_ellipsoid, rng,
                                                       monkeypatch):
        # on-surface points converge without a step; far ones fail in one step,
        # the worst of them in the second block
        pts = shell_points(flat_ellipsoid, 2 * self.B, rng, 1.0, 1.0)
        far = [1, 3, 7, 8]
        pts[far] *= [[1.3], [1.4], [1.5], [1.9]]
        with pytest.raises(NoConvergence) as whole:
            sq.project_many(flat_ellipsoid, pts, max_iter=1)
        monkeypatch.setattr(sq.surfaces, "_BLOCK", self.B)
        with pytest.raises(NoConvergence) as blocked:
            sq.project_many(flat_ellipsoid, pts, max_iter=1)
        assert whole.value.indices == blocked.value.indices == far
        assert blocked.value.residual == whole.value.residual
        assert blocked.value.iterations == whole.value.iterations == 1
        alone = []
        for i in far:
            with pytest.raises(NoConvergence) as err:
                sq.project_many(flat_ellipsoid, pts[i], max_iter=1)
            alone.append(err.value.residual)
        assert far[int(np.argmax(alone))] >= self.B
        assert blocked.value.residual == max(alone)
        assert blocked.value.residuals == whole.value.residuals == alone

    @pytest.mark.parametrize("surface", [sq.sphere(1.0), sq.ellipsoid(1.0, 1.0, 0.6)],
                             ids=["sphere", "ellipsoid"])
    def test_outside_tube_names_points_across_blocks(self, surface, rng, monkeypatch):
        # the center: closed form and Newton seed are both undefined there
        pts = shell_points(surface, 3 * self.B, rng)
        pts[[2, 11]] = 0.0
        monkeypatch.setattr(sq.surfaces, "_BLOCK", self.B)
        with pytest.raises(OutsideTube) as err:
            sq.project_many(surface, pts)
        assert err.value.indices == [2, 11]

    def test_peak_memory_bounded_by_outputs(self, flat_ellipsoid, rng):
        # temporaries are sized by a block, not by the batch (~700 B a point)
        pts = shell_points(flat_ellipsoid, 100_000, rng, 1.01, 1.01)
        tracemalloc.start()
        try:
            out = sq.project_many(flat_ellipsoid, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * sum(a.nbytes for a in out)


class TestCurvature:
    def test_sphere(self):
        s2 = sq.sphere(2.0)
        for p in ([2, 0, 0], [0, 0, 2], [0, -2, 0]):
            assert sq.gauss_curvature_at(s2, p) == pytest.approx(0.25)

    def test_torus_outer_equator(self, torus21):
        # cos(0) / (r (R + r)) = 1/3 for R=2, r=1
        assert sq.gauss_curvature_at(torus21, [3.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)

    def test_torus_inner_equator_negative(self, torus21):
        assert sq.gauss_curvature_at(torus21, [1.0, 0.0, 0.0]) == pytest.approx(-1.0)

    def test_unit_ellipsoid_reduces_to_sphere(self):
        e = sq.ellipsoid(1.0, 1.0, 1.0)
        assert sq.gauss_curvature_at(e, [1.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_torus_axis_degenerate(self, torus21):
        with pytest.raises(DegeneratePoint):
            sq.gauss_curvature_at(torus21, [0.0, 0.0, 1.0])

    def test_gauss_bonnet_parametric_torus(self, torus21):
        # 2D parametric quadrature oracle: int K dS = int cos(theta) dtheta dphi = 0
        n = 256
        theta = (np.arange(n) + 0.5) * 2 * np.pi / n
        phi = (np.arange(n) + 0.5) * 2 * np.pi / n
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        R, r = 2.0, 1.0
        pts = np.stack([(R + r * np.cos(tt)) * np.cos(pp),
                        (R + r * np.cos(tt)) * np.sin(pp),
                        r * np.sin(tt)], axis=-1)
        K = torus21.gauss_curvature(pts.reshape(-1, 3)).reshape(n, n)
        dS = r * (R + r * np.cos(tt))
        total = float(np.sum(K * dS)) * (2 * np.pi / n) ** 2
        assert abs(total) < 1e-10

    def test_gauss_bonnet_parametric_sphere(self, unit_sphere):
        n = 512
        theta = (np.arange(n) + 0.5) * np.pi / n    # polar angle
        phi = (np.arange(n) + 0.5) * 2 * np.pi / n
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        pts = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp),
                        np.cos(tt)], axis=-1)
        K = unit_sphere.gauss_curvature(pts.reshape(-1, 3)).reshape(n, n)
        total = float(np.sum(K * np.sin(tt))) * (np.pi / n) * (2 * np.pi / n)
        assert abs(total - 4 * np.pi) < 1e-4   # midpoint rule in polar angle

    def test_grad_phi_matches_finite_differences(self, rng):
        surfaces = [sq.sphere(1.0), sq.torus(2.0, 1.0), sq.ellipsoid(1.0, 1.0, 0.6)]
        anchors = [[1, 0, 0], [3, 0, 0], [1, 0, 0]]
        h = 1e-6
        for surf, anchor in zip(surfaces, anchors):
            for _ in range(10):
                x = np.asarray(anchor, dtype=float) + rng.normal(size=3) * 0.05
                g = surf.grad_phi(x)
                fd = np.empty(3)
                for j in range(3):
                    step = np.zeros(3)
                    step[j] = h
                    fd[j] = (surf.phi(x + step) - surf.phi(x - step)) / (2 * h)
                assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-6

    def test_hess_phi_matches_finite_differences(self, rng):
        surfaces = [sq.sphere(1.0), sq.torus(2.0, 1.0), sq.ellipsoid(1.0, 1.0, 0.6)]
        anchors = [[1, 0, 0], [3, 0, 0], [1, 0, 0]]
        h = 1e-6
        for surf, anchor in zip(surfaces, anchors):
            x = np.asarray(anchor, dtype=float) + rng.normal(size=(10, 3)) * 0.05
            hess = surf.hess_phi(x)
            assert hess.shape == (10, 3, 3)
            assert np.array_equal(hess, np.swapaxes(hess, -1, -2))
            fd = np.stack([(surf.grad_phi(x + h * e) - surf.grad_phi(x - h * e)) / (2 * h)
                           for e in np.eye(3)], axis=-1)
            assert np.max(np.abs(fd - hess)) / np.max(np.abs(hess)) < 1e-6

    def test_torus_hessian_leaves_converge_bytes(self, torus21):
        # the torus projects in closed form: its Hessian is never evaluated
        without = dataclasses.replace(torus21, hess_phi=None)
        reports = [study.convergence_csv(study.run_convergence(
            surf, "struct_torus", 1, 4, "gauss_curvature", 2))
            for surf in (torus21, without)]
        assert reports[0] == reports[1]


class TestGoldmanCurvature:
    """from_level_set without gauss_curvature but with hess_phi computes
    K = grad^T adj(H) grad / |grad|^4."""

    @staticmethod
    def goldman(surface):
        return sq.from_level_set(surface.phi, surface.grad_phi,
                                 hess_phi=surface.hess_phi).gauss_curvature

    @pytest.mark.parametrize("axes", [(1.0, 1.0, 0.6), (1.3, 0.9, 0.6)])
    def test_ellipsoid_closed_form(self, axes, rng):
        surface = sq.ellipsoid(*axes)
        on = shell_points(surface, 2000, rng, 1.0, 1.0)
        rel = self.goldman(surface)(on) / surface.gauss_curvature(on) - 1.0
        assert np.max(np.abs(rel)) <= 1e-14
        # Goldman's numerator carries the factor 1 + phi that the closed form
        # drops, so at Newton projections the two differ by the residual
        proj = sq.project_many(surface, shell_points(surface, 2000, rng, 0.9, 1.1))[0]
        rel = self.goldman(surface)(proj) / surface.gauss_curvature(proj) - 1.0
        assert np.all(np.abs(rel) <= np.abs(surface.phi(proj)) + 1e-14)

    def test_sphere_inverse_square_radius(self, rng):
        sphere = sq.sphere(1.7)
        proj = sq.project_many(sphere, rng.normal(size=(2000, 3)))[0]
        assert np.max(np.abs(self.goldman(sphere)(proj) * 1.7**2 - 1.0)) <= 1e-14

    def test_torus_closed_form(self, torus21, rng):
        proj = sq.project_many(torus21, torus_points(2.0, 1.0, 40, 50)
                               * rng.uniform(0.9, 1.1, (2000, 1)))[0]
        assert np.max(np.abs(self.goldman(torus21)(proj)
                             - torus21.gauss_curvature(proj))) <= 1e-14

    def test_given_curvature_wins(self, flat_ellipsoid):
        surface = sq.from_level_set(flat_ellipsoid.phi, flat_ellipsoid.grad_phi,
                                    gauss_curvature=flat_ellipsoid.gauss_curvature,
                                    hess_phi=flat_ellipsoid.hess_phi)
        assert surface.gauss_curvature is flat_ellipsoid.gauss_curvature

    def test_no_hessian_no_curvature(self, flat_ellipsoid):
        surface = sq.from_level_set(flat_ellipsoid.phi, flat_ellipsoid.grad_phi)
        with pytest.raises(NotImplementedError):
            surface.gauss_curvature(np.array([1.0, 0.0, 0.0]))


class TestDescriptors:
    def test_area_closed_forms(self, unit_sphere, torus21, flat_ellipsoid):
        assert sq.surface_area_exact(unit_sphere) == pytest.approx(4 * math.pi)
        assert sq.surface_area_exact(torus21) == pytest.approx(8 * math.pi**2)
        assert sq.surface_area_exact(flat_ellipsoid) is None

    def test_analytic_project_on_surface(self, unit_sphere, torus21, rng):
        for surf, anchor in ((unit_sphere, [0.9, 0.1, 0.2]), (torus21, [2.8, 0.2, 0.3])):
            pts = rng.normal(size=(100, 3)) * 0.1 + anchor
            proj = surf.analytic_project(pts)
            assert np.max(np.abs(surf.phi(proj))) <= 1e-12 * max(
                1.0, float(np.max(np.abs(surf.phi(pts)))))

    def test_param_validation(self):
        with pytest.raises(ValueError, match="0 < r < R"):
            sq.torus(1.0, 2.0)
        with pytest.raises(ValueError):
            sq.sphere(0.0)
        with pytest.raises(ValueError):
            sq.ellipsoid(1.0, -1.0, 1.0)

    def test_euler_characteristics(self, unit_sphere, torus21, flat_ellipsoid):
        assert unit_sphere.euler_characteristic == 2
        assert torus21.euler_characteristic == 0
        assert flat_ellipsoid.euler_characteristic == 2


class TestParseSurface:
    def test_round_trips(self):
        s = sq.parse_surface("sphere:R=1")
        assert s.name == "sphere" and s.params["R"] == 1.0
        t = sq.parse_surface("torus:R=2,r=1")
        assert t.params == {"R": 2.0, "r": 1.0}
        e = sq.parse_surface("ellipsoid:a=1,b=1,c=0.6")
        assert e.params == {"a": 1.0, "b": 1.0, "c": 0.6}

    def test_bad_torus_radii(self):
        with pytest.raises(ValueError, match="0 < r < R"):
            sq.parse_surface("torus:R=1,r=2")

    def test_unknown_name_and_keys(self):
        with pytest.raises(ValueError):
            sq.parse_surface("cube:a=1")
        with pytest.raises(ValueError):
            sq.parse_surface("sphere:radius=1")
        with pytest.raises(ValueError):
            sq.parse_surface("sphere:R=abc")
