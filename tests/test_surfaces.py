import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import surfquad as sq
from surfquad import blocks, study
from surfquad.errors import DegeneratePoint, NoConvergence, OutsideTube

from conftest import newton, torus_points


def radial_sphere():
    """The unit sphere from user callables, projected radially with no check:
    its projector returns NaN at the centre and at non-finite points."""
    return sq.from_level_set(
        lambda p: np.einsum("...i,...i->...", p, p) - 1.0,
        lambda p: 2.0 * np.asarray(p, dtype=float),
        analytic_project=lambda p: p / np.linalg.norm(p, axis=-1, keepdims=True),
        name="radial")


def project_one(surface, x):
    """``project_many`` on the batch of one point: (point, distance)."""
    pts, dist, _, _ = sq.project_many(surface, np.asarray(x, dtype=float)[None])
    return pts[0], dist[0]


class TestProjection:
    def test_sphere_radial(self, unit_sphere):
        point, distance = project_one(unit_sphere, [2.0, 0.0, 0.0])
        assert np.allclose(point, [1.0, 0.0, 0.0])
        assert distance == pytest.approx(1.0)

    def test_torus_major_plane(self, torus21):
        point, distance = project_one(torus21, [3.5, 0.0, 0.0])
        assert np.allclose(point, [3.0, 0.0, 0.0])
        assert distance == pytest.approx(0.5)

    def test_ellipsoid_axis_point(self):
        e = sq.ellipsoid(2.0, 1.0, 1.0)
        point, _ = project_one(e, [3.0, 0.0, 0.0])
        assert np.allclose(point, [2.0, 0.0, 0.0], atol=1e-12)

    def test_generic_newton_matches_analytic_sphere(self):
        gen = sq.from_level_set(
            phi=lambda p: np.einsum("...i,...i->...", p, p) - 1.0,
            grad_phi=lambda p: 2.0 * np.asarray(p, dtype=float))
        x = np.array([0.3, 0.4, 0.5])
        point, _ = project_one(gen, x)
        assert np.linalg.norm(point - x / np.linalg.norm(x)) <= 1e-12

    def test_signed_distance_inside_negative(self, unit_sphere):
        _, distance = project_one(unit_sphere, [0.25, 0.0, 0.0])
        assert distance == pytest.approx(-0.75)

    def test_idempotence(self, torus21, rng):
        for _ in range(20):
            x, _ = project_one(torus21, rng.normal(size=3) + [2.5, 0, 0])
            again, _ = project_one(torus21, x)
            assert np.linalg.norm(again - x) <= 10 * 1e-13

    def test_newton_idempotence(self, newton_ellipsoid, rng):
        for _ in range(10):
            seed = rng.normal(size=3) * 0.1 + [1.0, 0.1, 0.1]
            x, _ = project_one(newton_ellipsoid, seed)
            again, _ = project_one(newton_ellipsoid, x)
            assert np.linalg.norm(again - x) <= 10 * 1e-13

    def test_minimality_against_dense_sample(self, torus21, rng):
        # brute-force oracle: no sampled surface point may be closer
        sample = torus_points(2.0, 1.0, 100, 100)
        for _ in range(10):
            x = rng.normal(size=3) * 0.3 + [2.8, 0.3, 0.2]
            point, _ = project_one(torus21, x)
            dmin = np.min(np.linalg.norm(sample - x, axis=1))
            assert np.linalg.norm(point - x) <= dmin + 1e-9

    def test_normal_alignment(self, flat_ellipsoid, rng):
        # sin of the angle via the cross product; acos cannot resolve < 1.5e-8
        for _ in range(20):
            x = rng.normal(size=3) * 0.2 + [0.9, 0.2, 0.1]
            point, distance = project_one(flat_ellipsoid, x)
            if abs(distance) <= 1e-6:
                continue
            v = x - point
            g = flat_ellipsoid.grad_phi(point)
            sinang = np.linalg.norm(np.cross(v, g)) / (
                np.linalg.norm(v) * np.linalg.norm(g))
            assert sinang < 1e-8

    def test_normal_alignment_newton(self, newton_ellipsoid, rng):
        self.test_normal_alignment(newton_ellipsoid, rng)

    def test_residual_on_surface(self, flat_ellipsoid, rng):
        pts = rng.normal(size=(50, 3)) * 0.15 + [0.8, 0.2, 0.1]
        proj, _, _, _ = sq.project_many(flat_ellipsoid, pts)
        assert np.max(np.abs(flat_ellipsoid.phi(proj))) < 1e-12

    def test_residual_on_surface_newton(self, newton_ellipsoid, rng):
        self.test_residual_on_surface(newton_ellipsoid, rng)

    def test_outside_tube_center(self, unit_sphere):
        with pytest.raises(OutsideTube):
            project_one(unit_sphere, [0.0, 0.0, 0.0])

    def test_outside_tube_torus_axis(self, torus21):
        with pytest.raises(OutsideTube):
            project_one(torus21, [0.0, 0.0, 0.5])

    def test_outside_tube_torus_centre_circle(self, torus21):
        with pytest.raises(OutsideTube):
            project_one(torus21, [0.0, -2.0, 0.0])

    def test_vanishing_gradient_names_first_seed(self, newton_ellipsoid):
        # the Newton seed check names the first point it rejects, not the
        # point of smallest gradient
        with pytest.raises(OutsideTube) as err:
            sq.project_many(newton_ellipsoid, [[0.0, np.inf, 0.0], [1.0, 0.0, 0.0]])
        seed = err.value.__cause__
        assert err.value.indices == seed.indices == [0]
        assert type(seed.indices[0]) is int
        assert "seed point [ 0. inf  0.]" in str(seed)

    def test_no_convergence_budget(self, flat_ellipsoid, one_iteration_projector):
        with pytest.raises(NoConvergence) as err:
            project_one(flat_ellipsoid, [0.9, 0.4, 0.3])
        assert err.value.iterations <= 1
        assert err.value.residual > 0

    def test_no_convergence_budget_newton(self, newton_ellipsoid, one_iteration_projector):
        self.test_no_convergence_budget(newton_ellipsoid, one_iteration_projector)

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

    def test_newton_nodes_reach_roundoff(self, newton_ellipsoid):
        # one full Newton step past TOL: the level-3 nodes (res 2, k 4) lie on
        # the surface to roundoff; stopping at TOL left them up to 158 eps off
        mesh = sq.generate_base(newton_ellipsoid, "scaled_ellipsoid", 2)
        for _ in range(3):
            mesh = sq.bisect(mesh)
        nodes = sq.build_surface_elements(mesh, newton_ellipsoid, 4).unique_nodes
        off = (np.abs(newton_ellipsoid.phi(nodes))
               / np.linalg.norm(newton_ellipsoid.grad_phi(nodes), axis=1))
        assert np.max(off) <= 4 * np.finfo(float).eps

    def test_non_finite_final_step_dropped(self, flat_ellipsoid):
        # a point on the surface meets TOL before any iteration; its step past
        # TOL is kept only where finite, so a NaN Hessian leaves it in place
        # with no iteration, and a finite one takes the (zero) step
        nan_hess = sq.from_level_set(flat_ellipsoid.phi, flat_ellipsoid.grad_phi,
                                     hess_phi=lambda p: np.full(p.shape + (3,), np.nan))
        on = [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
        for surface, steps in ((nan_hess, 0), (newton(flat_ellipsoid), 1)):
            proj, dist, iters, resid = sq.project_many(surface, on)
            assert proj.tolist() == on
            assert iters.tolist() == [steps, steps]
            assert dist.tolist() == resid.tolist() == [0.0, 0.0]

    def test_stalled_point_costs_only_its_own_trials(self, flat_ellipsoid, rng):
        # a point on the z-axis above the pole, where the Hessian is NaN,
        # stalls; the line search evaluates only the points still searching,
        # so it adds its own 5 flow steps, its seed and 40 trials per
        # iteration to the work of the other 5,000 points, and nothing more
        def hess(p):
            h = np.array(flat_ellipsoid.hess_phi(p))
            h[(p[:, 0] == 0.0) & (p[:, 1] == 0.0)] = np.nan
            return h

        counted = []

        def grad(p):
            counted.append(len(p))
            return flat_ellipsoid.grad_phi(p)

        broken = sq.from_level_set(flat_ellipsoid.phi, grad, hess_phi=hess)
        pts = shell_points(flat_ellipsoid, 5_001, rng)
        sq.project_many(broken, np.delete(pts, 1234, axis=0))
        alone = sum(counted)
        counted.clear()
        pts[1234] = [0.0, 0.0, 2.0]
        with pytest.raises(NoConvergence) as err:
            sq.project_many(broken, pts)
        assert sum(counted) == alone + 6 + 40 * sq.surfaces.MAX_ITER
        # it keeps its Newton seed, five flow steps from z = 2
        assert err.value.indices == [1234]
        assert err.value.residuals == [9.977230375213253e-09]
        assert err.value.iterations == sq.surfaces.MAX_ITER


class TestSecularProjection:
    """The ellipsoid projects through the root of its secular equation."""

    @staticmethod
    def distance_to_surface(surface, pts):
        return np.abs(surface.phi(pts)) / np.linalg.norm(surface.grad_phi(pts), axis=1)

    @pytest.mark.parametrize("axes", [(1.0, 1.0, 0.6), (1.3, 0.9, 0.6), (0.6, 0.6, 1.0)])
    def test_matches_newton_on_shells(self, axes, rng):
        surface = sq.ellipsoid(*axes)
        pts = shell_points(surface, 2000, rng, 0.9, 1.1)
        proj, dist, iters, resid = sq.project_many(surface, pts)
        # Newton stops at residual 1e-13; the root is at roundoff
        assert np.max(np.abs(proj - sq.project_many(newton(surface), pts)[0])) <= 2e-13
        assert np.max(self.distance_to_surface(surface, proj)) <= 1e-15
        assert np.array_equal(resid, np.abs(surface.phi(proj)))
        assert not np.any(iters)

    def test_unit_ellipsoid_is_the_sphere(self, rng):
        pts = rng.normal(size=(2000, 3))
        got = sq.project_many(sq.ellipsoid(1.0, 1.0, 1.0), pts)[0]
        assert np.max(np.abs(got - sq.project_many(sq.sphere(1.0), pts)[0])) <= 4e-16

    @pytest.mark.parametrize("axes", [(3.0, 1.0, 0.2), (10.0, 1.0, 0.1)])
    def test_elongated_axes_reach_roundoff(self, axes, rng):
        # the root is resolved to the secular function's own roundoff, not to
        # a step scaled by the smallest axis, which would never settle here
        surface = sq.ellipsoid(*axes)
        proj = sq.project_many(surface, shell_points(surface, 5000, rng, 0.9, 1.1))[0]
        assert np.max(self.distance_to_surface(surface, proj)) <= 4e-15

    def test_closest_against_dense_sample(self, flat_ellipsoid, rng):
        # points inside, near the medial disk z = 0, |(x, y)| < 0.64, and
        # outside: no sampled surface point may be closer
        theta, phi = np.meshgrid(np.linspace(0.0, np.pi, 200),
                                 np.linspace(0.0, 2.0 * np.pi, 400), indexing="ij")
        sample = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                           0.6 * np.cos(theta)], axis=-1).reshape(-1, 3)
        pts = np.vstack([rng.uniform(-0.6, 0.6, (30, 3)) * [1.0, 1.0, 0.05],
                         rng.normal(size=(30, 3))])
        proj, dist, _, _ = sq.project_many(flat_ellipsoid, pts)
        for x, y, d in zip(pts, proj, dist):
            assert np.linalg.norm(y - x) == pytest.approx(abs(d), rel=1e-15)
            assert abs(d) <= np.min(np.linalg.norm(sample - x, axis=1)) + 1e-12

    @pytest.mark.parametrize("z", [1e-8, 1e-12, 1e-16, 1e-200])
    def test_near_the_medial_sheet(self, flat_ellipsoid, z):
        # the pole t = -c^2 is resolved relative to its own distance: above
        # (0, 0.5, 0) the closest point tends to (0, 0.5 / 0.64, 0.6 sqrt(1 -
        # (0.5 / 0.64)^2)), while Newton settles at (0, 1, -2.6 z), a
        # stationary point 0.5 away against 0.47
        point, _ = project_one(flat_ellipsoid, [0.0, 0.5, z])
        y = 0.5 / 0.64
        assert point == pytest.approx([0.0, y, 0.6 * math.sqrt(1.0 - y * y)],
                                      abs=2.0 * z + 2e-16)
        assert abs(flat_ellipsoid.phi(point)) <= 4e-16

    def test_outside_tube_names_centre_and_medial_sheet(self, flat_ellipsoid, rng,
                                                        monkeypatch, passes):
        # no root above -c^2: the centre and two points of the medial disk
        # z = 0, |(x, y)| < 0.64; its rim and (0.5, 0.5, 0) beyond it project
        pts = shell_points(flat_ellipsoid, 15, rng)
        pts[[2, 7, 11]] = [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, -0.6, 0.0]]
        pts[[12, 13]] = [[0.5, 0.5, 0.0], [0.0, -0.64, 0.0]]
        for block in (blocks.BLOCK, 5):
            monkeypatch.setattr(sq.blocks, "BLOCK", block)
            with pytest.raises(OutsideTube) as err:
                sq.project_many(flat_ellipsoid, pts)
            assert err.value.indices == [2, 7, 11]
        assert passes["project_many"] == [1, 3]
        proj = sq.project_many(flat_ellipsoid, pts[12:14])[0]
        assert np.max(np.abs(proj - [[math.sqrt(0.5), math.sqrt(0.5), 0.0],
                                     [0.0, -1.0, 0.0]])) <= 2e-16

    def test_non_finite_points_are_named(self, flat_ellipsoid):
        pts = [[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]]
        with pytest.raises(OutsideTube) as err:
            sq.project_many(flat_ellipsoid, pts)
        assert err.value.indices == [1, 2]

    def test_bits_independent_of_block(self, flat_ellipsoid, rng, monkeypatch, passes):
        # from the centre's neighbourhood to twice the surface: three to nine
        # steps, every point frozen on its own
        pts = shell_points(flat_ellipsoid, 500, rng, 0.05, 2.0)
        whole = sq.project_many(flat_ellipsoid, pts)
        monkeypatch.setattr(sq.blocks, "BLOCK", 7)
        blocked = sq.project_many(flat_ellipsoid, pts)
        assert passes["project_many"] == [1, 72]
        for a, b in zip(whole, blocked):
            assert a.tobytes() == b.tobytes()


class TestKKTStep:
    """The closed-form Newton step against the assembled 4x4 KKT system."""

    @staticmethod
    def dense(lam, hess, grad, stat, phi):
        kkt = np.zeros((len(lam), 4, 4))
        kkt[:, :3, :3] = np.eye(3) + lam[:, None, None] * hess
        kkt[:, :3, 3] = kkt[:, 3, :3] = grad
        return kkt, -np.concatenate([stat, phi[:, None]], axis=1)

    def test_matches_dense_solve(self, rng):
        # A = I + lam H near I with a non-symmetric H, |grad| about 1
        n = 1_000
        args = (rng.uniform(-0.2, 0.2, n), rng.normal(size=(n, 3, 3)),
                rng.normal(size=(n, 3)) / math.sqrt(3), rng.normal(size=(n, 3)),
                rng.normal(size=n))
        dy, dlam = sq.surfaces._kkt_step(*args)
        kkt, rhs = self.dense(*args)
        ref = np.linalg.solve(kkt, rhs[:, :, None])[:, :, 0]
        err = np.linalg.norm(np.column_stack([dy, dlam]) - ref, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=1))

    @pytest.mark.parametrize("grad, solver", [
        ([2.0, 0.0, 0.0], "solve"),    # A singular, the KKT system is not
        ([0.0, 2.0, 0.0], "lstsq"),    # both singular
    ])
    def test_singular_a_takes_its_own_system(self, grad, solver, rng):
        # A = I + lam H = diag(0, 1, 1) at point 1, between two regular points
        lam = np.array([0.1, 1.0, -0.1])
        hess = rng.normal(size=(3, 3, 3))
        hess[1] = np.diag([-1.0, 0.0, 0.0])
        g = rng.normal(size=(3, 3))
        g[1] = grad
        stat, phi = rng.normal(size=(3, 3)), rng.normal(size=3)
        dy, dlam = sq.surfaces._kkt_step(lam, hess, g, stat, phi)
        kkt, rhs = self.dense(lam, hess, g, stat, phi)
        if solver == "solve":
            ref = np.linalg.solve(kkt[1], rhs[1])
        else:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(kkt[1], rhs[1])
            ref = np.linalg.lstsq(kkt[1], rhs[1], rcond=None)[0]
        assert np.array_equal(np.append(dy[1], dlam[1]), ref)
        # the regular points get the same bits as alone
        for i in (0, 2):
            alone = sq.surfaces._kkt_step(lam[i:i + 1], hess[i:i + 1], g[i:i + 1],
                                          stat[i:i + 1], phi[i:i + 1])
            assert dy[i].tobytes() == alone[0][0].tobytes()
            assert dlam[i] == alone[1][0]

    def test_non_finite_data_gives_non_finite_step(self, rng):
        lam = np.array([0.0, 1.0])
        hess = np.zeros((2, 3, 3))
        hess[1] = np.diag([-1.0, 0.0, 0.0])
        grad = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        stat = np.array([[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]])
        dy, dlam = sq.surfaces._kkt_step(lam, hess, grad, stat, np.zeros(2))
        # point 1's A is singular, but its data are not finite: no 4x4 solve
        for i in range(2):
            assert not np.all(np.isfinite(np.append(dy[i], dlam[i])))


def shell_points(surface, n, rng, lo=0.8, hi=1.2):
    """n points at radial scale lo..hi about the ellipsoid/sphere surface."""
    dirs = rng.normal(size=(n, 3))
    on = dirs / np.sqrt(surface.phi(dirs) + 1.0)[:, None]
    return on * rng.uniform(lo, hi, size=(n, 1))


class TestProjectionBlocks:
    """project_many works in blocks of at most blocks.BLOCK points."""

    B = 5

    @pytest.mark.parametrize("name", ["ellipsoid", "newton-ellipsoid", "torus", "sphere"])
    @pytest.mark.parametrize("n", [B - 1, B, B + 1])
    def test_bits_independent_of_block(self, name, n, rng, monkeypatch, passes):
        if name == "torus":
            surface = sq.torus(2.0, 1.0)
            pts = torus_points(2.0, 1.0, 7, 5)[:n] * rng.uniform(0.9, 1.1, (n, 1))
        else:
            surface = (sq.sphere(1.0) if name == "sphere"
                       else sq.ellipsoid(1.0, 1.0, 0.6))
            if name == "newton-ellipsoid":
                surface = newton(surface)
            pts = shell_points(surface, n, rng)
        whole = sq.project_many(surface, pts)
        monkeypatch.setattr(sq.blocks, "BLOCK", self.B)
        blocked = sq.project_many(surface, pts)
        # in place: distances come from the original points all the same
        buf = pts.copy()
        in_place = sq.project_many(surface, buf, out=buf)
        assert in_place[0] is buf
        assert passes["project_many"] == [1, -(-n // self.B), -(-n // self.B)]
        for other in (blocked, in_place):
            for a, b in zip(whole, other):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        if name == "newton-ellipsoid":
            assert len(set(whole[2].tolist())) > 1    # Newton, varied iteration counts

    def test_no_convergence_names_points_across_blocks(self, flat_ellipsoid, rng,
                                                       monkeypatch, passes,
                                                       one_iteration_projector):
        # on-surface points converge without a step; far ones fail in one step,
        # the worst of them in the second block
        pts = shell_points(flat_ellipsoid, 2 * self.B, rng, 1.0, 1.0)
        far = [1, 3, 7, 8]
        pts[far] *= [[1.3], [1.4], [1.5], [1.9]]
        with pytest.raises(NoConvergence) as whole:
            sq.project_many(flat_ellipsoid, pts)
        monkeypatch.setattr(sq.blocks, "BLOCK", self.B)
        with pytest.raises(NoConvergence) as blocked:
            sq.project_many(flat_ellipsoid, pts)
        assert passes["project_many"] == [1, 2]
        assert whole.value.indices == blocked.value.indices == far
        assert blocked.value.residual == whole.value.residual
        assert blocked.value.iterations == whole.value.iterations == 1
        alone = []
        for i in far:
            with pytest.raises(NoConvergence) as err:
                sq.project_many(flat_ellipsoid, pts[i])
            alone.append(err.value.residual)
        assert far[int(np.argmax(alone))] >= self.B
        assert blocked.value.residual == max(alone)
        assert blocked.value.residuals == whole.value.residuals == alone
        buf = pts.copy()
        with pytest.raises(NoConvergence) as in_place:
            sq.project_many(flat_ellipsoid, buf, out=buf)
        assert in_place.value.indices == far
        assert in_place.value.residuals == alone

    def test_no_convergence_names_points_across_blocks_newton(
            self, newton_ellipsoid, rng, monkeypatch, passes, one_iteration_projector):
        self.test_no_convergence_names_points_across_blocks(
            newton_ellipsoid, rng, monkeypatch, passes, one_iteration_projector)

    @pytest.mark.parametrize("surface", [sq.sphere(1.0), sq.ellipsoid(1.0, 1.0, 0.6),
                                         newton(sq.ellipsoid(1.0, 1.0, 0.6)),
                                         radial_sphere()],
                             ids=["sphere", "ellipsoid", "newton-ellipsoid", "level-set"])
    def test_outside_tube_names_points_across_blocks(self, surface, rng, monkeypatch,
                                                     passes):
        # the center: the sphere's closed form, the ellipsoid's secular
        # equation, the Newton seed and a user's radial projector are all
        # undefined there
        pts = shell_points(surface, 3 * self.B, rng)
        pts[[2, 11]] = 0.0
        monkeypatch.setattr(sq.blocks, "BLOCK", self.B)
        with pytest.raises(OutsideTube) as err:
            sq.project_many(surface, pts)
        assert err.value.indices == [2, 11]
        with pytest.raises(OutsideTube) as err:
            sq.project_many(surface, pts, out=pts)
        assert err.value.indices == [2, 11]
        assert passes["project_many"] == [3, 3]

    @pytest.mark.parametrize("name", ["sphere", "torus", "ellipsoid", "newton-ellipsoid",
                                      "level-set"])
    def test_non_finite_points_named_across_blocks(self, name, rng, monkeypatch, passes):
        # whatever the projector, a non-finite point ends in one OutsideTube
        # that names it by its index in the input, never in a NaN result
        if name == "torus":
            surface = sq.torus(2.0, 1.0)
            pts = torus_points(2.0, 1.0, 5, 3) * rng.uniform(0.9, 1.1, (15, 1))
        else:
            surface = {"sphere": sq.sphere(1.0), "level-set": radial_sphere(),
                       "ellipsoid": sq.ellipsoid(1.0, 1.0, 0.6),
                       "newton-ellipsoid": newton(sq.ellipsoid(1.0, 1.0, 0.6))}[name]
            pts = shell_points(surface, 3 * self.B, rng)
        pts[[2, 8, 11]] = [[np.nan, 0.5, 0.0], [0.0, np.inf, 0.0], [-np.inf, 1.0, np.nan]]
        monkeypatch.setattr(sq.blocks, "BLOCK", self.B)
        with pytest.raises(OutsideTube) as err:
            sq.project_many(surface, pts)
        assert err.value.indices == [2, 8, 11]
        assert all(type(i) is int for i in err.value.indices)
        with pytest.raises(OutsideTube) as err:
            sq.project_many(surface, pts, out=pts)
        assert err.value.indices == [2, 8, 11]
        assert passes["project_many"] == [3, 3]

    def test_out_shape_checked(self, unit_sphere):
        pts = np.ones((4, 3))
        for out in (np.empty((3, 3)), np.empty((4, 3), dtype=np.float32)):
            with pytest.raises(ValueError, match="out must be"):
                sq.project_many(unit_sphere, pts, out=out)

    @pytest.mark.parametrize("name", ["torus", "ellipsoid", "newton-ellipsoid"])
    def test_project_vertices_keeps_flat_vertices(self, name):
        surface = sq.torus(2.0, 1.0) if name == "torus" else sq.ellipsoid(1.0, 1.0, 0.6)
        if name == "newton-ellipsoid":
            surface = newton(surface)
        # bisection puts new vertices off the surface
        mesh = sq.bisect(sq.generate_base(surface, "struct_torus" if name == "torus"
                                          else "scaled_ellipsoid", 1))
        flat = mesh.vertices.copy()
        projected = sq.project_vertices(mesh, surface)
        assert mesh.vertices.tobytes() == flat.tobytes()
        assert projected.vertices.tobytes() == sq.project_many(surface, flat)[0].tobytes()
        assert not np.array_equal(projected.vertices, flat)

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

    def test_peak_memory_bounded_by_outputs_newton(self, newton_ellipsoid, rng):
        self.test_peak_memory_bounded_by_outputs(newton_ellipsoid, rng)


class TestCurvature:
    def test_sphere(self):
        s2 = sq.sphere(2.0)
        pts = np.array([[2.0, 0, 0], [0, 0, 2], [0, -2, 0]])
        assert s2.gauss_curvature(pts) == pytest.approx([0.25] * 3)

    def test_torus_outer_equator(self, torus21):
        # cos(0) / (r (R + r)) = 1/3 for R=2, r=1
        assert torus21.gauss_curvature(np.array([[3.0, 0.0, 0.0]])) == pytest.approx(
            [1.0 / 3.0])

    def test_torus_inner_equator_negative(self, torus21):
        assert torus21.gauss_curvature(np.array([[1.0, 0.0, 0.0]])) == pytest.approx([-1.0])

    def test_unit_ellipsoid_reduces_to_sphere(self):
        e = sq.ellipsoid(1.0, 1.0, 1.0)
        assert e.gauss_curvature(np.array([[1.0, 0.0, 0.0]])) == pytest.approx([1.0])

    def test_torus_axis_degenerate(self, torus21):
        with pytest.raises(DegeneratePoint):
            torus21.gauss_curvature(np.array([[0.0, 0.0, 1.0]]))

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
        # drops, so at projected points the two differ by the residual
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
        # a NaN compares false with everything, so it must be named
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                sq.sphere(bad)
            with pytest.raises(ValueError, match="finite"):
                sq.torus(bad, 1.0)
            with pytest.raises(ValueError):
                sq.torus(2.0, bad)
            for axes in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
                with pytest.raises(ValueError, match="finite"):
                    sq.ellipsoid(*axes)

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

    @pytest.mark.parametrize("spec,key", [("sphere:R=1,R=2", "R"),
                                          ("torus:R=2,r=1, r=0.5", "r")])
    def test_repeated_key(self, spec, key):
        # the last value used to win silently
        with pytest.raises(ValueError, match=f"repeated surface parameter '{key}'"):
            sq.parse_surface(spec)
