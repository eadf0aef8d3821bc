import dataclasses
import math
import tracemalloc

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfquad as sq
from surfquad.interp import interp_gradient_defect, random_poly


def ref_triangle_points(draw_s, draw_t):
    # maps two unit draws into the reference triangle
    s = draw_s
    t = draw_t * (1.0 - s)
    return s, t


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def gradient(basis, s, t):
    """(N, 2) columns d/ds, d/dt of every basis function at one point, read
    from the derivative table."""
    return basis.tables(np.array([[s, t]]))[1]


def two_loop_lattice(k):
    """The lattice order built node by node: vertices (0,0), (0,k), (k,0),
    then the side nodes, then the interior nodes, each lexicographic."""
    sides, interior = [], []
    for i in range(k + 1):
        for j in range(k + 1 - i):
            on = (i == 0) + (j == 0) + (i + j == k)
            if on == 1:
                sides.append((i, j))
            elif on == 0:
                interior.append((i, j))
    return np.array([(0, 0), (0, k), (k, 0)] + sorted(sides) + sorted(interior),
                    dtype=np.int64)


class TestNodes:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_order_pinned_to_two_loop_construction(self, k):
        ns = sq.reference_nodes(k)
        want = two_loop_lattice(k)
        assert ns.lattice.dtype == want.dtype
        assert ns.lattice.tobytes() == want.tobytes()
        nodes = want.astype(float) / k
        assert ns.nodes.dtype == nodes.dtype and ns.nodes.tobytes() == nodes.tobytes()

    @pytest.mark.parametrize("k", range(1, 13))
    def test_placement_table(self, k):
        ns = sq.reference_nodes(k)
        corners = np.array([(0, 0), (0, k), (k, 0), (0, 0)])
        boundary = ns.side >= 0
        side, step = ns.side[boundary], ns.step[boundary]
        want = corners[side] + step[:, None] * (corners[side + 1] - corners[side]) / k
        assert np.array_equal(ns.lattice[boundary], want)
        assert np.array_equal(ns.side[:3], [0, 1, 2])
        assert np.array_equal(ns.step[:3], [0, 0, 0])
        assert np.all((step >= 0) & (step < k))
        assert np.count_nonzero(step == 0) == 3
        assert np.count_nonzero(~boundary) == (k - 1) * (k - 2) // 2
        assert np.all(ns.step[~boundary] == -1)
        i, j = ns.lattice[~boundary].T
        assert np.all((i > 0) & (j > 0) & (i + j < k))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 8])
    def test_count_and_lattice(self, k):
        ns = sq.reference_nodes(k)
        assert ns.count == (k + 1) * (k + 2) // 2
        assert np.array_equal(ns.nodes, ns.lattice / k)
        bary = np.column_stack([1 - ns.nodes.sum(axis=1), ns.nodes])
        assert np.min(bary) >= -1e-15

    def test_asymmetric_edge_fractions_rejected(self):
        # a reversed edge reads node j as node k - j, which needs
        # t_j + t_(k-j) = 1; here t_1 = 0.3 against t_3 = 0.75
        ns = sq.reference_nodes(4)
        nodes = ns.nodes.copy()
        nodes[(ns.side == 0) & (ns.step == 1), 1] = 0.3
        with pytest.raises(ValueError, match="symmetric about 1/2"):
            dataclasses.replace(ns, nodes=nodes)
        # a shift of one ulp is roundoff, not asymmetry
        nodes = ns.nodes.copy()
        nodes[(ns.side == 0) & (ns.step == 1), 1] = np.nextafter(0.25, 1.0)
        assert dataclasses.replace(ns, nodes=nodes).count == ns.count

    def test_vertex_ordering(self):
        ns = sq.reference_nodes(3)
        assert np.allclose(ns.nodes[0], [0, 0])
        assert np.allclose(ns.nodes[1], [0, 1])
        assert np.allclose(ns.nodes[2], [1, 0])


class TestBasis:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_cardinality(self, k):
        basis = sq.lagrange_basis(k)
        vals = basis.eval(basis.nodes)
        assert np.max(np.abs(vals - np.eye(basis.count))) < 1e-10

    def test_linear_is_barycentric(self):
        basis = sq.lagrange_basis(1)
        assert np.allclose(basis.eval((1 / 3, 1 / 3)),
                           [1 / 3, 1 / 3, 1 / 3])

    def test_node_hit_gives_unit_vector(self):
        basis = sq.lagrange_basis(4)
        vals = basis.eval(basis.nodes[7])
        expect = np.zeros(basis.count)
        expect[7] = 1.0
        assert np.max(np.abs(vals - expect)) < 1e-10

    def test_quadratic_edge_midpoint_vertex_entry(self):
        basis = sq.lagrange_basis(2)
        vals = basis.eval((0.5, 0.5))
        assert abs(vals[0]) < 1e-12          # opposite vertex (0,0)

    @settings(max_examples=50, deadline=None)
    @given(unit, unit)
    def test_partition_of_unity(self, a, b):
        s, t = ref_triangle_points(a, b)
        basis = sq.lagrange_basis(4)
        assert abs(basis.eval((s, t)).sum() - 1.0) < 1e-10

    def test_leading_axes_match_row_by_row(self, rng):
        basis = sq.lagrange_basis(3)
        pts = rng.uniform(0.0, 0.5, size=(2, 3, 2))
        nodal = rng.normal(size=(basis.count, 3))
        vals = basis.eval(pts)
        assert vals.shape == (2, 3, basis.count)
        assert (vals @ nodal).shape == (2, 3, 3)
        L, D = basis.tables(pts.reshape(-1, 2))
        n = len(L)
        np.testing.assert_allclose(vals.reshape(n, basis.count), L,
                                   rtol=0, atol=1e-14)
        assert D.shape == (basis.count, 2 * n) and D.flags.c_contiguous
        for row, p in enumerate(pts):
            np.testing.assert_allclose(vals[row], basis.eval(p), rtol=0, atol=1e-14)
        # the table's columns are d/ds at every point, then d/dt
        for q, (s, t) in enumerate(pts.reshape(-1, 2)):
            np.testing.assert_allclose(D[:, [q, n + q]], gradient(basis, s, t),
                                       rtol=0, atol=1e-14)

    def test_linear_gradients(self):
        basis = sq.lagrange_basis(1)
        g = gradient(basis, 0.3, 0.2)
        assert np.allclose(g[0], [-1, -1])   # vertex (0,0)
        assert np.allclose(g[1], [0, 1])     # vertex (0,1)
        assert np.allclose(g[2], [1, 0])     # vertex (1,0)

    @settings(max_examples=30, deadline=None)
    @given(unit, unit)
    def test_gradient_sums_vanish(self, a, b):
        s, t = ref_triangle_points(a, b)
        g = gradient(sq.lagrange_basis(5), s, t)
        assert np.max(np.abs(g.sum(axis=0))) < 1e-9

    @pytest.mark.parametrize("k", [2, 4])
    def test_gradient_matches_finite_differences(self, k, rng):
        basis = sq.lagrange_basis(k)
        h = 1e-6
        for _ in range(20):
            s = rng.uniform(0.05, 0.9)
            t = rng.uniform(0.05, 0.95) * (1 - s)
            g = gradient(basis, s, t)
            fd_s = (basis.eval((s + h, t)) - basis.eval((s - h, t))) / (2 * h)
            fd_t = (basis.eval((s, t + h)) - basis.eval((s, t - h))) / (2 * h)
            assert np.max(np.abs(g[:, 0] - fd_s)) < 1e-5
            assert np.max(np.abs(g[:, 1] - fd_t)) < 1e-5


class TestInterpolate:
    def test_reproduces_coordinates(self, rng):
        basis = sq.lagrange_basis(3)
        for _ in range(10):
            s = rng.uniform(0, 1)
            t = rng.uniform(0, 1) * (1 - s)
            out = basis.eval((s, t)) @ basis.nodes
            assert np.allclose(out, [s, t], atol=1e-12)

    def test_exact_for_degree_k(self, rng):
        basis = sq.lagrange_basis(3)
        f = lambda p: p[:, 0] ** 2 * p[:, 1]
        nodal = f(basis.nodes)
        for _ in range(50):
            s = rng.uniform(0, 1)
            t = rng.uniform(0, 1) * (1 - s)
            got = basis.eval((s, t)) @ nodal
            assert abs(got - s * s * t) < 1e-12

    def test_not_exact_beyond_degree(self):
        basis = sq.lagrange_basis(2)
        nodal = basis.nodes[:, 0] ** 4
        pts = np.array([[s, t] for s in np.linspace(0, 1, 40)
                        for t in np.linspace(0, 1, 40) if s + t <= 1])
        err = np.abs(basis.eval(pts) @ nodal - pts[:, 0] ** 4)
        assert err.max() > 1e-3


class TestGradientDefect:
    """Parity of the mean interpolation-gradient defect on the triangle."""

    @staticmethod
    def symbolic_defect(k, coeffs):
        # independent oracle: expand (p - I_k p) in monomials with numpy's
        # polynomial module and integrate term by term with the exact
        # factorial formula a! b! / (a + b + 2)!
        basis = sq.lagrange_basis(k)
        nodal = npoly.polyval2d(basis.nodes[:, 0], basis.nodes[:, 1], coeffs)
        interp_mono = basis.coeffs @ nodal      # monomial coeffs of I_k p
        diff = np.array(coeffs, dtype=float)
        for (a, b), c in zip(basis.powers, interp_mono):
            diff[a, b] -= c

        def integral(poly):
            return sum(poly[a, b] * math.factorial(a) * math.factorial(b)
                       / math.factorial(a + b + 2)
                       for a, b in zip(*np.nonzero(poly)))
        return (integral(npoly.polyder(diff, axis=0)),
                integral(npoly.polyder(diff, axis=1)))

    def test_even_k2_cubic_monomial(self):
        coeffs = np.zeros((4, 4))
        coeffs[3, 0] = 1.0
        ds, dt = interp_gradient_defect(2, coeffs)
        assert abs(ds) < 1e-12 and abs(dt) < 1e-12

    def test_degree_at_most_k_exact(self, rng):
        coeffs = random_poly(2, rng)
        ds, dt = interp_gradient_defect(2, coeffs)
        assert abs(ds) < 1e-13 and abs(dt) < 1e-13

    def test_odd_k3_counterexample(self):
        coeffs = np.zeros((5, 5))
        coeffs[4, 0] = 1.0
        ds, dt = interp_gradient_defect(3, coeffs)
        assert max(abs(ds), abs(dt)) > 1e-6
        # oracle agreement
        os_, ot_ = self.symbolic_defect(3, coeffs)
        assert ds == pytest.approx(os_, abs=1e-12)
        assert dt == pytest.approx(ot_, abs=1e-12)

    @pytest.mark.parametrize("k,bound", [(2, 1e-11), (4, 1e-11), (6, 1e-11),
                                         (8, 1e-10)])
    def test_even_degrees_vanish(self, k, bound):
        # k=8 sits above 1e-11 in float64: the equidistant degree-8 basis
        # conditioning amplifies rounding to ~3e-11 of the coefficient scale
        rng = np.random.default_rng(990 + k)
        for _ in range(100):
            coeffs = random_poly(k + 1, rng)
            scale = np.abs(coeffs).max()
            ds, dt = interp_gradient_defect(k, coeffs)
            assert abs(ds) <= bound * scale
            assert abs(dt) <= bound * scale

    @pytest.mark.parametrize("k", [3, 5])
    def test_odd_degrees_defective(self, k, rng):
        worst = 0.0
        for _ in range(20):
            coeffs = random_poly(k + 1, rng)
            ds, dt = interp_gradient_defect(k, coeffs)
            worst = max(worst, abs(ds), abs(dt))
        assert worst > 1e-6

    def test_quadrature_matches_symbolic_oracle(self, rng):
        for k in (2, 3, 4):
            coeffs = random_poly(k + 1, rng)
            got = interp_gradient_defect(k, coeffs)
            want = self.symbolic_defect(k, coeffs)
            assert got[0] == pytest.approx(want[0], abs=1e-11)
            assert got[1] == pytest.approx(want[1], abs=1e-11)


class TestChebyshev:
    def test_grid_shape(self):
        g = sq.cheb_grid(8)
        assert g.nodes_1d[0] == 1.0 and g.nodes_1d[-1] == -1.0
        assert np.all(np.diff(g.nodes_1d) < 0)
        assert g.tensor_nodes.shape == (81, 2)

    def test_two_point_lebesgue_is_one(self):
        assert sq.cheb_lebesgue(1, 2001) == pytest.approx(1.0)

    def test_three_point_lebesgue_exact(self):
        # quadratic Lobatto: Lebesgue function 1 + x - x^2 on [0, 1], max 1.25
        assert sq.cheb_lebesgue(2, 200001) == pytest.approx(1.25, abs=1e-8)

    def test_direct_lagrange_oracle(self):
        # independent product-form Lagrange evaluation at the scan winner
        n = 8
        nodes = sq.cheb_grid(n).nodes_1d
        xs = np.linspace(-1, 1, 200001)
        total = np.zeros_like(xs)
        for i in range(n + 1):
            li = np.ones_like(xs)
            for j in range(n + 1):
                if j != i:
                    li *= (xs - nodes[j]) / (nodes[i] - nodes[j])
            total += np.abs(li)
        assert sq.cheb_lebesgue(n) == pytest.approx(float(total.max()), abs=1e-6)

    def test_logarithmic_growth(self):
        assert sq.cheb_lebesgue(64) / sq.cheb_lebesgue(4) < 3.0

    def test_n10_value_frozen_from_oracle(self):
        # brute-force value; log(n+1) in place of log(n) is the law of the
        # n+1 Chebyshev roots and gives 2.489 here, ~ 0.64/n too high
        assert sq.cheb_lebesgue(10) == pytest.approx(2.42097, abs=2e-4)

    @pytest.mark.parametrize("n", [5, 8, 12, 16, 24, 32, 48, 64])
    def test_equidistant_exceeds_lobatto(self, n):
        assert sq.equidistant_lebesgue(n, 100001) > sq.cheb_lebesgue(n, 100001)

    def test_equidistant_exponential_blowup(self):
        assert sq.equidistant_lebesgue(32) > 1e5

    @pytest.mark.parametrize("n", [48, 62, 63, 64])
    def test_equidistant_follows_its_law(self, n):
        # 2^(n+1) / (e n log n); the barycentric form gave inf at n = 63
        lam = sq.equidistant_lebesgue(n, 20001)
        law = 2.0 ** (n + 1) / (math.e * n * math.log(n))
        assert math.isfinite(lam)
        assert 0.84 < lam / law < 0.88

    def test_equidistant_matches_product_form(self):
        # small n, where the product form is exact to roundoff
        n, x = 8, np.linspace(-1.0, 1.0, 1001)
        nodes = np.linspace(-1.0, 1.0, n + 1)
        total = np.zeros_like(x)
        for i in range(n + 1):
            others = np.delete(nodes, i)
            total += np.abs(np.prod((x[:, None] - others) / (nodes[i] - others),
                                    axis=1))
        assert sq.equidistant_lebesgue(n, 1001) == pytest.approx(
            float(total.max()), rel=1e-13)

    def test_scan_memory_bounded_by_block(self):
        tracemalloc.start()
        try:
            sq.cheb_lebesgue(64, 20001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_formula_value(self):
        # Lobatto law: log(n), not the roots-family log(n+1)
        want = (2 / math.pi) * (math.log(10) + 0.5772156649015329
                                + math.log(8 / math.pi))
        assert sq.lebesgue_formula(10) == pytest.approx(want)
        assert sq.lebesgue_formula(10) == pytest.approx(2.428394, abs=1e-6)
        # within the O(1/n^2) band of the oracle-frozen Lobatto constant
        assert abs(sq.lebesgue_formula(10) - 2.42097) <= 5.0 / 10**2

    def test_validation(self):
        with pytest.raises(ValueError):
            sq.cheb_lebesgue(0)
        with pytest.raises(ValueError):
            sq.cheb_lebesgue(4, 10)
        with pytest.raises(ValueError, match="n must be >= 1"):
            sq.lebesgue_formula(0)
        for grid_density in (0, 2, 999):
            with pytest.raises(ValueError, match="grid_density must be >= 1000"):
                sq.equidistant_lebesgue(40, grid_density)


class TestConditionWarnings:
    def test_degree_12_warns(self):
        basis = sq.lagrange_basis(12)
        assert basis.condition > 1e12
        with pytest.warns(sq.IllConditionedWarning):
            basis.eval(np.array([[0.2, 0.3]]))

    def test_moderate_degree_silent(self, recwarn):
        basis = sq.lagrange_basis(8)
        basis.eval(np.array([[0.2, 0.3]]))
        assert not [w for w in recwarn.list
                    if issubclass(w.category, sq.IllConditionedWarning)]
