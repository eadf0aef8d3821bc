import json
import math
import warnings

import numpy as np
import pytest

import surfquad as sq
from surfquad import study
from surfquad.errors import InsufficientData
from surfquad.quad import MODE_EXACT
from surfquad.study import (ConvergenceReport, ConvergenceRow, convergence_csv,
                            error_metric, fit_slope, lebesgue_csv, report_json,
                            runge_csv)


def synthetic_report(errors, h0=1.0):
    rows = []
    prev = None
    for i, err in enumerate(errors):
        eoc = None if prev is None else math.log(prev / err) / math.log(2)
        rows.append(ConvergenceRow(level=i, h=h0 / 2**i, n_faces=8 * 4**i,
                                   value=float("nan"), error=err, eoc=eoc))
        prev = err
    return ConvergenceReport(rows=rows, metadata={})


class TestErrorMetric:
    def test_relative_branch(self):
        assert error_metric(12.566, 4 * math.pi) == pytest.approx(2.95e-5, rel=2e-2)

    def test_absolute_branch_at_zero_target(self):
        assert error_metric(1e-8, 0.0) == pytest.approx(1e-8)

    def test_exact_hit(self):
        assert error_metric(4 * math.pi, 4 * math.pi) == 0.0

    def test_scale_consistency(self):
        # doubling value and a >= 1 target preserves comparisons across runs
        a = error_metric(10.0, 9.0)
        b = error_metric(20.0, 18.0)
        assert a == pytest.approx(b)

    def test_rejects_nonfinite_target(self):
        with pytest.raises(ValueError):
            error_metric(1.0, float("inf"))


class TestFitSlope:
    def test_two_rows_log2_ratio(self):
        rep = synthetic_report([1e-2, 6.25e-4])
        assert fit_slope(rep) == pytest.approx(4.0)

    def test_constant_errors(self):
        rep = synthetic_report([1e-3, 1e-3, 1e-3])
        assert fit_slope(rep) == pytest.approx(0.0, abs=1e-12)

    def test_exact_power_law(self):
        rep = synthetic_report([0.5 * (1 / 2**i) ** 5 for i in range(4)])
        assert fit_slope(rep, tail=4) == pytest.approx(5.0, abs=1e-12)

    def test_tail_selection(self):
        # early garbage is ignored when the tail window excludes it
        rep = synthetic_report([1.0, 1.0, 1e-2, 2.5e-3, 6.25e-4])
        assert fit_slope(rep, tail=3) == pytest.approx(2.0, abs=1e-12)

    def test_floored_rows_excluded(self):
        rows = synthetic_report([1e-2, 1e-3, 1e-14, 1e-14]).rows
        rows = [ConvergenceRow(r.level, r.h, r.n_faces, r.value, r.error,
                               r.eoc, floored=r.error <= 1e-13) for r in rows]
        rep = ConvergenceReport(rows=rows, metadata={})
        assert fit_slope(rep, tail=4) == pytest.approx(math.log2(10), rel=1e-12)

    def test_insufficient_data(self):
        rep = synthetic_report([1e-2])
        with pytest.raises(InsufficientData):
            fit_slope(rep)


@pytest.fixture(scope="module")
def sphere_k2_report():
    surf = sq.sphere(1.0)
    return study.run_convergence(surf, "octa_sphere", 1, 2,
                                 "gauss_curvature", 3)


class TestRunConvergence:
    def test_h_halves_per_row(self, sphere_k2_report):
        hs = [r.h for r in sphere_k2_report.rows]
        for a, b in zip(hs, hs[1:]):
            assert b == pytest.approx(a / 2, rel=1e-14)

    def test_eoc_definition(self, sphere_k2_report):
        rows = sphere_k2_report.rows
        assert rows[0].eoc is None
        for prev, cur in zip(rows, rows[1:]):
            assert cur.eoc == pytest.approx(
                math.log(prev.error / cur.error) / math.log(2))

    def test_terminal_order_near_four(self, sphere_k2_report):
        assert fit_slope(sphere_k2_report) == pytest.approx(4.0, abs=0.6)

    def test_area_study_against_closed_form(self):
        surf = sq.torus(2.0, 1.0)
        rep = study.run_convergence(surf, "struct_torus", 2, 2, "one", 2)
        assert rep.rows[-1].error < 1e-4
        assert rep.metadata["f"] == "one"

    def test_ellipsoid_area_has_no_target(self, flat_ellipsoid):
        with pytest.raises(ValueError):
            study.run_convergence(flat_ellipsoid, "scaled_ellipsoid", 1, 1,
                                  "one", 1)

    def test_project_vertices_toggle_recorded(self):
        surf = sq.sphere(1.0)
        rep = study.run_convergence(surf, "octa_sphere", 1, 2,
                                    "gauss_curvature", 2,
                                    reproject_vertices=True)
        assert rep.metadata["project_vertices"] is True
        assert fit_slope(rep, tail=3) > 2.0   # recorded, not asserted at k+2

    def test_floor_rows_flagged_with_warning(self, monkeypatch):
        monkeypatch.setattr(study, "ERROR_FLOOR", 1e-2)
        surf = sq.sphere(1.0)
        with pytest.warns(sq.StagnationWarning):
            rep = study.run_convergence(surf, "octa_sphere", 1, 2,
                                        "gauss_curvature", 2)
        assert any(r.floored for r in rep.rows)

    def test_zero_error_level_has_no_eoc(self, monkeypatch):
        # the order next to an error of exactly 0.0 is undefined (log of 0)
        exact = 4 * math.pi
        values = iter([exact, 1.001 * exact, 1.0001 * exact, exact])
        monkeypatch.setattr(study, "integrate_surface",
                            lambda mesh, surface, f, k, rule, **kw: sq.IntegralResult(
                                next(values), mesh.n_faces, kw["mode"], k))
        with pytest.warns(sq.StagnationWarning):
            rep = study.run_convergence(sq.sphere(1.0), "octa_sphere", 1, 2, "one", 3)
        assert [r.error == 0.0 for r in rep.rows] == [True, False, False, True]
        assert rep.rows[1].eoc is None and rep.rows[3].eoc is None
        assert rep.rows[2].eoc == pytest.approx(math.log2(10.0), rel=1e-9)
        eocs = [line.rsplit(",", 1)[1] for line in convergence_csv(rep).splitlines()]
        assert eocs[1:3] == ["", ""] and eocs[4] == ""


class TestRunRunge:
    def test_k1_matches_convergence_level0(self):
        surf = sq.torus(2.0, 1.0)
        mesh = sq.generate_base(surf, "struct_torus", 1)
        runge = study.run_runge(surf, mesh, [1, 2], "gauss_curvature")
        conv = study.run_convergence(surf, "struct_torus", 1, 1,
                                     "gauss_curvature", 0)
        assert runge.rows[0].error == conv.rows[0].error

    def test_only_conditioning_warnings_hidden(self):
        # the cond_warning column reports the basis condition; any other
        # warning, here the curvature's off the surface, still shows
        def curvature(p):
            r = np.linalg.norm(p, axis=-1)
            if np.any(np.abs(r - 1.0) > 1e-9):
                warnings.warn("curvature off the sphere", RuntimeWarning)
            return np.ones(r.shape)

        surf = sq.from_level_set(
            phi=lambda p: np.einsum("...i,...i->...", p, p) - 1.0,
            grad_phi=lambda p: 2.0 * np.asarray(p, dtype=float),
            gauss_curvature=curvature, euler_characteristic=2)
        mesh = sq.generate_base(sq.sphere(1.0), "octa_sphere", 1)
        with pytest.warns(RuntimeWarning, match="off the sphere") as record:
            rep = study.run_runge(surf, mesh, [1, 12], "gauss_curvature",
                                  mode=MODE_EXACT)
        assert not [w for w in record
                    if issubclass(w.category, sq.IllConditionedWarning)]
        assert [r.cond_warning for r in rep.rows] == [False, True]

    def test_rows_sorted_and_validated(self):
        surf = sq.sphere(1.0)
        mesh = sq.generate_base(surf, "octa_sphere", 1)
        rep = study.run_runge(surf, mesh, [3, 1, 2], "gauss_curvature")
        assert [r.k for r in rep.rows] == [1, 2, 3]
        with pytest.raises(ValueError):
            study.run_runge(surf, mesh, [0, 1], "gauss_curvature")


class TestReports:
    def test_convergence_csv_shape(self):
        rep = synthetic_report([1e-1, 1e-2])
        text = convergence_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == "level,h,n_faces,value,error,eoc"
        assert lines[1].endswith(",")          # first row has empty eoc
        assert len(lines) == 3

    def test_csv_floats_round_trip(self):
        rep = synthetic_report([0.1, 0.0125])
        line = convergence_csv(rep).strip().split("\n")[2]
        fields = line.split(",")
        assert float(fields[1]) == 0.5
        assert float(fields[4]) == 0.0125

    def test_runge_csv(self):
        surf = sq.sphere(1.0)
        mesh = sq.generate_base(surf, "octa_sphere", 1)
        rep = study.run_runge(surf, mesh, [1, 2], "gauss_curvature")
        lines = runge_csv(rep).strip().split("\n")
        assert lines[0] == "k,error,cond_warning"
        assert lines[1].startswith("1,")
        assert lines[1].endswith(",0")

    def test_lebesgue_csv(self):
        text = lebesgue_csv([(1, 1.0, 1.4), (2, 1.25, 1.66)])
        lines = text.strip().split("\n")
        assert lines[0] == "n,lambda_measured,lambda_formula,diff"
        assert len(lines) == 3

    def test_json_mirrors_fields(self):
        rep = synthetic_report([1e-1, 1e-2])
        payload = json.loads(report_json(rep))
        assert payload["rows"][0]["eoc"] is None
        assert payload["rows"][1]["error"] == 1e-2


class TestExactTargets:
    def test_topological_targets(self, unit_sphere, torus21, flat_ellipsoid):
        assert study.exact_target(unit_sphere, "gauss_curvature") == pytest.approx(
            4 * math.pi)
        assert study.exact_target(torus21, "gauss_curvature") == 0.0
        assert study.exact_target(flat_ellipsoid, "gauss_curvature") == pytest.approx(
            4 * math.pi)

    def test_area_targets(self, unit_sphere, torus21):
        assert study.exact_target(unit_sphere, "one") == pytest.approx(4 * math.pi)
        assert study.exact_target(torus21, "one") == pytest.approx(8 * math.pi**2)
