"""Convergence and Runge-phenomenon studies with CSV reports.

Ground truth comes from topology (the curvature integral of a closed surface
is 2*pi times its Euler characteristic) or from closed-form areas.  Errors at
or below the 1e-13 floating-point floor are flagged and excluded from slope
fits, where they would masquerade as superconvergence.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InsufficientData, StagnationWarning
from .interp import COND_LIMIT, lagrange_basis
from .quad import (MODE_INTERP, QuadratureRule, builtin_rule, constant_one,
                   integrate_surface)
from .refmesh import FlatMesh, bisect, generate_base, mesh_size, project_vertices
from .surfaces import ImplicitSurface, surface_area_exact

ERROR_FLOOR = 1e-13

@dataclass(frozen=True)
class ConvergenceRow:
    level: int
    h: float
    n_faces: int
    value: float
    error: float
    eoc: Optional[float]      # None on the first row
    floored: bool = False     # at/below the floating-point floor


@dataclass(frozen=True)
class ConvergenceReport:
    rows: list[ConvergenceRow]
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RungeRow:
    k: int
    error: float
    cond_warning: bool


@dataclass(frozen=True)
class RungeReport:
    rows: list[RungeRow]
    metadata: dict = field(default_factory=dict)


def error_metric(value: float, exact: float) -> float:
    """|value - exact| / max(1, |exact|).

    Relative against large targets, absolute when the target is zero (the
    torus curvature integral), keeping runs comparable across surfaces.
    """
    if not math.isfinite(exact):
        raise ValueError("exact target must be finite")
    return abs(value - exact) / max(1.0, abs(exact))


def integrand_for(surface: ImplicitSurface, name: str) -> Callable:
    if name == "one":
        return constant_one
    if name == "gauss_curvature":
        return surface.gauss_curvature
    raise ValueError(f"unknown integrand {name!r} (expected one|gauss_curvature)")


def exact_target(surface: ImplicitSurface, f_name: str) -> float:
    """Topological or closed-form ground truth for the study integrand."""
    if f_name == "gauss_curvature":
        chi = surface.euler_characteristic
        if chi is None:
            raise ValueError("surface has no Euler characteristic set")
        return 2.0 * math.pi * chi
    if f_name == "one":
        area = surface_area_exact(surface)
        if area is None:
            raise ValueError(f"no closed-form area for {surface.name}")
        return area
    raise ValueError(f"unknown integrand {f_name!r}")


def run_convergence(surface: ImplicitSurface, kind: str, resolution: int, k: int,
                    f_name: str, levels: int, mode: str = MODE_INTERP,
                    rule: Optional[QuadratureRule] = None, threads: int = 1,
                    reproject_vertices: bool = False) -> ConvergenceReport:
    """Refine ``levels`` times from one shared base mesh and tabulate errors."""
    if rule is None:
        rule = builtin_rule(12)
    f = integrand_for(surface, f_name)
    exact = exact_target(surface, f_name)

    rows: list[ConvergenceRow] = []
    mesh = generate_base(surface, kind, resolution)
    prev_error = None
    for level in range(levels + 1):
        study_mesh = project_vertices(mesh, surface) if reproject_vertices else mesh
        result = integrate_surface(study_mesh, surface, f, k, rule, mode=mode,
                                   threads=threads)
        err = error_metric(result.value, exact)
        floored = err <= ERROR_FLOOR
        if floored:
            warnings.warn(
                f"error {err:.3e} at level {level} hit the {ERROR_FLOOR} floor",
                StagnationWarning, stacklevel=2)
        eoc = None
        if prev_error is not None and err > 0:
            eoc = math.log(prev_error / err) / math.log(2.0)
        rows.append(ConvergenceRow(level=level, h=mesh_size(study_mesh),
                                   n_faces=study_mesh.n_faces,
                                   value=result.value, error=err, eoc=eoc,
                                   floored=floored))
        prev_error = err
        if level < levels:
            mesh = bisect(mesh)

    meta = {"surface": surface.name, "params": dict(surface.params),
            "kind": kind, "resolution": resolution, "k": k, "f": f_name,
            "mode": mode, "rule_degree": rule.degree,
            "project_vertices": reproject_vertices}
    return ConvergenceReport(rows=rows, metadata=meta)


def run_runge(surface: ImplicitSurface, mesh: FlatMesh, k_range, f_name: str,
              mode: str = MODE_INTERP, rule: Optional[QuadratureRule] = None,
              threads: int = 1) -> RungeReport:
    """Sweep the element degree on one fixed mesh (equidistant nodes)."""
    ks = sorted(set(int(k) for k in k_range))
    if any(k < 1 or k > 12 for k in ks):
        raise ValueError("k_range must lie within [1, 12]")
    if rule is None:
        rule = builtin_rule(12)
    f = integrand_for(surface, f_name)
    exact = exact_target(surface, f_name)

    rows = []
    for k in ks:
        basis = lagrange_basis(k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = integrate_surface(mesh, surface, f, k, rule, mode=mode,
                                       threads=threads)
        rows.append(RungeRow(k=k, error=error_metric(result.value, exact),
                             cond_warning=basis.condition > COND_LIMIT))
    meta = {"surface": surface.name, "params": dict(surface.params),
            "n_faces": mesh.n_faces, "f": f_name, "mode": mode,
            "rule_degree": rule.degree}
    return RungeReport(rows=rows, metadata=meta)


def fit_slope(report: ConvergenceReport, tail: int = 3) -> float:
    """Least-squares slope of log(error) vs log(h) over the last usable rows.

    Floored rows and exact zeros are excluded; at least two rows must remain.
    """
    usable = [(r.h, r.error) for r in report.rows
              if not r.floored and r.error > 0.0]
    if len(usable) < 2:
        raise InsufficientData(f"{len(usable)} usable rows, need >= 2")
    usable = usable[-tail:] if tail >= 2 else usable[-2:]
    logh = np.log([h for h, _ in usable])
    loge = np.log([e for _, e in usable])
    slope, _ = np.polyfit(logh, loge, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# report serialization (CSV, with a JSON escape hatch)
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def convergence_csv(report: ConvergenceReport) -> str:
    lines = ["level,h,n_faces,value,error,eoc"]
    for r in report.rows:
        eoc = "" if r.eoc is None else _fmt(r.eoc)
        lines.append(f"{r.level},{_fmt(r.h)},{r.n_faces},{_fmt(r.value)},"
                     f"{_fmt(r.error)},{eoc}")
    return "\n".join(lines) + "\n"


def runge_csv(report: RungeReport) -> str:
    lines = ["k,error,cond_warning"]
    for r in report.rows:
        lines.append(f"{r.k},{_fmt(r.error)},{int(r.cond_warning)}")
    return "\n".join(lines) + "\n"


def lebesgue_csv(rows) -> str:
    """rows: iterable of (n, measured, formula)."""
    lines = ["n,lambda_measured,lambda_formula,diff"]
    for n, measured, formula in rows:
        lines.append(f"{n},{_fmt(measured)},{_fmt(formula)},"
                     f"{_fmt(measured - formula)}")
    return "\n".join(lines) + "\n"


def convergence_json(report: ConvergenceReport) -> str:
    payload = {
        "metadata": report.metadata,
        "rows": [{"level": r.level, "h": r.h, "n_faces": r.n_faces,
                  "value": r.value, "error": r.error, "eoc": r.eoc,
                  "floored": r.floored} for r in report.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def runge_json(report: RungeReport) -> str:
    payload = {
        "metadata": report.metadata,
        "rows": [{"k": r.k, "error": r.error, "cond_warning": r.cond_warning}
                 for r in report.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
