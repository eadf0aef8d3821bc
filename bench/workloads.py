"""The benchmark's workloads: inputs made from a seed, CLI arguments, output checks.

Every check compares the program's output with a target the benchmark knows
independently of the program: the Gauss-Bonnet value 2*pi*chi for the
curvature integral, the Euler characteristic 2 of a closed genus-0 mesh, and
the ellipsoid's own level function for exported nodes.  The module needs only
numpy, so the checks can be exercised without importing surfquad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative half-width of the seeded perturbation of every surface parameter.
# Seed 0 is the nominal surface.  Mesh topology depends only on the mesh kind,
# resolution and levels, so face and node counts are the same for every seed.
PERTURBATION = 0.02

NOMINAL = {
    "torus": {"R": 2.0, "r": 1.0},
    "ellipsoid": {"a": 1.0, "b": 1.0, "c": 0.6},
}

TORUS_CHI = 0
ELLIPSOID_CHI = 2
CURVED_DEGREE = 4          # element degree of the study and export workloads
NODES_PER_FACE = (CURVED_DEGREE + 1) * (CURVED_DEGREE + 2) // 2
SLOPE_TARGET = CURVED_DEGREE + 2     # even k converges like h^(k+2)
SLOPE_TOL = 0.4
NODE_DISTANCE_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    """One benchmark workload at one size."""

    name: str
    surface: str             # key of NOMINAL
    kind: str                # surfquad base-mesh kind
    res: int
    levels: int
    degrees: tuple           # Lagrange degrees the run builds bases for
    threads: int             # worker threads given to the element loop
    err_tol: float           # err_final must stay below this

    @property
    def base_faces(self) -> int:
        if self.kind == "struct_torus":
            return 2 * (4 * self.res) ** 2
        return 8 * self.res ** 2

    @property
    def faces(self) -> int:
        """Faces of the finest mesh."""
        return self.base_faces * 4 ** self.levels

    @property
    def elements(self) -> int:
        """Curved elements integrated or exported by one run."""
        if self.name == "torus-converge":
            return sum(self.base_faces * 4 ** lv for lv in range(self.levels + 1))
        if self.name == "runge-sweep":
            return self.faces * len(self.degrees)
        return self.faces


_FULL = {
    "torus-converge": Workload("torus-converge", "torus", "struct_torus", 2, 4,
                               (CURVED_DEGREE,), 2, 1e-8),
    "runge-sweep": Workload("runge-sweep", "torus", "struct_torus", 2, 2,
                            tuple(range(1, 11)), 1, 1e-8),
    "ellipsoid-export": Workload("ellipsoid-export", "ellipsoid",
                                 "scaled_ellipsoid", 4, 4, (CURVED_DEGREE,), 1,
                                 NODE_DISTANCE_TOL),
}

# Small sizes for the benchmark's own tests; the error bounds follow the
# coarser meshes.
_SMOKE = {
    "torus-converge": Workload("torus-converge", "torus", "struct_torus", 2, 2,
                               (CURVED_DEGREE,), 2, 1e-5),
    "runge-sweep": Workload("runge-sweep", "torus", "struct_torus", 2, 1,
                            tuple(range(1, 11)), 1, 1e-6),
    "ellipsoid-export": Workload("ellipsoid-export", "ellipsoid",
                                 "scaled_ellipsoid", 2, 1, (CURVED_DEGREE,), 1,
                                 NODE_DISTANCE_TOL),
}

NAMES = tuple(_FULL)


def get(name: str, smoke: bool = False) -> Workload:
    table = _SMOKE if smoke else _FULL
    if name not in table:
        raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(NAMES)})")
    return table[name]


def surface_params(surface: str, seed: int) -> dict:
    """Nominal parameters at seed 0, each scaled by 1 +- PERTURBATION otherwise."""
    params = dict(NOMINAL[surface])
    if seed != 0:
        rng = np.random.default_rng(seed)
        for key in params:
            params[key] *= 1.0 + PERTURBATION * rng.uniform(-1.0, 1.0)
    return params


def surface_spec(surface: str, params: dict) -> str:
    """CLI surface string; repr keeps every digit, so parsing is exact."""
    return surface + ":" + ",".join(f"{k}={float(v)!r}" for k, v in params.items())


def cli_argv(w: Workload, spec: str, out_dir: str) -> list[str]:
    """Arguments of the surfquad command the workload runs."""
    mesh = ["--surface", spec, "--kind", w.kind, "--res", str(w.res),
            "--levels", str(w.levels)]
    if w.name == "torus-converge":
        return (["converge"] + mesh
                + ["--k", str(CURVED_DEGREE), "--mode", "interp",
                   "--f", "gauss_curvature", "--threads", str(w.threads),
                   "--out", f"{out_dir}/converge.csv"])
    if w.name == "runge-sweep":
        return (["runge-study"] + mesh
                + ["--k-min", str(min(w.degrees)), "--k-max", str(max(w.degrees)),
                   "--mode", "exact", "--f", "gauss_curvature",
                   "--threads", str(w.threads), "--out", f"{out_dir}/runge.csv"])
    return (["mesh"] + mesh
            + ["--k", str(CURVED_DEGREE), "--threads", str(w.threads),
               "--out", f"{out_dir}/mesh.off",
               "--curved-nodes", f"{out_dir}/nodes.csv"])


def output_files(w: Workload, out_dir: str) -> list[str]:
    if w.name == "torus-converge":
        return [f"{out_dir}/converge.csv"]
    if w.name == "runge-sweep":
        return [f"{out_dir}/runge.csv"]
    return [f"{out_dir}/mesh.off", f"{out_dir}/nodes.csv"]


def gauss_bonnet(chi: int) -> float:
    return 2.0 * math.pi * chi


# ---------------------------------------------------------------------------
# output checks: each returns (problems, err_final); no problems means correct
# ---------------------------------------------------------------------------

def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected CSV header {header!r}")
    return [line.split(",") for line in lines[1:]]


def check_converge(w: Workload, text: str, target: float):
    """Refinement rows against the Gauss-Bonnet target."""
    problems = []
    rows = _csv_rows(text, "level,h,n_faces,value,error,eoc")
    if len(rows) != w.levels + 1:
        return [f"{len(rows)} rows, expected {w.levels + 1}"], math.inf
    h, err = [], []
    for level, row in enumerate(rows):
        value, reported = float(row[3]), float(row[4])
        if int(row[0]) != level or int(row[2]) != w.base_faces * 4 ** level:
            problems.append(f"row {level}: level/face count {row[0]}/{row[2]}")
        distance = abs(value - target) / max(1.0, abs(target))
        if not math.isfinite(distance) or reported != distance:
            problems.append(f"level {level}: error column {reported!r} is not "
                            f"|value - target| = {distance!r}")
        h.append(float(row[1]))
        err.append(distance)
    tail = slice(-3, None)
    slope = float(np.polyfit(np.log(h[tail]), np.log(err[tail]), 1)[0])
    if not abs(slope - SLOPE_TARGET) <= SLOPE_TOL:
        problems.append(f"fitted slope {slope:.3f} not within {SLOPE_TOL} of "
                        f"{SLOPE_TARGET}")
    if not err[-1] < w.err_tol:
        problems.append(f"finest-level error {err[-1]:.3e} >= {w.err_tol:.0e}")
    return problems, err[-1]


def check_runge(w: Workload, text: str, target: float):
    """Degree sweep: one finite row per degree, minimum error below the bound.

    The CSV holds error = |value - 2*pi*chi| and the program's torus target is
    0, so value = +-error and |value - target| >= ||target| - error|, with
    equality for the true target 0.  A wrong target therefore cannot pass.
    """
    problems = []
    rows = _csv_rows(text, "k,error,cond_warning")
    ks = [int(r[0]) for r in rows]
    if ks != list(w.degrees):
        return [f"degrees {ks}, expected {list(w.degrees)}"], math.inf
    dist = []
    for k, row in zip(ks, rows):
        error = float(row[1])
        if not math.isfinite(error) or row[2] not in ("0", "1"):
            problems.append(f"k={k}: malformed row {row}")
        dist.append(abs(abs(target) - error))
    best = min(dist)
    if not best < w.err_tol:
        problems.append(f"minimum error over k {best:.3e} >= {w.err_tol:.0e}")
    return problems, best


def ellipsoid_distance(nodes: np.ndarray, params: dict) -> np.ndarray:
    """|phi| / |grad phi| of x^2/a^2 + y^2/b^2 + z^2/c^2 - 1 at each node."""
    inv2 = 1.0 / np.array([params["a"], params["b"], params["c"]]) ** 2
    phi = (nodes * nodes) @ inv2 - 1.0
    grad = np.linalg.norm(2.0 * nodes * inv2, axis=1)
    return np.abs(phi) / grad


def check_export(w: Workload, audit: dict, csv_path: str, params: dict,
                 chi_target: int = ELLIPSOID_CHI):
    """OFF read back conforming and closed, node table complete and on surface."""
    problems = []
    if audit["n_faces"] != w.faces:
        problems.append(f"OFF has {audit['n_faces']} faces, expected {w.faces}")
    if not audit["conforming_closed"]:
        problems.append("OFF mesh is not conforming and closed")
    if audit["chi"] != chi_target:
        problems.append(f"Euler characteristic {audit['chi']}, expected {chi_target}")
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (w.faces * NODES_PER_FACE, 5):
        return problems + [f"node CSV shape {table.shape}, expected "
                           f"({w.faces * NODES_PER_FACE}, 5)"], math.inf
    faces = np.repeat(np.arange(w.faces), NODES_PER_FACE)
    nodes = np.tile(np.arange(NODES_PER_FACE), w.faces)
    if not (np.array_equal(table[:, 0], faces) and np.array_equal(table[:, 1], nodes)):
        problems.append("node CSV face/node columns out of order")
    worst = float(np.max(ellipsoid_distance(table[:, 2:], params)))
    if not worst <= NODE_DISTANCE_TOL:
        problems.append(f"node {worst:.3e} off the surface (> {NODE_DISTANCE_TOL:.0e})")
    return problems, worst
