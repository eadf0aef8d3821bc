"""One benchmark sample in a fresh process: set up, run a workload once, check it.

    python3 bench/worker.py --workload NAME --seed N --out DIR [--trace FILE]
                            [--smoke] [--setup-only]

The process prints ``ready`` when set-up is done (interpreter start, import,
the degree-12 rule with its moment oracle, the workload's Lagrange bases and
its base mesh), then runs the workload and prints one JSON line with the
result.  Untraced, the run is the surfquad command itself (plus the mesh audit
for the export workload) and ``run_s`` is its wall time.  With ``--trace`` the
same computation is replayed through surfquad's public functions with a span
around each layer call, and the spans are written to FILE at the end.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
RULE_DEGREE = 12


def _import_surfquad():
    sys.path.insert(0, str(ROOT / "src"))
    import surfquad
    return surfquad


def _plain_call(_name, fn, *args):
    return fn(*args)


def setup(sq, w, spec, tracer=None):
    """The work every run of the workload needs before its first element."""
    call = tracer.call if tracer else _plain_call
    surface = sq.parse_surface(spec)
    call("quad.builtin_rule", sq.builtin_rule, RULE_DEGREE)
    bases = [call("interp.lagrange_basis", sq.lagrange_basis, k) for k in w.degrees]
    call("refmesh.generate_base", sq.generate_base, surface, w.kind, w.res)
    return bases


def _digests(paths) -> dict:
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[Path(path).name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _audit(sq, off_path, call) -> dict:
    """The checks a mesh user runs on an exported OFF file."""
    mesh = call("refmesh.read_off", sq.read_off, off_path)
    conforming = call("refmesh.is_conforming_closed", sq.is_conforming_closed, mesh)
    chi = call("refmesh.euler_characteristic", sq.euler_characteristic, mesh)
    census = call("refmesh.symmetry_census", sq.symmetry_census, mesh)
    return {"n_faces": mesh.n_faces, "conforming_closed": bool(conforming),
            "chi": int(chi), "symmetric_pairs": census.n_symmetric_pairs,
            "unpaired": census.n_unpaired}


def _check(w, out_dir, params, audit):
    if w.name == "torus-converge":
        text = Path(out_dir, "converge.csv").read_text(encoding="ascii")
        return workloads.check_converge(w, text, workloads.gauss_bonnet(workloads.TORUS_CHI))
    if w.name == "runge-sweep":
        text = Path(out_dir, "runge.csv").read_text(encoding="ascii")
        return workloads.check_runge(w, text, workloads.gauss_bonnet(workloads.TORUS_CHI))
    return workloads.check_export(w, audit, f"{out_dir}/nodes.csv", params)


def run_untraced(sq, w, spec, out_dir) -> dict:
    from surfquad import cli

    start = time.perf_counter()
    code = cli.main(workloads.cli_argv(w, spec, out_dir))
    audit = None
    if code == 0 and w.name == "ellipsoid-export":
        audit = _audit(sq, f"{out_dir}/mesh.off", _plain_call)
    run_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if code != 0:
        raise RuntimeError(f"surfquad exited with code {code}")
    return {"run_s": run_s, "peak_rss_mb": rss_mb, "audit": audit}


# ---------------------------------------------------------------------------
# traced replay
# ---------------------------------------------------------------------------

def kernel_flop(n_points: int, n_nodes: int, interp: bool) -> int:
    """Floating-point operations of the element kernel, from array shapes.

    Per rule point: three chart contractions over n_nodes nodes and 3
    coordinates (18 n_nodes), the nodal-value contraction in interp mode
    (2 n_nodes), and 22 for the metric, its square root and the weighting.
    """
    return n_points * (18 * n_nodes + (2 * n_nodes if interp else 0) + 22)


def _instrument(sq, tracer, surface):
    """Spans and counts at the layer boundaries the replay crosses.

    The ``project_many`` wrapper stays installed in ``surfquad.curved`` for
    the rest of the process, which serves this one traced replay only.
    """
    def projected(args, result):
        _, _, iters, resid = result
        tracer.count("surfaces.points_projected", len(iters))
        tracer.count("surfaces.newton_iters", int(iters.sum()))
        tracer.keep_max("surfaces.worst_residual", float(resid.max()))

    def built(args, batch):
        tracer.count("curved.unique_nodes", len(batch.unique_nodes))
        tracer.count("curved.node_slots", batch.node_index.size)

    def integrand_points(args, _result):
        tracer.count("surfaces.integrand_points", args[0].size // 3)

    def meshed(args, mesh):
        tracer.keep_max("refmesh.faces", mesh.n_faces)

    sq.curved.project_many = tracer.wrap("surfaces.project_many",
                                         sq.surfaces.project_many, projected)
    build = tracer.wrap("curved.build_surface_elements",
                        sq.build_surface_elements, built)
    generate = tracer.wrap("refmesh.generate_base", sq.generate_base, meshed)
    bisect = tracer.wrap("refmesh.bisect", sq.bisect, meshed)
    if surface is not None:
        surface = dataclasses.replace(
            surface, gauss_curvature=tracer.wrap(
                "surfaces.integrand", surface.gauss_curvature, integrand_points))
    return surface, build, generate, bisect


def _integrate(sq, tracer, mesh, surface, k, rule, mode, threads, batch):
    result = tracer.call("quad.integrate_surface", sq.integrate_surface, mesh,
                         surface, surface.gauss_curvature, k, rule, mode=mode,
                         threads=threads, batch=batch)
    points = batch.n_elements * len(rule.weights)
    tracer.count("quad.quad_points", points)
    tracer.count("quad.kernel_flop",
                 kernel_flop(points, batch.basis.count, mode == sq.MODE_INTERP))
    return result


def replay_converge(sq, tracer, w, spec, out_dir):
    """``surfquad converge``: run_convergence with each batch built explicitly."""
    from surfquad import study
    with tracer.span("cli"):
        surface, build, generate, bisect = _instrument(sq, tracer,
                                                       sq.parse_surface(spec))
        rule = sq.builtin_rule(RULE_DEGREE)
        exact = sq.exact_target(surface, "gauss_curvature")
        k = workloads.CURVED_DEGREE
        rows, prev = [], None
        with tracer.span("study"):
            mesh = generate(surface, w.kind, w.res)
            for level in range(w.levels + 1):
                batch = build(mesh, surface, k)
                result = _integrate(sq, tracer, mesh, surface, k, rule,
                                    sq.MODE_INTERP, w.threads, batch)
                err = sq.error_metric(result.value, exact)
                eoc = (math.log(prev / err) / math.log(2.0)
                       if prev is not None and err > 0 else None)
                rows.append(sq.ConvergenceRow(
                    level=level, h=sq.mesh_size(mesh), n_faces=mesh.n_faces,
                    value=result.value, error=err, eoc=eoc,
                    floored=err <= study.ERROR_FLOOR))
                prev = err
                if level < w.levels:
                    mesh = bisect(mesh)
        text = study.convergence_csv(sq.ConvergenceReport(rows=rows))
        Path(out_dir, "converge.csv").write_text(text, encoding="ascii")


def replay_runge(sq, tracer, w, spec, out_dir):
    """``surfquad runge-study``: run_runge with each batch built explicitly."""
    from surfquad import study
    with tracer.span("cli"):
        surface, build, generate, bisect = _instrument(sq, tracer,
                                                       sq.parse_surface(spec))
        mesh = generate(surface, w.kind, w.res)
        for _ in range(w.levels):
            mesh = bisect(mesh)
        rule = sq.builtin_rule(RULE_DEGREE)
        exact = sq.exact_target(surface, "gauss_curvature")
        rows = []
        with tracer.span("study"):
            for k in w.degrees:
                basis = tracer.call("interp.lagrange_basis", sq.lagrange_basis, k)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    batch = build(mesh, surface, k)
                    result = _integrate(sq, tracer, mesh, surface, k, rule,
                                        sq.MODE_EXACT, w.threads, batch)
                rows.append(sq.RungeRow(
                    k=k, error=sq.error_metric(result.value, exact),
                    cond_warning=basis.condition > study.COND_LIMIT))
        text = study.runge_csv(sq.RungeReport(rows=rows))
        Path(out_dir, "runge.csv").write_text(text, encoding="ascii")


def replay_export(sq, tracer, w, spec, out_dir):
    """``surfquad mesh --curved-nodes`` with the CLI's layer calls wrapped,
    then the mesh audit."""
    from surfquad import cli
    _, build, generate, bisect = _instrument(sq, tracer, None)
    cli.build_surface_elements, cli.generate_base, cli.bisect = build, generate, bisect
    cli.write_off = tracer.wrap("refmesh.write_off", sq.write_off)
    with tracer.span("cli"):
        code = cli.main(workloads.cli_argv(w, spec, out_dir))
    if code != 0:
        raise RuntimeError(f"surfquad exited with code {code}")
    return _audit(sq, f"{out_dir}/mesh.off", tracer.call)


def layer_metrics(tracer: Tracer, bases) -> dict:
    c, m = tracer.counts, tracer.maxima
    integrate_s = tracer.total("quad.integrate_surface")
    gflop = c["quad.kernel_flop"] / 1e9
    points = c["surfaces.points_projected"]
    slots = c["curved.node_slots"]
    return {
        "quad.integrate_surface_s": integrate_s,
        "quad.quad_points": c["quad.quad_points"],
        "quad.kernel_gflop_computed": gflop,
        "quad.gflops_computed": gflop / integrate_s if integrate_s else 0.0,
        "quad.builtin_rule_s": tracer.total("quad.builtin_rule"),
        "curved.build_surface_elements_s": tracer.total("curved.build_surface_elements"),
        "curved.dedup_self_s": tracer.self_time("curved.build_surface_elements"),
        "curved.unique_nodes": c["curved.unique_nodes"],
        "curved.node_slots": slots,
        "curved.node_share": c["curved.unique_nodes"] / slots if slots else 0.0,
        "surfaces.project_many_s": tracer.total("surfaces.project_many"),
        "surfaces.points_projected": points,
        "surfaces.newton_iters": c["surfaces.newton_iters"],
        "surfaces.newton_iters_per_point": (c["surfaces.newton_iters"] / points
                                            if points else 0.0),
        "surfaces.worst_residual": m.get("surfaces.worst_residual", 0.0),
        "surfaces.integrand_s": tracer.total("surfaces.integrand"),
        "surfaces.integrand_points": c["surfaces.integrand_points"],
        "interp.lagrange_basis_s": tracer.total("interp.lagrange_basis"),
        "interp.basis_condition_max": max(b.condition for b in bases),
        "refmesh.generate_base_s": tracer.total("refmesh.generate_base"),
        "refmesh.bisect_s": tracer.total("refmesh.bisect"),
        "refmesh.symmetry_census_s": tracer.total("refmesh.symmetry_census"),
        "refmesh.is_conforming_closed_s": tracer.total("refmesh.is_conforming_closed"),
        "refmesh.off_io_s": (tracer.total("refmesh.write_off")
                             + tracer.total("refmesh.read_off")),
        "refmesh.faces": m.get("refmesh.faces", 0),
        "study.self_s": tracer.self_time("study"),
        "cli.self_s": tracer.self_time("cli"),
    }


def run_traced(sq, tracer, bases, w, spec, out_dir, trace_file) -> dict:
    replay = {"torus-converge": replay_converge, "runge-sweep": replay_runge,
              "ellipsoid-export": replay_export}[w.name]
    with tracer.span("run"):
        audit = replay(sq, tracer, w, spec, out_dir)
    tracer.dump(trace_file)
    layers = layer_metrics(tracer, bases)
    layers["cli.bytes_written"] = sum(
        os.path.getsize(p) for p in workloads.output_files(w, out_dir))
    return {"run_s": tracer.total("run"), "audit": audit, "layers": layers}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for the run's files")
    ap.add_argument("--trace", metavar="FILE", help="replay traced; spans to FILE")
    ap.add_argument("--smoke", action="store_true", help="small test sizes")
    ap.add_argument("--setup-only", action="store_true",
                    help="exit once set-up is done")
    args = ap.parse_args(argv)

    w = workloads.get(args.workload, smoke=args.smoke)
    params = workloads.surface_params(w.surface, args.seed)
    spec = workloads.surface_spec(w.surface, params)
    tracer = Tracer(f"{w.name}/seed{args.seed}") if args.trace else None

    if tracer:
        with tracer.span("setup"):
            sq = tracer.call("import", _import_surfquad)
            bases = setup(sq, w, spec, tracer)
    else:
        sq = _import_surfquad()
        bases = setup(sq, w, spec)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {"workload": w.name, "seed": args.seed, "surface": spec}
    try:
        if tracer:
            result.update(run_traced(sq, tracer, bases, w, spec, args.out, args.trace))
        else:
            result.update(run_untraced(sq, w, spec, args.out))
        problems, err_final = _check(w, args.out, params, result["audit"])
        result.update(problems=problems, err_final=err_final,
                      digests=_digests(workloads.output_files(w, args.out)))
    except Exception:   # reported to the parent as one failed operation
        result["problems"] = [traceback.format_exc(limit=4)]
    result["ok"] = not result["problems"]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
