"""Command-line front end: mesh / integrate / converge / runge-study / lebesgue.

Exit codes: 0 success, 1 numerical failure (projection or Jacobian trouble,
diagnostic on stderr with the offending face/node), 2 usage error.  Output is
CSV with shortest round-trip float formatting; identical configurations
produce byte-identical files regardless of --threads.  The bulk text, the
curved-node CSV and the OFF file, is built in numpy by ``text``, whose floats
equal ``repr`` byte for byte, written at most ``blocks.BLOCK`` lines at a time.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import blocks, study, text
from .curved import build_surface_elements, face_blocks, merged_failures
from .errors import IntegrationError, SurfquadError, TopologyMismatch
from .interp import cheb_lebesgue, lagrange_basis, lebesgue_formula
from .quad import MODE_EXACT, MODE_INTERP, integrate_surface
from .quadrules import builtin_rule
from .refmesh import (KINDS, bisect, generate_base, mesh_size, project_vertices,
                      write_off)
from .surfaces import parse_surface

_MODES = {"exact": MODE_EXACT, "interp": MODE_INTERP}


def _ranged_int(name, lo, hi):
    def parse(arg):
        try:
            value = int(arg)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer") from None
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{name} must be in [{lo}, {hi}]")
        return value
    return parse


def _add_common(p, *, levels_default=3, with_k=True, with_rule=True):
    p.add_argument("--surface", required=True,
                   help="surface spec, e.g. sphere:R=1 | torus:R=2,r=1 | "
                        "ellipsoid:a=1,b=1,c=0.6")
    p.add_argument("--kind", required=True,
                   choices=list(KINDS),
                   help="base mesh generator")
    p.add_argument("--res", type=_ranged_int("--res", 1, 64), default=1,
                   help="base mesh resolution (default 1)")
    p.add_argument("--levels", type=_ranged_int("--levels", 0, 8),
                   default=levels_default,
                   help=f"bisection refinements (default {levels_default})")
    if with_k:
        p.add_argument("--k", type=_ranged_int("--k", 1, 12), default=2,
                       help="curved element degree (default 2)")
    if with_rule:
        p.add_argument("--rule-degree", type=_ranged_int("--rule-degree", 1, 12),
                       default=12, help="quadrature degree (default 12)")
    p.add_argument("--threads", type=_ranged_int("--threads", 1, 64),
                   default=os.environ.get("SURFQUAD_THREADS", "1"),
                   help="face ranges built and integrated at once "
                        "(default $SURFQUAD_THREADS or 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfquad",
        description="High-order surface integration over curved triangulations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="generate a refined flat mesh as an OFF file")
    _add_common(p, with_rule=False)
    p.add_argument("--out", required=True, help="output OFF path")
    p.add_argument("--project-vertices", action="store_true",
                   help="re-project refined vertices onto the surface")
    p.add_argument("--curved-nodes", metavar="CSV",
                   help="also export projected curved nodes (face,node,x,y,z)")

    p = sub.add_parser("integrate", help="integrate f over the curved surface")
    _add_common(p)
    p.add_argument("--f", choices=["one", "gauss_curvature"], default="one")
    p.add_argument("--mode", choices=["exact", "interp"], default="interp")
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("converge", help="refinement study with error and EOC rows")
    _add_common(p, levels_default=4)
    p.add_argument("--f", choices=["one", "gauss_curvature"],
                   default="gauss_curvature")
    p.add_argument("--mode", choices=["exact", "interp"], default="interp")
    p.add_argument("--project-vertices", action="store_true",
                   help="re-project refined vertices (breaks pair symmetry)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="write report here instead of stdout")

    p = sub.add_parser("runge-study", help="degree sweep on one fixed mesh")
    _add_common(p, levels_default=2, with_k=False)
    p.add_argument("--k-min", type=_ranged_int("--k-min", 1, 12), default=1)
    p.add_argument("--k-max", type=_ranged_int("--k-max", 1, 12), default=10)
    p.add_argument("--f", choices=["one", "gauss_curvature"],
                   default="gauss_curvature")
    p.add_argument("--mode", choices=["exact", "interp"], default="interp")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="write report here instead of stdout")

    p = sub.add_parser("lebesgue", help="Chebyshev-Lobatto Lebesgue constants")
    p.add_argument("--n-max", type=_ranged_int("--n-max", 1, 256), default=64)
    p.add_argument("--grid-density", type=_ranged_int("--grid-density", 1000, 10**7),
                   default=200001)
    p.add_argument("--out", help="write CSV here instead of stdout")

    return parser


def _emit(content: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(content)
    else:
        sys.stdout.write(content)


def _surface_or_usage(parser, args):
    """The parsed ``--surface``, which must have the target of a study."""
    try:
        surface = parse_surface(args.surface)
        if args.command in ("converge", "runge-study"):
            study.exact_target(surface, args.f)
        return surface
    except ValueError as exc:
        parser.error(str(exc))


def _refined_mesh(surface, args):
    mesh = generate_base(surface, args.kind, args.res)
    for _ in range(args.levels):
        mesh = bisect(mesh)
    return mesh


def _write_curved_nodes(mesh, surface, k, path) -> None:
    """The projected nodes of every face as CSV rows face,node,x,y,z, built
    a face block at a time and written at most ``blocks.BLOCK`` lines (whole
    faces) at a time.  Projection failures of all blocks are raised together;
    the file then ends before the first failing block."""
    count = lagrange_basis(k).count
    node_cols = text.concat(text.literal(","), text.ints(range(count)), text.literal(","))
    failed = []
    with open(path, "wb") as fh:
        fh.write(b"face,node,x,y,z\n")
        for faces in face_blocks(mesh.n_faces):
            try:
                batch = build_surface_elements(mesh, surface, k, faces)
            except IntegrationError as exc:
                failed.append(exc)
            if failed:
                continue
            # each node of the block is formatted once; a node shared with
            # another block is formatted in each
            coords = text.line(text.floats(batch.unique_nodes), ",")
            for rows in blocks.blocks(batch.n_elements, blocks.BLOCK // count):
                face = text.ints(np.arange(faces.start + rows.start,
                                           faces.start + rows.stop)[:, None])
                fh.write(text.packed(text.concat(face, node_cols,
                                                 coords[batch.node_index[rows]])))
    if failed:
        raise merged_failures(failed) from failed[0]


def run(args, parser) -> int:
    surface = None
    if hasattr(args, "surface"):
        surface = _surface_or_usage(parser, args)

    if args.command == "mesh":
        mesh = _refined_mesh(surface, args)
        if args.project_vertices:
            mesh = project_vertices(mesh, surface)
        write_off(mesh, args.out)
        if args.curved_nodes:
            _write_curved_nodes(mesh, surface, args.k, args.curved_nodes)
        return 0

    if args.command == "integrate":
        mesh = _refined_mesh(surface, args)
        rule = builtin_rule(args.rule_degree)
        f = study.integrand_for(surface, args.f)
        result = integrate_surface(mesh, surface, f, args.k, rule,
                                   mode=_MODES[args.mode], threads=args.threads)
        table = ("value,n_elements,h\n"
                 f"{result.value!r},{result.n_elements},{mesh_size(mesh)!r}\n")
        _emit(table, args.out)
        return 0

    if args.command == "converge":
        rule = builtin_rule(args.rule_degree)
        report = study.run_convergence(surface, args.kind, args.res, args.k,
                                       args.f, args.levels,
                                       mode=_MODES[args.mode], rule=rule,
                                       threads=args.threads,
                                       reproject_vertices=args.project_vertices)
        _emit(study.convergence_csv(report) if args.format == "csv"
              else study.report_json(report), args.out)
        return 0

    if args.command == "runge-study":
        if args.k_min > args.k_max:
            parser.error("--k-min must not exceed --k-max")
        mesh = _refined_mesh(surface, args)
        rule = builtin_rule(args.rule_degree)
        report = study.run_runge(surface, mesh, range(args.k_min, args.k_max + 1),
                                 args.f, mode=_MODES[args.mode], rule=rule,
                                 threads=args.threads)
        _emit(study.runge_csv(report) if args.format == "csv"
              else study.report_json(report), args.out)
        return 0

    if args.command == "lebesgue":
        rows = []
        for n in range(1, args.n_max + 1):
            rows.append((n, cheb_lebesgue(n, args.grid_density),
                         lebesgue_formula(n)))
        _emit(study.lebesgue_csv(rows), args.out)
        return 0

    parser.error(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args, parser)
    except IntegrationError as exc:
        for face, err in exc.failures[:20]:
            print(f"surfquad: face {face}: {err}", file=sys.stderr)
        print(f"surfquad: integration failed ({len(exc.failures)} face/node "
              "failure(s))", file=sys.stderr)
        return 1
    except TopologyMismatch as exc:
        parser.error(str(exc))
    except SurfquadError as exc:
        print(f"surfquad: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
