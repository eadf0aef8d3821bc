import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import surfquad as sq
from surfquad.cli import build_parser, main
from surfquad.errors import IntegrationError, OutsideTube
from surfquad.refmesh import KINDS

from conftest import failing_nodes


def cli_process(*args, **env):
    """``surfquad *args`` in a process of its own, with ``env`` added to the
    environment."""
    src = str(Path(sq.__file__).resolve().parent.parent)
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from surfquad.cli import main; sys.exit(main(sys.argv[1:]))",
         *args], env=env, check=True, capture_output=True, text=True)


class TestParsing:
    def test_valid_converge_config(self):
        parser = build_parser()
        args = parser.parse_args(
            "converge --surface torus:R=2,r=1 --kind struct_torus --res 2 "
            "--k 4 --f gauss_curvature --levels 4".split())
        assert args.command == "converge"
        assert args.k == 4 and args.levels == 4 and args.res == 2

    def test_k_out_of_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main("converge --surface sphere:R=1 --kind octa_sphere --k 13".split())
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err

    def test_levels_out_of_range_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main("converge --surface sphere:R=1 --kind octa_sphere "
                 "--levels 9".split())
        assert exc.value.code == 2

    def test_bad_torus_radii_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main("mesh --surface torus:R=1,r=2 --kind struct_torus "
                 "--out /tmp/x.off".split())
        assert exc.value.code == 2
        assert "0 < r < R" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--proj-tol 1e-13", "--proj-max-iter 50"])
    def test_projection_flags_removed_exits_2(self, capsys, flag):
        # the projection tolerance and budget are the projector's constants
        with pytest.raises(SystemExit) as exc:
            main(f"integrate --surface sphere:R=1 --kind octa_sphere "
                 f"{flag}".split())
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_mesh_takes_no_rule_degree(self, capsys):
        # mesh integrates nothing, so it offers no quadrature degree
        with pytest.raises(SystemExit) as exc:
            main("mesh --surface sphere:R=1 --kind octa_sphere --out /tmp/x.off "
                 "--rule-degree 4".split())
        assert exc.value.code == 2
        assert "unrecognized arguments: --rule-degree" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mesh", "integrate"])
    @pytest.mark.parametrize("spec, kind", [
        ("sphere:R=nan", "octa_sphere"), ("sphere:R=inf", "octa_sphere"),
        ("ellipsoid:a=nan,b=1,c=1", "scaled_ellipsoid"),
        ("torus:R=inf,r=1", "struct_torus"),
    ])
    def test_non_finite_surface_parameter_exits_2(self, tmp_path, capsys,
                                                  command, spec, kind):
        # a NaN radius used to write an OFF file of 'nan nan nan' vertices
        out = tmp_path / "x.off"
        with pytest.raises(SystemExit) as exc:
            main(f"{command} --surface {spec} --kind {kind} --res 1 --levels 0 "
                 f"--out {out}".split())
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_surface_key_exits_2(self, tmp_path, capsys):
        # sphere:R=1,R=2 used to write the mesh of the last value, R = 2
        out = tmp_path / "x.off"
        with pytest.raises(SystemExit) as exc:
            main(f"mesh --surface sphere:R=1,R=2 --kind octa_sphere "
                 f"--out {out}".split())
        assert exc.value.code == 2
        assert "repeated surface parameter 'R'" in capsys.readouterr().err
        assert not out.exists()

    def test_kind_choices_from_table(self):
        parser = build_parser()
        for kind in KINDS:
            args = parser.parse_args(f"mesh --surface sphere:R=1 --kind {kind} "
                                     "--out x.off".split())
            assert args.kind == kind
        with pytest.raises(SystemExit):
            parser.parse_args("mesh --surface sphere:R=1 --kind icosahedron "
                              "--out x.off".split())

    def test_unknown_surface_key_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main("mesh --surface sphere:Q=1 --kind octa_sphere "
                 "--out /tmp/x.off".split())
        assert exc.value.code == 2

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("mesh", "integrate", "converge", "runge-study", "lebesgue"):
            assert name in out

    @pytest.mark.parametrize("command", ["mesh", "integrate", "converge",
                                         "runge-study"])
    def test_kind_for_another_surface_exits_2(self, tmp_path, capsys, command):
        # used to print the message and exit 1, the numerical-failure code
        off = tmp_path / "m.off"
        argv = f"{command} --surface sphere:R=1 --kind struct_torus --levels 0".split()
        with pytest.raises(SystemExit) as exc:
            main(argv + (["--out", str(off)] if command == "mesh" else []))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: struct_torus requires the torus surface, got sphere" in err
        assert not off.exists()

    @pytest.mark.parametrize("command", ["converge", "runge-study"])
    def test_missing_study_target_exits_2(self, capsys, monkeypatch, command):
        # the ellipsoid has no closed-form area: a usage error before any mesh
        # is built, where it used to be a ValueError (runge-study's after
        # refining the mesh)
        def no_mesh(*args):
            raise AssertionError("a mesh was built")

        for module in (sq.cli, sq.study):
            monkeypatch.setattr(module, "generate_base", no_mesh)
        with pytest.raises(SystemExit) as exc:
            main(f"{command} --surface ellipsoid:a=1,b=1,c=0.6 --kind scaled_ellipsoid "
                 "--res 1 --levels 1 --f one".split())
        assert exc.value.code == 2
        assert "error: no closed-form area for ellipsoid" in capsys.readouterr().err

    def test_integrate_needs_no_target(self, capsys):
        code = main("integrate --surface ellipsoid:a=1,b=1,c=0.6 --kind "
                    "scaled_ellipsoid --res 1 --levels 1 --k 2 --f one".split())
        assert code == 0
        assert capsys.readouterr().out.startswith("value,n_elements,h\n")


class TestMeshCommand:
    def test_writes_off(self, tmp_path):
        out = tmp_path / "mesh.off"
        code = main(f"mesh --surface sphere:R=1 --kind octa_sphere --res 1 "
                    f"--levels 1 --out {out}".split())
        assert code == 0
        mesh = sq.read_off(out)
        assert mesh.n_faces == 32

    def test_curved_nodes_export(self, tmp_path):
        out = tmp_path / "mesh.off"
        csv = tmp_path / "nodes.csv"
        code = main(f"mesh --surface sphere:R=1 --kind octa_sphere --res 1 "
                    f"--levels 0 --k 2 --out {out} --curved-nodes {csv}".split())
        assert code == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "face,node,x,y,z"
        assert len(lines) == 1 + 8 * 6
        _, _, x, y, z = lines[1].split(",")
        r = np.linalg.norm([float(x), float(y), float(z)])
        assert r == pytest.approx(1.0, abs=1e-11)

    def test_curved_nodes_bytes(self, tmp_path, k=3, surface=sq.ellipsoid(1.0, 1.0, 0.6)):
        # ``surface`` is what the command line parses the spec to
        csv = tmp_path / "nodes.csv"
        code = main(f"mesh --surface ellipsoid:a=1,b=1,c=0.6 --kind scaled_ellipsoid "
                    f"--res 1 --levels 1 --k {k} --out {tmp_path / 'mesh.off'} "
                    f"--curved-nodes {csv}".split())
        assert code == 0
        mesh = sq.bisect(sq.generate_base(surface, "scaled_ellipsoid", 1))
        nodes = sq.build_surface_elements(mesh, surface, k).element_nodes()
        # one row per slot: nodes shared along edges repeat across faces
        rows = [f"{fi},{ni},{float(x)!r},{float(y)!r},{float(z)!r}"
                for fi, face in enumerate(nodes) for ni, (x, y, z) in enumerate(face)]
        assert len({row.split(",", 2)[2] for row in rows}) < len(rows)
        assert csv.read_text() == "face,node,x,y,z\n" + "\n".join(rows) + "\n"

    @pytest.mark.parametrize("k", [1, 10])
    def test_curved_nodes_bytes_at_degree(self, tmp_path, k):
        self.test_curved_nodes_bytes(tmp_path, k)

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_curved_nodes_bytes_newton(self, tmp_path, k, newton_ellipsoid, newton_cli):
        self.test_curved_nodes_bytes(tmp_path, k, newton_ellipsoid)

    def test_curved_nodes_bytes_across_write_blocks(self, tmp_path, monkeypatch,
                                                    passes, surface=sq.ellipsoid(1.0, 1.0, 0.6)):
        # 32 faces, one face range, written in blocks of at most 50 lines:
        # seven blocks of four or five faces of 10 rows at k=3, and one face
        # of 66 rows at k=10.  At k=3 (146 unique nodes) a block shares nodes
        # with an earlier one and uses nodes that sort before those of block
        # 0; every block takes its lines from the range's one node list
        monkeypatch.setattr(sq.blocks, "BLOCK", 50)
        mesh = sq.bisect(sq.generate_base(surface, "scaled_ellipsoid", 1))
        index = sq.build_surface_elements(mesh, surface, 3).node_index
        assert np.intersect1d(index[:4], index[4:9]).size > 0
        assert np.setdiff1d(index[4:], index[:4]).min() < index[:4].max()
        for k in (3, 10):
            self.test_curved_nodes_bytes(tmp_path, k, surface)
        assert passes["_write_curved_nodes"] == [7, 32]

    def test_curved_nodes_bytes_across_write_blocks_newton(
            self, tmp_path, monkeypatch, passes, newton_ellipsoid, newton_cli):
        self.test_curved_nodes_bytes_across_write_blocks(tmp_path, monkeypatch, passes,
                                                         newton_ellipsoid)

    def test_curved_nodes_write_memory_flat(self, tmp_path, monkeypatch):
        # the export's memory above the mesh is one face block's (64 faces of
        # 15 rows, built and written as one block, with the edge table of its
        # own faces), whatever the number of blocks (2 and 32 here): every
        # block is built after the peak is reset
        monkeypatch.setattr(sq.curved, "_FACE_BLOCK", 64)
        monkeypatch.setattr(sq.blocks, "BLOCK", 64 * 15)
        at_first_block = []

        def reset_peak_then_build(mesh, *args):
            if len(at_first_block) < len(peaks) + 1:
                tracemalloc.reset_peak()
                at_first_block.append(tracemalloc.get_traced_memory()[0])
            return sq.build_surface_elements(mesh, *args)

        monkeypatch.setattr(sq.cli, "build_surface_elements", reset_peak_then_build)
        peaks = []
        for levels in (2, 4):
            tracemalloc.start()
            try:
                code = main(f"mesh --surface sphere:R=1 --kind octa_sphere --res 1 "
                            f"--levels {levels} --k 4 --out {tmp_path / 'm.off'} "
                            f"--curved-nodes {tmp_path / 'n.csv'}".split())
                peaks.append(tracemalloc.get_traced_memory()[1] - at_first_block[-1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert len(at_first_block) == 2
        assert peaks[1] < 1.25 * peaks[0]

    def test_curved_nodes_end_before_the_failing_range(self, tmp_path, monkeypatch,
                                                       unit_sphere):
        # two faces appended to the res-1 octahedron: face 9 walks the edge
        # from (1, 0, 0) to (-1, 0, 0), whose midpoint, the sphere's centre,
        # has no closest point.  In ranges 0-3, 3-6 and 6-10 every range is
        # built, the failure is named, and the file holds the first two
        # ranges' rows, those of the octahedron's own export
        base = sq.generate_base(unit_sphere, "octa_sphere", 1)
        mesh = sq.FlatMesh(base.vertices,
                           np.vstack([base.faces, [[0, 1, 4], [1, 0, 5]]]))
        monkeypatch.setattr(sq.curved, "_FACE_BLOCK", 4)
        built = []

        def build(mesh, surface, k, faces):
            built.append(faces)
            return sq.build_surface_elements(mesh, surface, k, faces)

        monkeypatch.setattr(sq.cli, "build_surface_elements", build)
        csv, whole = tmp_path / "nodes.csv", tmp_path / "whole.csv"
        with pytest.raises(IntegrationError) as err:
            sq.cli._write_curved_nodes(mesh, unit_sphere, 2, csv)
        assert built == [slice(0, 3), slice(3, 6), slice(6, 10)]
        [(face, sub)] = err.value.failures
        assert isinstance(sub, OutsideTube) and str(sub).startswith("node 5:")
        assert face == 9
        sq.cli._write_curved_nodes(base, unit_sphere, 2, whole)
        lines = whole.read_bytes().splitlines(keepends=True)
        assert csv.read_bytes() == b"".join(lines[:1 + 6 * 6])

    def test_project_vertices_flag(self, tmp_path):
        out = tmp_path / "proj.off"
        code = main(f"mesh --surface sphere:R=1 --kind octa_sphere --res 1 "
                    f"--levels 2 --out {out} --project-vertices".split())
        assert code == 0
        mesh = sq.read_off(out)
        s = sq.sphere(1.0)
        assert np.max(np.abs(s.phi(mesh.vertices))) <= 1e-12


class TestIntegrateCommand:
    def test_single_csv_line(self, capsys):
        code = main("integrate --surface sphere:R=1 --kind octa_sphere "
                    "--res 1 --levels 1 --k 2 --f one --mode interp".split())
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "value,n_elements,h"
        value, n, h = out[1].split(",")
        assert int(n) == 32
        assert float(value) == pytest.approx(4 * np.pi, rel=1e-2)

    def test_one_conditioning_warning(self):
        # the degree-12 basis warns once per table location, and the tables
        # check the condition once, from one place
        run = cli_process("integrate", "--surface", "sphere:R=1", "--kind",
                          "octa_sphere", "--res", "1", "--levels", "1", "--k", "12",
                          PYTHONWARNINGS="default")
        assert run.stderr.count("IllConditionedWarning") == 1
        assert run.stdout.startswith("value,n_elements,h\n")

    def test_run_binds_no_local_text(self):
        # a local ``text`` would make the text module unbound in all of run
        assert "text" not in sq.cli.run.__code__.co_varnames

    def test_numerical_failure_exits_1(self, capsys, one_iteration_projector,
                                       surface=sq.ellipsoid(1.0, 1.0, 0.6)):
        code = main("integrate --surface ellipsoid:a=1,b=1,c=0.6 "
                    "--kind scaled_ellipsoid --res 1 --levels 1 --k 4 "
                    "--f gauss_curvature".split())
        assert code == 1
        err = capsys.readouterr().err
        assert "face" in err and "node" in err
        # every failing unique node (224 under Newton) is counted, not the first 50
        assert f"({failing_nodes(surface)} face/node failure(s))" in err

    def test_numerical_failure_exits_1_newton(self, capsys, one_iteration_projector,
                                              newton_ellipsoid, newton_cli):
        self.test_numerical_failure_exits_1(capsys, one_iteration_projector,
                                            newton_ellipsoid)


class TestReportCommands:
    def test_lebesgue_rows(self, tmp_path):
        out = tmp_path / "leb.csv"
        code = main(f"lebesgue --n-max 16 --grid-density 20001 "
                    f"--out {out}".split())
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,lambda_measured,lambda_formula,diff"
        assert len(lines) == 17
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) == 1.0
        # lambda_formula is the Lobatto law, so diff sits in its O(1/n^2) band
        for line in lines[1:]:
            n, _, _, diff = line.split(",")
            if int(n) >= 4:
                assert abs(float(diff)) <= 5.0 / int(n)**2, line

    def test_converge_csv_columns(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = main(f"converge --surface sphere:R=1 --kind octa_sphere --res 1 "
                    f"--k 2 --f gauss_curvature --levels 2 --mode interp "
                    f"--out {out}".split())
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "level,h,n_faces,value,error,eoc"
        assert len(lines) == 4

    def test_converge_json_format(self, tmp_path):
        import json
        out = tmp_path / "conv.json"
        code = main(f"converge --surface sphere:R=1 --kind octa_sphere --res 1 "
                    f"--k 1 --f gauss_curvature --levels 1 --format json "
                    f"--out {out}".split())
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["k"] == 1
        assert len(payload["rows"]) == 2

    def test_runge_study_csv(self, tmp_path):
        out = tmp_path / "runge.csv"
        code = main(f"runge-study --surface sphere:R=1 --kind octa_sphere "
                    f"--res 1 --levels 1 --k-min 1 --k-max 3 "
                    f"--f gauss_curvature --out {out}".split())
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "k,error,cond_warning"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "2", "3"]

    def test_runge_study_json_format(self, tmp_path):
        import json
        out, csv = tmp_path / "runge.json", tmp_path / "runge.csv"
        args = ("runge-study --surface sphere:R=1 --kind octa_sphere --res 1 "
                "--levels 1 --k-min 1 --k-max 3 --f gauss_curvature --mode exact")
        assert main(f"{args} --format json --out {out}".split()) == 0
        assert main(f"{args} --out {csv}".split()) == 0
        text = out.read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert payload["metadata"] == {
            "surface": "sphere", "params": {"R": 1.0}, "n_faces": 32,
            "f": "gauss_curvature", "mode": "exact_f", "rule_degree": 12}
        # the rows are the CSV's, each a dict of the row's fields
        rows = [line.split(",") for line in csv.read_text().split()[1:]]
        assert payload["rows"] == [
            {"k": int(k), "error": float(err), "cond_warning": bool(int(warn))}
            for k, err, warn in rows]

    def test_runge_k_range_validated(self):
        with pytest.raises(SystemExit) as exc:
            main("runge-study --surface sphere:R=1 --kind octa_sphere "
                 "--k-min 5 --k-max 2".split())
        assert exc.value.code == 2


class TestFaceBlocks:
    """Outputs are the same bytes whether a mesh is streamed in many face
    blocks or in one, at any --threads."""

    ELLIPSOID = ("converge --surface ellipsoid:a=1,b=1,c=0.6 --kind scaled_ellipsoid "
                 "--res 1 --k 4 --levels 2")

    @pytest.mark.parametrize("command, projector", [
        ("converge --surface torus:R=2,r=1 --kind struct_torus --res 1 --k 4 "
         "--levels 2", None),
        (ELLIPSOID, None),
        (ELLIPSOID, "newton_cli"),
        ("runge-study --surface torus:R=2,r=1 --kind struct_torus --res 1 "
         "--levels 1 --k-max 6", None)],
        ids=["torus", "ellipsoid", "newton-ellipsoid", "runge"])
    def test_report_bytes_across_blocks(self, tmp_path, monkeypatch, command,
                                        projector, request):
        if projector:
            request.getfixturevalue(projector)
        outputs = []
        # blocks of at most 7 faces: 2 to 74 blocks per level
        for block in (1 << 30, 7):
            monkeypatch.setattr(sq.curved, "_FACE_BLOCK", block)
            for threads in (1, 2):
                out = tmp_path / f"{block}-{threads}.csv"
                assert main(f"{command} --threads {threads} --out {out}".split()) == 0
                outputs.append(out.read_bytes())
        assert all(o == outputs[0] for o in outputs[1:])

    def test_curved_nodes_bytes_across_blocks(self, tmp_path, monkeypatch, passes,
                                              surface=sq.ellipsoid(1.0, 1.0, 0.6)):
        # 32 faces in seven blocks of 4 or 5; at k=10 each block's rows are
        # written one face (66 lines) at a time
        monkeypatch.setattr(sq.curved, "_FACE_BLOCK", 5)
        monkeypatch.setattr(sq.blocks, "BLOCK", 70)
        for k, writes in ((1, [1] * 7), (3, [1] * 7), (10, [4, 5, 4, 5, 4, 5, 5])):
            passes.clear()
            TestMeshCommand().test_curved_nodes_bytes(tmp_path, k, surface)
            assert passes["_write_curved_nodes"] == writes

    def test_curved_nodes_bytes_across_blocks_newton(self, tmp_path, monkeypatch, passes,
                                                     newton_ellipsoid, newton_cli):
        self.test_curved_nodes_bytes_across_blocks(tmp_path, monkeypatch, passes,
                                                   newton_ellipsoid)


class TestDeterminism:
    def test_identical_csv_across_thread_counts(self, tmp_path):
        args = ("converge --surface torus:R=2,r=1 --kind struct_torus --res 1 "
                "--k 2 --f gauss_curvature --levels 2 --mode interp")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(f"{args} --threads 1 --out {out1}".split()) == 0
        assert main(f"{args} --threads 4 --out {out2}".split()) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_identical_csv_across_blas_threads(self, tmp_path):
        # OpenBLAS fixes its thread count when it loads, so each setting
        # needs its own process
        args = ("converge --surface torus:R=2,r=1 --kind struct_torus --res 1 "
                "--k 2 --f gauss_curvature --levels 3 --mode interp").split()
        outputs = []
        for blas in ("1", "2"):
            for threads in ("1", "2"):
                out = tmp_path / f"blas{blas}-threads{threads}.csv"
                cli_process(*args, "--threads", threads, "--out", str(out),
                            OPENBLAS_NUM_THREADS=blas)
                outputs.append(out.read_bytes())
        assert outputs[0].count(b"\n") == 5   # header and levels 0-3
        assert all(o == outputs[0] for o in outputs[1:])

    def test_env_default_threads(self, monkeypatch):
        monkeypatch.setenv("SURFQUAD_THREADS", "3")
        parser = build_parser()
        args = parser.parse_args(
            "integrate --surface sphere:R=1 --kind octa_sphere".split())
        assert args.threads == 3

    @pytest.mark.parametrize("value", ["0", "65", "abc"])
    def test_invalid_env_threads_exits_2(self, monkeypatch, value):
        monkeypatch.setenv("SURFQUAD_THREADS", value)
        parser = build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(
                "integrate --surface sphere:R=1 --kind octa_sphere".split())
        assert exc.value.code == 2
