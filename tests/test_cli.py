import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import surfquad as sq
from surfquad.cli import build_parser, main


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

    def test_curved_nodes_bytes(self, tmp_path):
        csv = tmp_path / "nodes.csv"
        code = main(f"mesh --surface ellipsoid:a=1,b=1,c=0.6 --kind scaled_ellipsoid "
                    f"--res 1 --levels 1 --k 3 --out {tmp_path / 'mesh.off'} "
                    f"--curved-nodes {csv}".split())
        assert code == 0
        surface = sq.ellipsoid(1.0, 1.0, 0.6)
        mesh = sq.bisect(sq.generate_base(surface, "scaled_ellipsoid", 1))
        nodes = sq.build_surface_elements(mesh, surface, 3).element_nodes()
        # one row per slot: nodes shared along edges repeat across faces
        rows = [f"{fi},{ni},{float(x)!r},{float(y)!r},{float(z)!r}"
                for fi, face in enumerate(nodes) for ni, (x, y, z) in enumerate(face)]
        assert len({row.split(",", 2)[2] for row in rows}) < len(rows)
        assert csv.read_text() == "face,node,x,y,z\n" + "\n".join(rows) + "\n"

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

    def test_numerical_failure_exits_1(self, capsys, one_iteration_projector):
        code = main("integrate --surface ellipsoid:a=1,b=1,c=0.6 "
                    "--kind scaled_ellipsoid --res 1 --levels 1 --k 4 "
                    "--f gauss_curvature".split())
        assert code == 1
        err = capsys.readouterr().err
        assert "face" in err and "node" in err


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

    def test_runge_k_range_validated(self):
        with pytest.raises(SystemExit) as exc:
            main("runge-study --surface sphere:R=1 --kind octa_sphere "
                 "--k-min 5 --k-max 2".split())
        assert exc.value.code == 2


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
        src = str(Path(sq.__file__).resolve().parent.parent)
        outputs = []
        for blas in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            for threads in ("1", "2"):
                out = tmp_path / f"blas{blas}-threads{threads}.csv"
                subprocess.run(
                    [sys.executable, "-c",
                     "import sys; from surfquad.cli import main; "
                     "sys.exit(main(sys.argv[1:]))",
                     *args, "--threads", threads, "--out", str(out)],
                    env=env, check=True)
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
