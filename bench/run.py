"""surfquad benchmark: run one workload for a fixed time, check it, report metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is a fresh worker process (bench/worker.py), started back to back
(a closed loop with one client) until the next sample would overrun
``--seconds``.  With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` every sample is an untraced run followed by a traced replay of
the same computation, the replay's outputs must equal the untraced outputs
byte for byte, and the per-layer metrics are reported.  Values are medians
over the samples.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"
# A run must end within 180 s: no worker may outlive this many seconds from
# the start of the run.
DEADLINE_S = 170.0
# setup_s takes its median over at least this many fresh processes; set-up-only
# processes make up the count when the workload samples are fewer.
SETUP_SAMPLES = 9

# One BLAS thread per process: the element loop's own pool is the only
# parallelism, so a workload never uses more threads than its --threads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

END_TO_END = {"run_s": "s", "elements_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB", "err_final": "1"}

PER_LAYER = {
    "quad.integrate_surface_s": "s", "quad.quad_points": "count",
    "quad.kernel_gflop_computed": "GFLOP", "quad.gflops_computed": "GFLOP/s",
    "quad.builtin_rule_s": "s",
    "curved.build_surface_elements_s": "s", "curved.dedup_self_s": "s",
    "curved.unique_nodes": "count", "curved.node_slots": "count",
    "curved.node_share": "ratio",
    "surfaces.project_many_s": "s", "surfaces.points_projected": "count",
    "surfaces.newton_iters": "count", "surfaces.newton_iters_per_point": "1",
    "surfaces.worst_residual": "1", "surfaces.integrand_s": "s",
    "surfaces.integrand_points": "count",
    "interp.lagrange_basis_s": "s", "interp.basis_condition_max": "1",
    "refmesh.generate_base_s": "s", "refmesh.bisect_s": "s",
    "refmesh.symmetry_census_s": "s", "refmesh.is_conforming_closed_s": "s",
    "refmesh.off_io_s": "s", "refmesh.faces": "count",
    "study.self_s": "s", "cli.self_s": "s", "cli.bytes_written": "B",
    "trace.overhead_s": "s",
}


def run_sample(w, seed: int, smoke: bool, mode: str, timeout: float):
    """One worker process in mode "run", "trace" or "setup".

    Returns (setup_s, result or None, problem).
    """
    out_dir = tempfile.mkdtemp(prefix="sample-", dir=WORK)
    cmd = [sys.executable, str(WORKER), "--workload", w.name, "--seed", str(seed),
           "--out", out_dir]
    if mode == "trace":
        cmd += ["--trace", str(WORK / f"trace-{w.name}-seed{seed}.json")]
    elif mode == "setup":
        cmd.append("--setup-only")
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, **BLAS_ENV)
    start = time.perf_counter()
    try:
        with open(Path(out_dir, "stderr.txt"), "w+", encoding="utf-8") as err, \
                subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env,
                                 cwd=ROOT, text=True) as proc:
            try:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - start
                out, _ = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return None, None, "worker timed out"
            err.seek(0)
            stderr = err.read()
        lines = out.strip().splitlines()
        if (ready.strip() != "ready" or proc.returncode != 0
                or (mode != "setup" and not lines)):
            return None, None, (f"worker exited {proc.returncode}: "
                                f"{stderr.strip()[-2000:]}")
        return setup_s, json.loads(lines[-1]) if lines else None, None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(samples: dict, units: dict) -> dict:
    """Median, quartiles and sample count of each metric."""
    table = {}
    for name, unit in units.items():
        values = samples.get(name, [])
        if values:
            q1, q3 = _quartiles(values)
            table[name] = {"value": statistics.median(values), "unit": unit,
                           "samples": len(values), "q1": q1, "q3": q3}
    return table


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> dict:
    import numpy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        return {"name": "unknown"}


def provenance(w, seed: int) -> dict:
    import numpy
    return {"seed": seed, "workload": w.name, "threads": w.threads,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": _blas(), "blas_threads": BLAS_ENV, "commit": _git_commit()}


def measure(w, seed: int, seconds: float, trace: bool, smoke: bool):
    """Closed loop of samples; returns (attempted, failed, problems, samples)."""
    samples: dict[str, list] = {}
    attempted = failed = 0
    problems: list[str] = []
    began = time.perf_counter()

    def sample(mode):
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - began))
        return run_sample(w, seed, smoke, mode, timeout)

    last = 0.0
    while attempted == 0 or time.perf_counter() - began + last <= seconds:
        t0 = time.perf_counter()
        attempted += 1
        setup_s, plain, problem = sample("run")
        if plain is not None and not plain["ok"]:
            problem = "; ".join(plain["problems"])
        if problem:
            failed += 1
            problems.append(problem)
        elif not trace:
            for name, value in (("run_s", plain["run_s"]), ("setup_s", setup_s),
                                ("peak_rss_mb", plain["peak_rss_mb"]),
                                ("err_final", plain["err_final"])):
                samples.setdefault(name, []).append(value)
        if trace:
            attempted += 1
            _, traced, problem = sample("trace")
            if traced is not None and not traced["ok"]:
                problem = "; ".join(traced["problems"])
            if not problem and plain is not None and plain["ok"]:
                if traced["digests"] != plain["digests"] or traced["audit"] != plain["audit"]:
                    problem = "traced replay output differs from the untraced run"
            if problem:
                failed += 1
                problems.append(problem)
            elif plain is not None and plain["ok"]:
                for name, value in traced["layers"].items():
                    samples.setdefault(name, []).append(value)
                samples.setdefault("trace.overhead_s", []).append(
                    traced["run_s"] - plain["run_s"])
        last = time.perf_counter() - t0
    while not trace and 0 < len(samples.get("setup_s", [])) < SETUP_SAMPLES:
        attempted += 1
        setup_s, _, problem = sample("setup")
        if problem:
            failed += 1
            problems.append(problem)
            break
        samples["setup_s"].append(setup_s)
    samples["elements_per_s"] = [w.elements / s for s in samples.get("run_s", [])]
    return attempted, failed, problems, samples


def print_table(header: str, table: dict) -> None:
    print(header)
    print(f"  {'metric':34s} {'median':>14s} {'unit':8s} {'n':>3s} "
          f"{'q1':>12s} {'q3':>12s}")
    for name, m in table.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:8s} {m['samples']:3d} "
              f"{m['q1']:12.6g} {m['q3']:12.6g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed; 0 is the nominal surface (default 0)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measuring time; samples stop before overrunning it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "surfquad" / "__init__.py").is_file():
        print(f"bench: no surfquad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    w = workloads.get(args.workload, smoke=args.smoke)
    WORK.mkdir(exist_ok=True)
    attempted, failed, problems, samples = measure(
        w, args.seed, args.seconds, bool(args.trace), args.smoke)
    table = summarize(samples, PER_LAYER if args.trace else END_TO_END)
    record = {"provenance": provenance(w, args.seed), "trace": args.trace,
              "attempted": attempted, "failed": failed, "problems": problems,
              "metrics": table}
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    (WORK / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    for problem in problems:
        print(f"bench: FAILED: {problem}", file=sys.stderr)
    print_table(f"surfquad bench: workload={w.name} seed={args.seed} "
                f"trace={args.trace} samples attempted={attempted} failed={failed}",
                table)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    result = {"correct": failed == 0 and bool(table), "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in table.items()}}
    print(json.dumps(result))
    return 0 if table else 1


if __name__ == "__main__":
    sys.exit(main())
