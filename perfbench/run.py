"""qnspect benchmark: one workload per invocation, in its own worker process.

    python3 perfbench/run.py --workload spectroscopy --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  Set-up is repeated in ``SETUPS`` fresh worker processes and its
median reported as ``setup_s``; the last worker goes on to the timed passes.
With ``--trace 0`` the end-to-end metrics are printed, with ``--trace 1`` the
per-layer metrics of a traced pass (see ``perfbench/README.md``).  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Traces are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import COMPUTED_COUNTS, LAYERS, PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("spectroscopy", "design", "filter-analysis")
SETUPS = 3
# One process per workload on one BLAS thread.  On a 2-core machine two
# OpenBLAS threads make the many small matrix-vector products of
# solve_design about 3x slower and the timings far noisier.
BLAS_THREADS = 1
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "job_ref.p50": "ref",
    "job_ref.p90": "ref",
    "peak_rss_mib": "MiB",
}


class BenchmarkError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run_worker(args, workdir: Path, setup_only: bool, deadline: float):
    """Start one worker; return (set-up seconds, parsed RESULT or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale,
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchmarkError(f"worker exited with code {code} (set-up only: {setup_only})")
    if setup_only:
        return setup, None
    lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise BenchmarkError("worker printed no result")
    return setup, json.loads(lines[-1][len("RESULT "):])


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 \
        else values[0]


def end_to_end(setups, result) -> dict:
    lat = result["latencies_ref"]
    return {
        "setup_s": statistics.median(setups),
        "wall_ref": statistics.median(result["walls_ref"]),
        "job_ref.p50": statistics.median(lat),
        "job_ref.p90": p90(lat),
        "peak_rss_mib": result["peak_rss_mib"],
    }


def raw_times(result) -> dict:
    """The same timings in seconds, printed for reference but not bounded."""
    lat = result["latencies"]
    return {"wall_s": statistics.median(result["walls"]), "job_s.p50": statistics.median(lat),
            "job_s.p90": p90(lat), "ref_kernel_s": result["ref_kernel_s"]}


def print_report(args, setups, result, metrics, units):
    env = result["environment"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    print(f"  commit={git_commit()} nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} blas_threads={BLAS_THREADS} "
          f"python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"qnspect={env['qnspect']}")
    print(f"  shape: {result['shape']}")
    print(f"  job: {result['job']}")
    print(f"  why: {result['why']}")
    walls = ", ".join(f"{p['wall']:.3f}{'T' if p['traced'] else ''}" for p in result["passes"])
    print(f"  passes (s, T = traced): {walls}")
    print(f"  setups (s): {', '.join(f'{s:.3f}' for s in setups)}")
    for name, entry in result["gates"].items():
        if entry["op"] == "raised":
            print(f"  gate FAIL {name}: {entry['worst']} ({entry['count']} times)")
            continue
        verdict = "ok  " if entry["failed"] == 0 else "FAIL"
        print(f"  gate {verdict} {name}: worst {entry['worst']} {entry['op']} {entry['limit']} "
              f"({entry['count'] - entry['failed']}/{entry['count']} passed)")
    for name, value in result["report"].items():
        print(f"  info {name} = {value:.6g}")
    for name, value in raw_times(result).items():
        print(f"  info {name} = {value:.6g} s (raw wall time, not bounded)")
    print(f"  failed_ratio = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} jobs and checks)")
    for name, value in metrics.items():
        note = ""
        if name.startswith("job_ref."):
            note = f"  (n={len(result['latencies'])} jobs)"
        elif name in COMPUTED_COUNTS:
            note = "  (computed from array sizes)"
        print(f"  metric {name} = {value:.6g} {units[name]}{note}")
    if args.trace:
        layer = result["per_layer"]
        total = sum(layer[f"{name}.self_s"] for name in LAYERS) + layer["trace.unattributed_s"]
        print(f"  self times + unattributed = {total:.6f} s; traced wall_s = "
              f"{layer['trace.wall_s']:.6f} s ({result['traced_passes']} traced passes)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="'smoke' runs tiny problem sizes for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qnspect" / "__init__.py").is_file():
        print(f"error: no qnspect sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for k in range(SETUPS):
            seconds, result = run_worker(args, workdir, k < SETUPS - 1, deadline)
            setups.append(seconds)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {name: result["per_layer"][name] for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(setups, result)
        units = END_TO_END_UNITS
    print_report(args, setups, result, metrics, units)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
