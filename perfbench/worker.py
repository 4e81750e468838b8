"""One workload process: set-up, then timed passes (and traced passes).

Started by ``run.py``.  Protocol on stdout: a line ``READY`` once set-up
(import, input generation, one untimed warm-up job) is done, then, unless
``--setup-only``, one line ``RESULT <json>``.  Nothing else goes to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qnspect  # noqa: E402
import qnspect.cli  # noqa: E402,F401  (loads every layer module)

from tracer import LAYERS, WORK_COUNTS, Tracer  # noqa: E402
from workloads import WORKLOADS, Gate  # noqa: E402

REPEATED_COUNTS = WORK_COUNTS + tuple(f"{layer}.calls" for layer in LAYERS)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class GateLog:
    """Per gate name: evaluations, failures and the worst value seen."""

    def __init__(self):
        self.entries: dict[str, dict] = {}

    def add(self, gate):
        entry = self.entries.setdefault(
            gate.name, {"op": gate.op, "limit": gate.limit, "count": 0, "failed": 0,
                        "worst": gate.value})
        entry["count"] += 1
        entry["failed"] += not gate.ok
        worse = {"<=": max, ">=": min}.get(gate.op)
        if worse is not None:
            entry["worst"] = worse(entry["worst"], gate.value)
        elif not gate.ok:
            entry["worst"] = gate.value

    def fail(self, name: str, detail: str):
        entry = self.entries.setdefault(name, {"op": "raised", "limit": 0, "count": 0,
                                               "failed": 0, "worst": detail})
        entry["count"] += 1
        entry["failed"] += 1


# the reference kernel's inputs: one small array (call overhead) and one
# that streams through memory (bandwidth), as the workloads' steps do
REF_SHARE = 0.05
REF_MAX_REPEATS = 16
_REF_GRID = np.linspace(0.0, 1.0, 200)
_REF_STREAM = np.linspace(0.0, 1.0, 1 << 17)


def reference_time(repeats: int) -> float:
    """Seconds per reference kernel, averaged over ``repeats`` back-to-back runs."""
    start = time.perf_counter()
    for _ in range(repeats):
        reference_kernel()
    return (time.perf_counter() - start) / repeats


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of small numpy calls, interpreter work and streaming.

    The machine's speed drifts by tens of percent over seconds, and a run's
    raw times with it.  Timing this fixed work next to every step and
    dividing the step's time by it cancels the drift; the ``*_ref`` metrics
    are in multiples of this kernel's time.
    """
    start = time.perf_counter()
    acc = 0.0
    for k in range(250):
        acc += float(np.sum(np.cos(_REF_GRID * k)))
    for k in range(12000):
        acc += k * 0.5
    for k in range(2):
        acc += float(np.abs(np.exp(1j * (_REF_STREAM * (k + 1)))).sum())
    return time.perf_counter() - start


def run_pass(workload, index: int, gates: GateLog, tracer=None) -> dict:
    """One pass over the workload's steps: raw and reference-unit times, outcomes.

    Each part of a step is timed between two runs of the reference kernel
    and its wall time divided by their mean; a step's reference-unit time is
    the sum over its parts.
    """
    latencies, latencies_ref = [], []
    refs = [reference_kernel()]
    wall_ref = 0.0
    attempted = failed = 0
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    for step in workload.steps(index):
        attempted += 1
        if tracer is not None:
            tracer.job = step.name
        output = error = None
        elapsed = in_ref = 0.0
        for i, part in enumerate(step.parts):
            began = time.perf_counter()
            try:
                output = part() if i == 0 else part(output)
            except Exception as exc:  # a failing job is counted; the pass goes on
                error = exc
            took = time.perf_counter() - began
            # sample the machine's speed for about a twentieth of the part's time
            refs.append(reference_time(max(1, min(REF_MAX_REPEATS,
                                                  round(REF_SHARE * took / refs[-1])))))
            elapsed += took
            in_ref += took / (0.5 * (refs[-2] + refs[-1]))
            if error is not None:
                break
        wall_ref += in_ref
        if step.is_job:
            latencies.append(elapsed)
            latencies_ref.append(in_ref)
        if error is not None:
            gates.fail(f"{workload.name}: step raised", f"{step.name}: {error!r}")
            failed += 1
            continue
        with tracer.pause() if tracer is not None else contextlib.nullcontext():
            try:
                checks = step.check(output)
            except Exception as exc:  # a gate that cannot be evaluated fails
                gates.fail(f"{workload.name}: gate raised", f"{step.name}: {exc!r}")
                failed += 1
                continue
        for gate in checks:
            gates.add(gate)
        failed += not all(gate.ok for gate in checks)
    wall = time.perf_counter() - start
    return {"wall": wall, "wall_ref": wall_ref, "cpu": cpu_seconds() - cpu0,
            "latencies": latencies, "latencies_ref": latencies_ref, "refs": refs,
            "attempted": attempted, "failed": failed}


def layer_metrics(tracer: Tracer, record: dict) -> dict:
    """Per-layer metrics of one traced pass; self times sum with the remainder to its wall."""
    counts = tracer.counts
    self_times = tracer.layer_self_times()
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = counts.get(f"{layer}.calls", 0.0)
        out[f"{layer}.self_s"] = self_times[layer]
    for name in WORK_COUNTS:
        out[name] = counts.get(name, 0.0)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    out["qsim.steps_per_s"] = rate(out["qsim.segment_steps"], self_times["qsim"])
    out["noisegen.samples_per_s"] = rate(counts.get("noisegen.samples", 0.0),
                                         self_times["noisegen"])
    out["filterfn.ff_evals_per_s"] = rate(out["filterfn.ff_evals"], self_times["filterfn"])
    out["lp_reduce.keep_ratio"] = rate(out["lp_reduce.rows_kept"], out["lp_reduce.rows_in"])
    out["lp_reduce.rows_per_s"] = rate(out["lp_reduce.rows_in"], self_times["lp_reduce"])
    out["optimize.build_self_s"], out["optimize.solve_s"] = tracer.optimize_split()
    out["proc.ref_kernel_s"] = statistics.median(record["refs"])
    out["proc.cpu_s"] = record["cpu"]
    out["proc.cpu_util"] = rate(record["cpu"], record["wall"])
    out["trace.wall_s"] = record["wall"]
    out["trace.unattributed_s"] = record["wall"] - sum(self_times.values())
    out["trace.spans"] = float(len(tracer.spans))
    return out


def measure(workload, seconds: float, trace: bool, trace_file: Path) -> dict:
    gates = GateLog()
    untraced, traced, layer_runs = [], [], []
    start = time.perf_counter()

    def time_left(walls):
        return time.perf_counter() - start + statistics.median(walls) <= seconds

    untraced.append(run_pass(workload, 0, gates))
    if not trace:
        while time_left([r["wall"] for r in untraced]):
            untraced.append(run_pass(workload, len(untraced), gates))
    else:
        tracer = Tracer(qnspect)
        spans = []
        with tracer:
            while len(traced) < 2 or time_left([r["wall"] for r in traced]):
                tracer.reset()
                record = run_pass(workload, len(untraced) + len(traced), gates, tracer)
                traced.append(record)
                layer_runs.append(layer_metrics(tracer, record))
                spans.append(tracer.span_records())
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({"workload": workload.name, "seed": workload.seed,
                                          "passes": spans}))

    runs = untraced + traced
    result = {
        "passes": [{"wall": r["wall"], "traced": False} for r in untraced]
        + [{"wall": r["wall"], "traced": True} for r in traced],
        "latencies": [x for r in untraced for x in r["latencies"]],
        "latencies_ref": [x for r in untraced for x in r["latencies_ref"]],
        "walls": [r["wall"] for r in untraced],
        "walls_ref": [r["wall_ref"] for r in untraced],
        "ref_kernel_s": statistics.median([x for r in untraced for x in r["refs"]]),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report": workload.report(),
    }
    if trace:
        # the representative traced pass is the one with the (lower) median wall time
        order = sorted(range(len(traced)), key=lambda i: traced[i]["wall"])
        chosen = dict(layer_runs[order[(len(order) - 1) // 2]])
        chosen["trace.overhead_s"] = chosen["trace.wall_s"] - statistics.median(result["walls"])
        repeat = Gate("work counts differing between traced passes", float(len({
            name for run in layer_runs[1:] for name in REPEATED_COUNTS
            if run[name] != layer_runs[0][name]})), "==", 0.0)
        gates.add(repeat)
        result["attempted"] += 1
        result["failed"] += not repeat.ok
        result["per_layer"] = chosen
        result["traced_passes"] = len(traced)
    result["gates"] = gates.entries
    return result


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_name, "qnspect": qnspect.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](qnspect, args.seed, args.scale, workdir / "artifacts")
    try:
        workload.warmup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        trace_file = workdir.parent / f"trace-{args.workload}-seed{args.seed}.json"
        result = measure(workload, args.seconds, bool(args.trace), trace_file)
    finally:
        workload.close()
    result.update(shape=workload.shape, job=workload.job, why=workload.why,
                  environment=environment())
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
