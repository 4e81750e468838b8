"""Smoke test of the benchmark itself, at tiny problem sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload runs, that every metric named in BENCHMARK.json
is printed with its unit, that a deliberately corrupted result is counted as
failed, and that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = run_benchmark(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    printed = {}
    for line in lines:
        match = re.match(r"\s*metric (\S+) = \S+ (\S+)", line)
        if match:
            printed[match.group(1)] = match.group(2)
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]


def _spectroscopy_pass(tmp_path):
    import worker
    from workloads import Spectroscopy

    workload = Spectroscopy(worker.qnspect, 3, "smoke", tmp_path)
    gates = worker.GateLog()
    return worker.run_pass(workload, 0, gates), gates


def test_perturbed_estimator_is_counted_as_failed(tmp_path, monkeypatch):
    record, gates = _spectroscopy_pass(tmp_path)
    assert record["failed"] == 0

    import worker

    qsim = worker.qnspect.qsim
    original = qsim.tomographic_estimator

    def perturbed(triple):
        est = original(triple)
        return type(est)(value=3.0 * est.value, stderr=est.stderr)

    monkeypatch.setattr(qsim, "tomographic_estimator", perturbed)
    record, gates = _spectroscopy_pass(tmp_path)
    assert record["failed"] >= 1
    assert gates.entries["dr median in-band |relative error|"]["failed"] >= 1


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run_benchmark(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
