"""Benchmark workloads over the qnspect library.

A workload turns a seed into fixed inputs, then runs passes over a list of
steps.  A step is either a *job* (timed individually; its latency feeds the
job percentiles) or a closing step such as a spectrum reconstruction that is
only part of the pass time.  ``Step.parts`` do the library work (each
part after the first takes the previous part's output) and ``Step.check``
evaluates the correctness gates on the result outside the job's timer; a
step that raises or fails a gate counts as failed and the pass goes on.

Library functions are always looked up as module attributes at call time
(``self.qn.qsim.survival_probabilities``), so the tracer's wrappers are used
whenever they are installed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

MHZ = 2.0 * np.pi * 1e6
J01 = 2.404825557695773  # first zero of J0


@dataclass
class Gate:
    """One correctness check: ``value`` compared with ``limit`` by ``op``."""

    name: str
    value: float
    op: str          # "<=", ">=" or "=="
    limit: float

    @property
    def ok(self) -> bool:
        if not math.isfinite(self.value):
            return False
        if self.op == "<=":
            return self.value <= self.limit
        if self.op == ">=":
            return self.value >= self.limit
        return self.value == self.limit


@dataclass
class Step:
    name: str
    parts: tuple[Callable, ...]
    check: Callable[[object], list]
    is_job: bool = True

    def run(self):
        output = self.parts[0]()
        for part in self.parts[1:]:
            output = part(output)
        return output


class Workload:
    """Base class; ``SCALES["full"]`` is the benchmark, ``SCALES["smoke"]`` its self-test."""

    name = ""
    shape = ""
    job = ""
    why = ""
    SCALES: dict = {}

    def __init__(self, qn, seed: int, scale: str, workdir: Path):
        self.qn = qn
        self.seed = int(seed)
        self.scale = scale
        self.workdir = workdir
        self.p = self.SCALES[scale]

    def steps(self, pass_index: int) -> list[Step]:
        raise NotImplementedError

    def warmup(self) -> None:
        """One untimed job, run as part of set-up."""
        step = self.steps(-1)[0]
        step.check(step.run())

    def report(self) -> dict:
        """Informational values of the last pass (not gated)."""
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# spectroscopy: noise synthesis, exact propagation, estimator, NNLS
# ---------------------------------------------------------------------------


class Spectroscopy(Workload):
    name = "spectroscopy"
    job = ("one probe point: build the waveform, survival_probabilities, "
           "tomographic_estimator, overlap_amplitude")
    why = ("qsim, noisegen, waveform and spectro do almost all their work here; "
           "lp_reduce and optimize do none")
    SCALES = {
        "full": {"n": 2000, "dt": 10e-9, "bands": 10, "delta_mhz": 0.2,
                 "realizations": 200, "max_dr_error": 0.2},
        "smoke": {"n": 200, "dt": 100e-9, "bands": 4, "delta_mhz": 0.5,
                  "realizations": 40, "max_dr_error": 0.5},
    }
    FAMILIES = ("dr", "dpss")
    AMP_MHZ = 5.0
    NW = 1.0
    AMP_NOISE = {"kind": "flat_cutoff", "a_omega": 1.04e-11, "omega_h_mhz": 2.0}
    DEPH_NOISE = {"kind": "one_over_f", "c": 29.3, "a_z": 1e8,
                  "omega_l_mhz": 0.01, "omega_h_mhz": 2.0}
    # exact measurements A @ s must reconstruct s to this relative accuracy
    ROUND_TRIP_TOL = 1e-6

    def __init__(self, qn, seed, scale, workdir):
        super().__init__(qn, seed, scale, workdir)
        p = self.p
        self.lambdas = np.arange(1, p["bands"] + 1) * p["delta_mhz"] * MHZ
        # realization streams: distinct per probe point, shared by both
        # families so the two reconstructions see the same noise
        self.stream_seeds = [self.seed * 1_000_003 + 1000 * i for i in range(p["bands"])]
        noisegen = qn.noisegen
        self.amp_model = noisegen.spectrum_model_from_json(self.AMP_NOISE)
        self.deph_model = noisegen.spectrum_model_from_json(self.DEPH_NOISE)
        self.shape = (f"N={p['n']}, dt={p['dt'] * 1e9:g} ns, {p['bands']} bands of "
                      f"{p['delta_mhz']:g} MHz, {p['realizations']} realizations per probe, "
                      f"families dr+dpss, 1/f dephasing c=29.3")
        self.measurements: dict[str, list] = {}

    def _waveform(self, family: str, lam: float):
        p = self.p
        wf = self.qn.waveform
        total_time = p["n"] * p["dt"]
        if family == "dr":
            periods = int(round(lam * total_time / (2.0 * np.pi)))
            root = wf.root_index_for_peak_rate(lam, self.AMP_MHZ * MHZ)
            return wf.dephasing_robust(total_time, periods, root, p["n"])
        return wf.modulated_dpss_waveform(p["n"], self.NW / p["n"], self.AMP_MHZ * MHZ,
                                          lam, p["dt"])

    def _probe(self, family: str, i: int):
        qsim = self.qn.qsim
        wf = self._waveform(family, self.lambdas[i])
        triple = qsim.survival_probabilities(wf, self.amp_model, self.deph_model,
                                             self.p["realizations"], seed=self.stream_seeds[i])
        est = qsim.tomographic_estimator(triple)
        qsim.overlap_amplitude(wf, self.amp_model)
        self.measurements[family][i] = est.value
        return triple, est

    @staticmethod
    def _check_probe(output) -> list[Gate]:
        triple, est = output
        probs = (triple.p1, triple.p2, triple.p3)
        return [Gate("survival probability min", min(probs), ">=", 0.0),
                Gate("survival probability max", max(probs), "<=", 1.0),
                Gate("estimator finite", float(math.isfinite(est.value)), "==", 1.0)]

    def _reconstruct(self, family: str):
        qn = self.qn
        delta = self.p["delta_mhz"] * MHZ
        waveforms = [self._waveform(family, lam) for lam in self.lambdas]
        matrix = qn.spectro.overlap_matrix(waveforms, self.p["bands"], delta)
        truth = qn.noisegen.psd_eval(self.amp_model, matrix.band_centers)
        result = qn.spectro.reconstruct(np.array(self.measurements[family]), matrix,
                                        true_spectrum=truth)
        return family, matrix, truth, result

    def _check_reconstruction(self, output) -> list[Gate]:
        family, matrix, truth, result = output
        self.errors[family] = self.reconstruction_error(result, self.amp_model.cutoff)
        exact = self.qn.spectro.reconstruct(matrix.matrix @ truth, matrix)
        round_trip = float(np.max(np.abs(exact.estimates - truth)) / np.max(truth))
        gates = [Gate(f"{family} exact-data round trip", round_trip, "<=", self.ROUND_TRIP_TOL)]
        if family == "dr":
            gates.append(Gate("dr median in-band |relative error|", self.errors["dr"], "<=",
                              self.p["max_dr_error"]))
        return gates

    @staticmethod
    def reconstruction_error(result, cutoff: float) -> float:
        """Median |relative error| over bands centred at or below the noise cutoff."""
        in_band = result.frequencies <= cutoff * (1 + 1e-12)
        return float(np.median(np.abs(result.relative_errors[in_band])))

    def steps(self, pass_index):
        self.measurements = {f: [math.nan] * self.p["bands"] for f in self.FAMILIES}
        self.errors = {}
        out = []
        for family in self.FAMILIES:
            for i in range(self.p["bands"]):
                out.append(Step(f"{family}[{i}]",
                                (lambda family=family, i=i: self._probe(family, i),),
                                self._check_probe))
            out.append(Step(f"{family} reconstruct",
                            (lambda family=family: self._reconstruct(family),),
                            self._check_reconstruction, is_job=False))
        return out

    def report(self) -> dict:
        return {f"{family}_median_error": value for family, value in self.errors.items()}


# ---------------------------------------------------------------------------
# design: LP pruning and the proximal augmented Lagrangian
# ---------------------------------------------------------------------------


class Design(Workload):
    name = "design"
    job = "one waveform design: build_design_problem + solve_design at one modulation frequency"
    why = ("LP pruning and the augmented-Lagrangian solve do all the work; "
           "qsim and noisegen are absent, so sampling changes must read no change")
    SCALES = {
        "full": {"n": 400, "total_time": 100e-6, "omega0_mhz": (0.1, 0.2, 0.3)},
        "smoke": {"n": 400, "total_time": 100e-6, "omega0_mhz": (0.2,)},
    }
    K = 3
    NW = 1.0
    EPS = 0.1
    MAX_RATE_MHZ = 5.0

    def __init__(self, qn, seed, scale, workdir):
        super().__init__(qn, seed, scale, workdir)
        p = self.p
        self.dt = p["total_time"] / p["n"]
        self.shape = (f"N={p['n']}, T={p['total_time'] * 1e6:g} us, K={self.K}, "
                      f"NW={self.NW:g}, eps={self.EPS:g}, Omega_max={self.MAX_RATE_MHZ:g} MHz, "
                      f"omega0/2pi in {list(p['omega0_mhz'])} MHz")

    def _build(self, omega0_mhz: float):
        return self.qn.optimize.build_design_problem(
            omega0_mhz * MHZ, self.p["n"], self.dt, self.MAX_RATE_MHZ * MHZ,
            time_bandwidth=self.NW, num_orders=self.K, eps=self.EPS, seed=self.seed)

    def _solve(self, problem):
        return problem, self.qn.optimize.solve_design(problem, seed=self.seed)

    def _check_design(self, output) -> list[Gate]:
        problem, coeffs = output
        optimize = self.qn.optimize
        max_rate = self.MAX_RATE_MHZ * MHZ
        total_time = problem.total_time
        full = optimize.amplitude_constraints(problem.dpss_set, problem.omega0, problem.dt,
                                              max_rate, self.K)
        wf = optimize.design_waveform(coeffs, problem)
        return [
            Gate("max original amplitude row", float(np.max(full.rows @ coeffs.as_vector())),
                 "<=", 1.0 + 1e-9),
            Gate("|net rotation| / (Omega_max T)", abs(wf.net_rotation) / (max_rate * total_time),
                 "<=", 1e-9),
            Gate("F_Z(0) / T^2", self.qn.filterfn.dephasing_ff_dc(wf) / total_time**2,
                 "<=", 1e-9),
        ]

    def steps(self, pass_index):
        return [Step(f"omega0={f:g}MHz", (lambda f=f: self._build(f), self._solve),
                     self._check_design)
                for f in self.p["omega0_mhz"]]


# ---------------------------------------------------------------------------
# filter-analysis: filterfn and the CLI writers through qnspect.cli.main
# ---------------------------------------------------------------------------


class FilterAnalysis(Workload):
    name = "filter-analysis"
    job = "one CLI command (ff for dr, ff for dpss, gz for dpss) run in process"
    why = ("filterfn and the CLI writers work through a few large calls at N=1e4, "
           "where spectroscopy makes many small ones at N=2000")
    SCALES = {
        "full": {"n": 10000, "t_us": 100.0, "points": 1000, "gz_max_mhz": 2.0},
        "smoke": {"n": 1000, "t_us": 100.0, "points": 100, "gz_max_mhz": 0.3},
    }
    COMB_ORDERS = np.arange(1, 6)
    COMB_TOL = 0.02

    def __init__(self, qn, seed, scale, workdir):
        super().__init__(qn, seed, scale, workdir)
        p = self.p
        # the modulation frequency is drawn from the seed: M periods in T
        self.periods = 10 + self.seed % 5
        self.lambda_mhz = self.periods / p["t_us"]
        self.shape = (f"T={p['t_us']:g} us, N={p['n']}, ff on {p['points']} points up to "
                      f"2 MHz (dr at the first J0 root, dpss at 5 MHz), gz for dpss up to "
                      f"{p['gz_max_mhz']:g} MHz; lambda/2pi = {self.lambda_mhz:g} MHz")
        self.reference_hashes: dict[str, dict] = {}

    def _argv(self, job: str) -> list[str]:
        p = self.p
        common = ["--lambda-mhz", repr(self.lambda_mhz), "--t-us", repr(p["t_us"]),
                  "--n", str(p["n"])]
        if job == "ff-dr":
            amp = self.lambda_mhz * J01  # first root: the criterion-2 waveform
            return ["ff", "--waveform", "dr", *common, "--amp-mhz", repr(amp),
                    "--points", str(p["points"])]
        if job == "ff-dpss":
            return ["ff", "--waveform", "dpss", *common, "--points", str(p["points"])]
        return ["gz", "--waveform", "dpss", *common, "--max-mhz", repr(p["gz_max_mhz"])]

    def _run(self, job: str, pass_index: int):
        out = self.workdir / f"pass{pass_index}" / job
        return job, out, self.qn.cli.main([*self._argv(job), "--out", str(out)])

    def _check_run(self, output) -> list[Gate]:
        job, out, code = output
        gates = [Gate("exit code", float(code), "==", 0.0)]
        if code != 0:
            return gates
        gates.append(Gate("manifest incomplete or missing artifacts",
                          float(self._manifest_problems(out)), "==", 0.0))
        hashes = {entry.name: hashlib.sha256(Path(entry.path).read_bytes()).hexdigest()
                  for entry in os.scandir(out) if entry.is_file()}
        reference = self.reference_hashes.setdefault(job, hashes)
        differing = sum(reference.get(name) != digest for name, digest in hashes.items())
        differing += len(set(reference) ^ set(hashes))
        gates.append(Gate("artifacts differing from the first run", float(differing),
                          "==", 0.0))
        if job == "ff-dr":
            gates.append(Gate("Bessel comb weight worst |relative error|",
                              self.comb_error(out / "waveform.csv"), "<=", self.COMB_TOL))
        shutil.rmtree(out)
        return gates

    @staticmethod
    def _manifest_problems(out: Path) -> int:
        try:
            manifest = json.loads((out / "manifest.json").read_text())
        except (OSError, ValueError):
            return 1
        missing = [name for name in manifest.get("artifacts", []) if not (out / name).is_file()]
        return int(manifest.get("complete") is not True) + len(missing)

    def comb_error(self, waveform_csv: Path) -> float:
        """Worst tooth-weight error of F_Z against 2 pi T J_k(j01)^2, k = 1..5."""
        from scipy import special

        wf = self.qn.waveform.waveform_from_csv(waveform_csv)
        lam = 2.0 * np.pi * self.periods / wf.total_time
        fz = self.qn.filterfn.dephasing_ff(wf, self.COMB_ORDERS * lam).values
        weights = lam / self.periods * fz
        expected = 2.0 * np.pi * wf.total_time * special.jv(self.COMB_ORDERS, J01) ** 2
        return float(np.max(np.abs(weights / expected - 1.0)))

    def steps(self, pass_index):
        return [Step(job, (lambda job=job: self._run(job, pass_index),), self._check_run)
                for job in ("ff-dr", "ff-dpss", "gz-dpss")]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Spectroscopy, Design, FilterAnalysis)}
