"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria marked "desk scale" run reduced problem sizes (T = 20 us, N = 2000,
L = 40) chosen so the full suite completes on a workstation; the library
accepts the full-scale configurations for overnight runs.
"""

import time

import numpy as np
import pytest
from scipy import special

from qnspect import (
    PiecewiseConstantWaveform,
    SpectrumModel,
    amplitude_ff,
    bias_breakdown,
    dephasing_ff,
    dephasing_ff_dc,
    dephasing_robust,
    error_vector_first_order,
    higher_order_ff,
    modulated_dpss_waveform,
    overlap_amplitude,
    overlap_matrix,
    prune_constraints,
    reconstruct,
    root_index_for_peak_rate,
    sample_many,
    spectral_concentration,
    survival_probabilities,
    tomographic_estimator,
)
from qnspect.cli import main as cli_main
from qnspect.lp_reduce import AffineConstraintSet
from qnspect.optimize import (
    amplitude_constraints,
    build_design_problem,
    design_waveform,
    solve_design,
)
from qnspect.slepian import dpss

from oracles import higher_order_ff_brute

MHZ = 2 * np.pi * 1e6
J01 = 2.404825557695773
FLAT_AMP = SpectrumModel.flat_cutoff(1.04e-11, 2 * MHZ)
NO_NOISE = SpectrumModel.dc_delta(0.0)


class Report:
    def __init__(self, name, budget_s):
        self.name = name
        self.budget = budget_s
        self.start = time.perf_counter()
        self.lines = []
        self.ok = True

    def check(self, label, condition, detail=""):
        condition = bool(condition)
        self.ok &= condition
        self.lines.append((label, condition, detail))
        return condition

    def finish(self):
        elapsed = time.perf_counter() - self.start
        within = elapsed < self.budget
        verdict = "PASS" if (self.ok and within) else "FAIL"
        print(f"\n[{verdict}] {self.name} ({elapsed:.1f}s / budget {self.budget:.0f}s)")
        for label, cond, detail in self.lines:
            mark = "ok  " if cond else "FAIL"
            print(f"    {mark} {label}" + (f": {detail}" if detail else ""))
        assert self.ok, f"{self.name}: " + "; ".join(
            f"{label} [{detail}]" for label, c, detail in self.lines if not c
        )
        assert within, f"{self.name}: runtime {elapsed:.1f}s exceeds {self.budget:.0f}s"


def desk_dr(n=2000, dt=10e-9, lam=1 * MHZ, amp=5 * MHZ):
    total = n * dt
    periods = int(round(lam * total / (2 * np.pi)))
    return dephasing_robust(total, periods, root_index_for_peak_rate(lam, amp), n)


def desk_dpss(n=2000, dt=10e-9, lam=1 * MHZ, amp=5 * MHZ):
    return modulated_dpss_waveform(n, 1.0 / n, amp, lam, dt)


def test_criterion_1_analytic_ff_oracle():
    rep = Report("criterion 1: analytic filter-function oracle", 10)
    t, n = 100e-6, 10000
    lam = 0.1 * MHZ
    omega0 = lam * J01
    wf = dephasing_robust(t, 10, 1, n)

    omegas = 2 * np.pi * np.linspace(0.01e6, 2e6, 500)
    got = amplitude_ff(wf, omegas).values
    want = (omega0 * lam * np.sin(omegas * t / 2) / (omegas**2 - lam**2)) ** 2
    near = np.abs(omegas - lam) < 1e-6 * lam
    want[near] = (omega0 * t / 4) ** 2
    mask = want > 1e-6 * want.max()
    rel = np.abs(got[mask] / want[mask] - 1).max()
    rep.check("F_Omega matches closed form within 1%", rel < 0.01, f"max rel {rel:.2e}")

    dc = dephasing_ff_dc(wf)
    rep.check("F_Z(0,T) < 1e-12 T^2", dc < 1e-12 * t * t,
              f"measured {dc / (t * t):.2e} T^2")
    rep.finish()


def test_criterion_2_bessel_comb():
    rep = Report("criterion 2: Bessel comb weights", 30)
    t, n, m = 100e-6, 10000, 10
    lam = 2 * np.pi * m / t
    omega0 = lam * J01
    wf = dephasing_robust(t, m, 1, n)
    ks = np.arange(1, 6)
    # the Fejer factor is exactly M^2 on a comb tooth and carries mass
    # M*lambda per period, so the integrated tooth weight is (lambda/M) F_Z
    fz = dephasing_ff(wf, ks * lam).values
    weights = lam / m * fz
    expected = 2 * np.pi * t * special.jv(ks, omega0 / lam) ** 2
    worst = np.abs(weights / expected - 1).max()
    rep.check("peak weights = 2 pi T J_k^2 within 2% (k = 1..5)", worst < 0.02,
              f"worst rel {worst:.2e}")
    rep.finish()


def test_criterion_3_fast_gz():
    rep = Report("criterion 3: fast higher-order filter function", 120)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 33))
        dt = float(rng.uniform(0.5e-8, 3e-8))
        wf = PiecewiseConstantWaveform(rng.normal(0.0, 4e5, n), dt)
        base = 2 * np.pi / (n * dt)
        js = rng.choice(np.arange(0, n // 2), size=2, replace=False)
        omegas = js * base
        grid = higher_order_ff(wf, omegas, omegas)
        scale = np.abs(grid.values).max()
        for i, a in enumerate(omegas):
            for j, b in enumerate(omegas):
                brute = higher_order_ff_brute(wf, a, b)
                worst = max(worst, abs(grid.values[i, j] - brute) / max(abs(brute), 1e-12 * scale))
    rep.check("matches brute-force quadruple sum (20 random waveforms, N <= 32)",
              worst < 1e-10, f"worst rel {worst:.2e}")

    # peak structure at full scale, lambda/2pi = 0.1 MHz.  At M = 10 periods
    # each lobe spans a few 2*pi/T bins and its apex falls between comb
    # multiples, so peak heights are local maxima over the lobe.
    t, n = 100e-6, 10000
    lam = 0.1 * MHZ
    base = 2 * np.pi / t
    dr = dephasing_robust(t, 10, 1, n)
    slep = modulated_dpss_waveform(n, 1.0 / n, 5 * MHZ, lam, t / n)

    def lobe_peak(wf, c1, c2, halfwidth=4):
        a = np.arange(max(0, c1 - halfwidth), c1 + halfwidth + 1) * base
        b = np.arange(max(0, c2 - halfwidth), c2 + halfwidth + 1) * base
        return np.abs(higher_order_ff(wf, a, b).values).max()

    for name, wf, low in (("dephasing-robust", dr, True), ("Slepian", slep, False)):
        main = max(lobe_peak(wf, 10, 20), lobe_peak(wf, 20, 10))
        dc_row = max(lobe_peak(wf, 0, 10, 3), lobe_peak(wf, 10, 0, 3))
        ratio = dc_row / main
        if low:
            rep.check("dephasing-robust (0, lam) peak >= 10x below (lam, 2lam)",
                      ratio <= 0.1, f"ratio {ratio:.3f}")
        else:
            rep.check("Slepian waveform keeps the (0, lam)/(lam, 0) peaks",
                      ratio > 0.1, f"ratio {ratio:.3f}")
    rep.finish()


def test_criterion_4_constraint_pruning():
    rep = Report("criterion 4: constraint pruning", 300)

    # (b1) K = 1 family at N = 40000 (2N = 80000 rows)
    n1 = 40000
    ds1 = dpss(n1, 1.0 / n1, 1)
    full1 = amplitude_constraints(ds1, 0.1 * MHZ, 100e-6 / n1, 5 * MHZ, 1)
    red1 = prune_constraints(full1, eps=0.1, rng_seed=0)
    rep.check("K=1, N=40000 retains 8..20 rows", 8 <= red1.num_rows <= 20,
              f"{red1.num_rows} rows")

    # (b2) K = 3 family at N = 20000, eps = 0.10
    n3 = 20000
    ds3 = dpss(n3, 1.0 / n3, 3)
    full3 = amplitude_constraints(ds3, 0.1 * MHZ, 5e-9, 5 * MHZ, 3)
    red3 = prune_constraints(full3, eps=0.1, rng_seed=0)
    rep.check("K=3, N=20000, eps=0.10 retains 100..400 rows",
              100 <= red3.num_rows <= 400, f"{red3.num_rows} rows")

    # (a) soundness: 1e4 boundary-biased samples of the reduced region
    rng = np.random.default_rng(99)
    for red, full in ((red1, full1), (red3, full3)):
        d = red.dimension
        dirs = rng.normal(size=(5000, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        gains = dirs @ red.rows.T
        with np.errstate(divide="ignore"):
            reach = np.where(gains > 0, 1.0 / gains, np.inf).min(axis=1)
        reach[~np.isfinite(reach)] = 1.0
        pts = dirs * (reach * rng.uniform(0, 1, 5000))[:, None]
        violations = int(np.sum(np.any(pts @ full.rows.T > 1 + 1e-9, axis=1)))
        rep.check(f"soundness (d = {d}): zero original-constraint violations",
                  violations == 0, f"{violations} violations")
    rep.finish()


def test_criterion_5_optimizer_recovers_analytic_family():
    rep = Report("criterion 5: optimization recovers the analytic family", 600)
    n, dt = 20000, 5e-9
    t = n * dt
    problem = build_design_problem(0.1 * MHZ, n, dt, 5 * MHZ,
                                   time_bandwidth=1.0, num_orders=3, eps=0.1, seed=0)
    solution = solve_design(problem, seed=0)
    wf = design_waveform(solution, problem)
    reference = dephasing_robust(t, 10, 1, n)
    distance = np.linalg.norm(wf.samples - reference.samples) / np.linalg.norm(reference.samples)
    rep.check("normalized L2 distance to first-root waveform < 0.1",
              distance < 0.1, f"{distance:.3f}")

    full = amplitude_constraints(problem.dpss_set, problem.omega0, dt, 5 * MHZ, 3)
    worst_row = float(np.max(full.rows @ solution.as_vector()))
    rep.check("all 2N original amplitude constraints", worst_row <= 1 + 1e-9,
              f"max row {worst_row:.6f}")
    rep.check("net identity", abs(wf.net_rotation) < 1e-9 * 5 * MHZ * t,
              f"{abs(wf.net_rotation):.2e} rad")
    dc = dephasing_ff_dc(wf)
    rep.check("F_Z(0) < 1e-9 T^2", dc < 1e-9 * t * t, f"{dc / (t * t):.2e} T^2")
    rep.finish()


def test_criterion_6_perturbation_round_trip():
    rep = Report("criterion 6: perturbation-theory round trip", 300)
    wf = desk_dr()
    i_om = overlap_amplitude(wf, FLAT_AMP)

    triple = survival_probabilities(wf, FLAT_AMP, NO_NOISE, 2000, seed=7)
    est = tomographic_estimator(triple)
    dev = abs(est.value - i_om)
    rep.check("Monte-Carlo estimator matches I_Omega within 3 SE",
              dev < 3 * est.stderr,
              f"|P - I| = {dev:.2e}, SE = {est.stderr:.2e}")

    reals = sample_many(FLAT_AMP, wf.n, wf.dt, seed=8, indices=range(2000))
    a1 = error_vector_first_order(wf, reals, np.zeros(wf.n))[:, 0]
    fourth = float(np.mean(a1**4))
    se4 = float(np.std(a1**4) / np.sqrt(a1.size))
    dev4 = abs(fourth - 3 * i_om**2)
    rep.check("<a1^4> matches 3 I_Omega^2 within 3 sigma", dev4 < 3 * se4,
              f"dev {dev4:.2e}, SE {se4:.2e}")
    rep.finish()


def test_criterion_7_bias_mechanism():
    rep = Report("criterion 7: detuning bias mechanism (desk scale)", 900)
    detunings = [0.0, 0.05, 0.10, 0.19]  # MHz, matching Delta/lambda of the study
    results = {}
    for family, wf in (("dr", desk_dr()), ("dpss", desk_dpss())):
        discrepancies = []
        stderrs = []
        for d_mhz in detunings:
            deph = SpectrumModel.dc_delta(d_mhz * MHZ)
            triple = survival_probabilities(wf, FLAT_AMP, deph, 2000, seed=31)
            est = tomographic_estimator(triple)
            parts = bias_breakdown(wf, FLAT_AMP, deph)
            discrepancies.append(abs(est.value - parts.i_omega))
            stderrs.append(est.stderr)
            if family == "dr" and d_mhz == 0.19:
                floor = parts.multiplicative_term
                rep.check(
                    "dephasing-robust I_Omega*I_Z/3 term vanishes",
                    floor < 1e-4 * parts.i_omega,
                    f"{floor:.2e} vs I_Omega {parts.i_omega:.2e} "
                    "(DC null to the discretization floor)",
                )
        results[family] = (np.array(discrepancies), np.array(stderrs))

    d_dpss = results["dpss"][0]
    rep.check("Slepian |P - I_Omega| increases monotonically in detuning",
              bool(np.all(np.diff(d_dpss) > 0)),
              " -> ".join(f"{v:.4f}" for v in d_dpss))
    d_dr, se_dr = results["dr"]
    spread = np.abs(d_dr[1:] - d_dr[0])
    limit = 3 * np.hypot(se_dr[1:], se_dr[0])
    rep.check("dephasing-robust |P - I_Omega| flat within 3 sigma of Delta = 0",
              bool(np.all(spread < limit)),
              " ".join(f"{v:.4f}" for v in d_dr))
    rep.finish()


def test_criterion_8_end_to_end_reconstruction():
    rep = Report("criterion 8: end-to-end reconstruction (desk scale)", 3600)
    n, dt, bands = 2000, 10e-9, 40
    t = n * dt
    delta_omega = 0.05 * MHZ
    lams = np.arange(1, bands + 1) * delta_omega
    deph = SpectrumModel.dc_delta(0.19 * MHZ)  # the largest detuning

    medians = {}
    signed = {}
    for family in ("dr", "dpss"):
        if family == "dr":
            wfs = [desk_dr(n, dt, lam) for lam in lams]
        else:
            wfs = [desk_dpss(n, dt, lam) for lam in lams]
        matrix = overlap_matrix(wfs, bands, delta_omega)
        measurements = []
        for i, wf in enumerate(wfs):
            triple = survival_probabilities(wf, FLAT_AMP, deph, 500, seed=1000 + i)
            measurements.append(tomographic_estimator(triple).value)
        truth = np.full(bands, 1.04e-11)
        result = reconstruct(np.array(measurements), matrix, true_spectrum=truth)
        rel = result.relative_errors
        medians[family] = float(np.median(np.abs(rel)))
        signed[family] = float(np.median(rel))

    rep.check("dephasing-robust median in-band relative error < 15%",
              medians["dr"] < 0.15, f"{medians['dr']:.3f}")
    rep.check("dephasing-robust error strictly smaller than Slepian's",
              medians["dr"] < medians["dpss"],
              f"{medians['dr']:.3f} vs {medians['dpss']:.3f}")
    rep.check("Slepian estimate biased low", signed["dpss"] < 0.0,
              f"median signed {signed['dpss']:.3f}")
    rep.finish()


def test_criterion_9_spectral_concentration():
    rep = Report("criterion 9: spectral concentration ratios", 60)
    n, dt = 10000, 10e-9
    t = n * dt
    lam = 0.1 * MHZ
    halfw = 2 * np.pi / t
    r_slep = spectral_concentration(modulated_dpss_waveform(n, 1.0 / n, 5 * MHZ, lam, dt),
                                    lam, halfw)
    r_dr = spectral_concentration(dephasing_robust(t, 10, 1, n), lam, halfw)
    rep.check("Slepian ratio 0.981 +- 0.005", abs(r_slep - 0.981) < 0.005,
              f"{r_slep:.4f}")
    rep.check("dephasing-robust ratio 0.904 +- 0.005", abs(r_dr - 0.904) < 0.005,
              f"{r_dr:.4f}")
    rep.finish()


def test_criterion_10_determinism(tmp_path):
    rep = Report("criterion 10: byte-identical reruns", 300)
    import json

    cfg = {
        "waveform": {"family": "dpss", "n": 1000, "dt_ns": 20.0, "amp_mhz": 5.0,
                     "nw": 1.0},
        "amplitude_noise": {"kind": "flat_cutoff", "a_omega": 1.04e-11,
                            "omega_h_mhz": 2.0},
        "dephasing_noise": {"kind": "one_over_f", "c": 29.3, "a_z": 1e8,
                            "omega_l_mhz": 0.01, "omega_h_mhz": 2.0},
        "lambdas_mhz": [0.2, 0.4],
        "realizations": 50,
        "seed": 12,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sim_{tag}"
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    same_sim = ((outs[0] / "survival.csv").read_bytes()
                == (outs[1] / "survival.csv").read_bytes())
    rep.check("simulate rerun byte-identical", same_sim)

    figs = []
    for tag in ("a", "b"):
        out = tmp_path / f"fig_{tag}"
        assert cli_main(["figure-data", "--set", "gz-map", "--scale", "desk",
                         "--out", str(out)]) == 0
        figs.append(out)
    same_fig = all(
        (figs[0] / name).read_bytes() == (figs[1] / name).read_bytes()
        for name in ("gz_dr.csv", "gz_dpss.csv", "manifest.json")
    )
    rep.check("figure-data rerun byte-identical", same_fig)
    rep.finish()
