"""Reproducible experiment driver.

Every subcommand writes its artifacts plus a ``manifest.json`` recording the
exact configuration, its hash, the seed and the package version; reruns with
the same configuration and seed are byte-identical (no timestamps, fixed
float formatting).  Frequencies in all human-facing files are ordinary
frequencies in MHz; everything internal is angular (rad/s).

Exit codes: 0 success, 2 configuration error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import GridError, NonConvergenceError, ParameterError, UndefinedRatioError
from .filterfn import (
    amplitude_ff,
    dephasing_ff,
    ff_to_csv,
    higher_order_ff,
    higher_order_ff_to_csv,
)
from .lp_reduce import constraints_to_csv, prune_constraints
from .noisegen import SpectrumModel, psd_eval, spectrum_model_from_json
from .optimize import (
    amplitude_constraints,
    build_design_problem,
    design_waveform,
    objective_Iz,
    solve_design,
)
from .qsim import bias_breakdown, overlap_amplitude, survival_probabilities, tomographic_estimator
from .slepian import dpss
from .spectro import overlap_matrix, reconstruct
from .waveform import (
    PiecewiseConstantWaveform,
    dephasing_robust,
    modulated_dpss_waveform,
    root_index_for_peak_rate,
    waveform_to_csv,
)

MHZ = 2.0 * np.pi * 1e6  # rad/s per MHz of ordinary frequency


# ---------------------------------------------------------------------------
# Artifact plumbing
# ---------------------------------------------------------------------------


def _write_manifest(outdir: Path, command: str, config: dict, seed, artifacts):
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": command,
        "config": config,
        "config_sha256": hashlib.sha256(payload.encode()).hexdigest(),
        "seed": seed,
        "version": __version__,
        "artifacts": sorted(artifacts),
        "complete": True,
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: str, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def _outdir(args) -> Path:
    target = args.out or os.environ.get("QNSPECT_OUTDIR")
    if not target:
        raise ParameterError("no output directory: pass --out or set QNSPECT_OUTDIR")
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sweep_waveform(family: str, lam: float, n: int, dt: float, amp: float,
                    time_bandwidth: float) -> PiecewiseConstantWaveform:
    """One probe waveform at modulation frequency lam (rad/s)."""
    total_time = n * dt
    if family == "dr":
        periods = int(round(lam * total_time / (2.0 * np.pi)))
        root = root_index_for_peak_rate(lam, amp)
        return dephasing_robust(total_time, periods, root, n)
    if family == "dpss":
        return modulated_dpss_waveform(n, time_bandwidth / n, amp, lam, dt)
    raise ParameterError(f"unknown waveform family {family!r} (use 'dr' or 'dpss')")


def _waveform_from_config(cfg: dict, lam: float) -> PiecewiseConstantWaveform:
    return _sweep_waveform(
        family=cfg.get("family", "dr"),
        lam=lam,
        n=int(cfg["n"]),
        dt=float(cfg["dt_ns"]) * 1e-9,
        amp=float(cfg.get("amp_mhz", 5.0)) * MHZ,
        time_bandwidth=float(cfg.get("nw", 1.0)),
    )


def _lambdas_from_config(cfg) -> np.ndarray:
    if isinstance(cfg, dict):
        start = float(cfg["start_mhz"])
        step = float(cfg["step_mhz"])
        count = int(cfg["count"])
        return (start + step * np.arange(count)) * MHZ
    return np.asarray([float(v) for v in cfg]) * MHZ


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_dpss(args):
    out = _outdir(args)
    ds = dpss(args.n, args.nw / args.n, args.k)
    _write_csv(out / "dpss_sequences.csv",
               "n," + ",".join(f"v{k}" for k in range(args.k)),
               ([m] + [float(ds.sequences[k, m]) for k in range(args.k)]
                for m in range(args.n)))
    _write_csv(out / "dpss_eigenvalues.csv", "k,concentration",
               ([k, float(v)] for k, v in enumerate(ds.eigenvalues)))
    _write_manifest(out, "dpss", {"n": args.n, "nw": args.nw, "k": args.k}, None,
                    ["dpss_sequences.csv", "dpss_eigenvalues.csv"])


def _cmd_waveform(args):
    out = _outdir(args)
    lam = args.lambda_mhz * MHZ
    wf = _sweep_waveform(args.family, lam, args.n, args.t_us * 1e-6 / args.n,
                         args.amp_mhz * MHZ, args.nw)
    params = {"family": args.family, "lambda_mhz": args.lambda_mhz,
              "amp_mhz": args.amp_mhz, "nw": args.nw}
    waveform_to_csv(wf, out / "waveform.csv", params)
    _write_manifest(out, "waveform", {**params, "n": args.n, "t_us": args.t_us}, None,
                    ["waveform.csv"])


def _cmd_ff(args):
    out = _outdir(args)
    lam = args.lambda_mhz * MHZ
    dt = args.t_us * 1e-6 / args.n
    wf = _sweep_waveform(args.waveform, lam, args.n, dt, args.amp_mhz * MHZ, args.nw)
    omegas = np.linspace(0.0, args.max_mhz * MHZ, args.points)
    ff_to_csv(amplitude_ff(wf, omegas), out / "amplitude_ff.csv")
    ff_to_csv(dephasing_ff(wf, omegas), out / "dephasing_ff.csv")
    waveform_to_csv(wf, out / "waveform.csv", {"family": args.waveform})
    config = {"waveform": args.waveform, "lambda_mhz": args.lambda_mhz,
              "t_us": args.t_us, "n": args.n, "amp_mhz": args.amp_mhz,
              "nw": args.nw, "max_mhz": args.max_mhz, "points": args.points}
    _write_manifest(out, "ff", config, None,
                    ["amplitude_ff.csv", "dephasing_ff.csv", "waveform.csv"])


def _cmd_gz(args):
    out = _outdir(args)
    lam = args.lambda_mhz * MHZ
    dt = args.t_us * 1e-6 / args.n
    wf = _sweep_waveform(args.waveform, lam, args.n, dt, args.amp_mhz * MHZ, args.nw)
    base = 2.0 * np.pi / wf.total_time
    top = int(round(args.max_mhz * MHZ / base))
    omegas = np.arange(0, top + 1, args.stride) * base
    grid = higher_order_ff(wf, omegas, omegas)
    higher_order_ff_to_csv(grid, out / "gz.csv")
    config = {"waveform": args.waveform, "lambda_mhz": args.lambda_mhz,
              "t_us": args.t_us, "n": args.n, "amp_mhz": args.amp_mhz,
              "nw": args.nw, "max_mhz": args.max_mhz, "stride": args.stride}
    _write_manifest(out, "gz", config, None, ["gz.csv"])


def _cmd_prune(args):
    out = _outdir(args)
    full = amplitude_constraints(dpss(args.n, args.nw / args.n, args.k), args.omega0_mhz * MHZ,
                                 args.dt_ns * 1e-9, args.omega_max_mhz * MHZ, args.k)
    reduced = prune_constraints(full, args.eps, rng_seed=args.seed)
    constraints_to_csv(reduced, out / "constraints.csv")
    config = {"omega0_mhz": args.omega0_mhz, "n": args.n, "dt_ns": args.dt_ns,
              "omega_max_mhz": args.omega_max_mhz, "nw": args.nw, "k": args.k,
              "eps": args.eps}
    _write_manifest(out, "prune", config, args.seed, ["constraints.csv"])
    print(f"retained {reduced.num_rows} constraints")


def _cmd_optimize(args):
    out = _outdir(args)
    problem = build_design_problem(
        args.omega0_mhz * MHZ, args.n, args.dt_ns * 1e-9, args.omega_max_mhz * MHZ,
        time_bandwidth=args.nw, num_orders=args.k, eps=args.eps,
    )
    coeffs = solve_design(problem, seed=args.seed)
    wf = design_waveform(coeffs, problem)
    payload = {
        "omega0_mhz": args.omega0_mhz,
        "cos_coeffs_rad_per_s": [float(v) for v in coeffs.cos_coeffs],
        "sin_coeffs_rad_per_s": [float(v) for v in coeffs.sin_coeffs],
        "objective": objective_Iz(coeffs, problem),
        "max_amplitude_ratio": float(np.max(np.abs(wf.samples))) / problem.max_rate,
    }
    with open(out / "coefficients.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    waveform_to_csv(wf, out / "waveform.csv", {"omega0_mhz": args.omega0_mhz})
    config = {"omega0_mhz": args.omega0_mhz, "k": args.k, "nw": args.nw,
              "omega_max_mhz": args.omega_max_mhz, "eps": args.eps,
              "n": args.n, "dt_ns": args.dt_ns}
    _write_manifest(out, "optimize", config, args.seed,
                    ["coefficients.json", "waveform.csv"])


def run_sweep(config: dict, seed: int, realizations: int):
    """Survival-probability sweep over modulation frequencies.

    Returns a list of per-lambda result dicts (the rows of survival.csv).
    """
    lambdas = _lambdas_from_config(config["lambdas_mhz"])
    amp_model = spectrum_model_from_json(config["amplitude_noise"])
    deph_model = spectrum_model_from_json(config["dephasing_noise"])
    shots = config.get("shots")
    rows = []
    for i, lam in enumerate(lambdas):
        wf = _waveform_from_config(config["waveform"], lam)
        triple = survival_probabilities(wf, amp_model, deph_model, realizations,
                                        seed=seed + 1000 * i, shots=shots)
        est = tomographic_estimator(triple)
        rows.append({
            "lambda_mhz": lam / MHZ,
            "p1": triple.p1, "p2": triple.p2, "p3": triple.p3,
            "p1_err": triple.err1, "p2_err": triple.err2, "p3_err": triple.err3,
            "estimator": est.value, "estimator_err": est.stderr,
            "i_omega_pred": overlap_amplitude(wf, amp_model),
        })
    return rows


def _cmd_simulate(args):
    config = _load_config(args.config)
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    realizations = (args.realizations if args.realizations is not None
                    else int(config.get("realizations", 2000)))
    out = _outdir(args)
    rows = run_sweep(config, seed, realizations)
    keys = ["lambda_mhz", "p1", "p2", "p3", "p1_err", "p2_err", "p3_err",
            "estimator", "estimator_err", "i_omega_pred"]
    _write_csv(out / "survival.csv", ",".join(keys),
               ([float(r[k]) for k in keys] for r in rows))
    _write_manifest(out, "simulate",
                    {**config, "seed": seed, "realizations": realizations},
                    seed, ["survival.csv"])


def _cmd_reconstruct(args):
    config = _load_config(args.config)
    out = _outdir(args)
    table = _read_csv_dicts(Path(config["measurements_csv"]))
    lambdas = np.array([row["lambda_mhz"] for row in table]) * MHZ
    measurements = np.array([row["estimator"] for row in table])
    delta_omega = float(config["delta_omega_mhz"]) * MHZ
    num_bands = int(config["num_bands"])
    waveforms = [_waveform_from_config(config["waveform"], lam) for lam in lambdas]
    matrix = overlap_matrix(waveforms, num_bands, delta_omega,
                            row_labels=np.round(lambdas / delta_omega).astype(int))
    truth = None
    if "true_spectrum" in config:
        model = spectrum_model_from_json(config["true_spectrum"])
        truth = psd_eval(model, matrix.band_centers)
    result = reconstruct(measurements, matrix, true_spectrum=truth)
    rows = []
    for i, freq in enumerate(result.frequencies):
        row = [float(freq / MHZ), float(result.estimates[i])]
        if truth is not None:
            row.append(float(truth[i]))
        rows.append(row)
    header = "omega_over_2pi_mhz,s_omega_est" + (",s_omega_true" if truth is not None else "")
    _write_csv(out / "spectrum.csv", header, rows)
    summary = {
        "residual_norm": result.residual_norm,
        "condition_number": result.condition_number,
    }
    if result.relative_errors is not None:
        finite = result.relative_errors[np.isfinite(result.relative_errors)]
        summary["median_abs_relative_error"] = float(np.median(np.abs(finite)))
        summary["median_signed_relative_error"] = float(np.median(finite))
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out, "reconstruct", config, None, ["spectrum.csv", "summary.json"])


# ---------------------------------------------------------------------------
# figure-data: canned pipelines at configurable scale
# ---------------------------------------------------------------------------

_SCALES = {
    "desk": {"n": 2000, "dt_ns": 10.0, "bands": 40, "delta_mhz": 0.05,
             "realizations": 500},
    "paper": {"n": 10000, "dt_ns": 10.0, "bands": 200, "delta_mhz": 0.01,
              "realizations": 2000},
}

_AMP_NOISE = {"kind": "flat_cutoff", "a_omega": 1.04e-11, "omega_h_mhz": 2.0}


def _figure_waveforms_and_ffs(out: Path, scale: dict, seed: int):
    """Waveforms with their amplitude and dephasing FFs (analytic families)."""
    n = scale["n"]
    dt = scale["dt_ns"] * 1e-9
    total_time = n * dt
    lam = 2.0 * np.pi * 20.0 / total_time  # passband at 20 linewidths
    omegas = np.linspace(0.0, 3.0 * lam, 1501)
    artifacts = []
    cases = [("dr_root1", "dr", 1), ("dr_root2", "dr", 2), ("dr_root3", "dr", 3),
             ("dpss", "dpss", None)]
    for name, family, root in cases:
        if family == "dr":
            wf = dephasing_robust(total_time, 20, root, n)
        else:
            wf = modulated_dpss_waveform(n, 1.0 / n, 5.0 * MHZ, lam, dt)
        waveform_to_csv(wf, out / f"waveform_{name}.csv", {"family": name})
        ff_to_csv(amplitude_ff(wf, omegas), out / f"amplitude_ff_{name}.csv")
        ff_to_csv(dephasing_ff(wf, omegas), out / f"dephasing_ff_{name}.csv")
        artifacts += [f"waveform_{name}.csv", f"amplitude_ff_{name}.csv",
                      f"dephasing_ff_{name}.csv"]
    return artifacts


def _figure_gz_map(out: Path, scale: dict, seed: int):
    """|G_Z| maps highlighting the DC-row peaks of the Slepian waveform."""
    n = scale["n"]
    dt = scale["dt_ns"] * 1e-9
    total_time = n * dt
    lam = 2.0 * np.pi * 20.0 / total_time
    base = 2.0 * np.pi / total_time
    omegas = np.arange(0, 61, 2) * base
    artifacts = []
    for name, wf in [
        ("dr", dephasing_robust(total_time, 20, root_index_for_peak_rate(lam, 5 * MHZ), n)),
        ("dpss", modulated_dpss_waveform(n, 1.0 / n, 5.0 * MHZ, lam, dt)),
    ]:
        higher_order_ff_to_csv(higher_order_ff(wf, omegas, omegas), out / f"gz_{name}.csv")
        artifacts.append(f"gz_{name}.csv")
    return artifacts


def _figure_bias_vs_detuning(out: Path, scale: dict, seed: int):
    """Estimator discrepancy and its fourth-order pieces versus detuning."""
    n = scale["n"]
    dt = scale["dt_ns"] * 1e-9
    total_time = n * dt
    lam = 2.0 * np.pi * 1e6  # 1 MHz modulation as in the bias study
    periods = int(round(lam * total_time / (2.0 * np.pi)))
    amp_model = spectrum_model_from_json(_AMP_NOISE)
    # detuning values are not rescaled with the shorter desk-scale duration:
    # the robustness mechanism depends on Delta/lambda, which these preserve
    detunings_mhz = [0.0, 0.05, 0.10, 0.19]
    rows = []
    for family in ("dr", "dpss"):
        if family == "dr":
            wf = dephasing_robust(total_time, periods,
                                  root_index_for_peak_rate(lam, 5 * MHZ), n)
        else:
            wf = modulated_dpss_waveform(n, 1.0 / n, 5.0 * MHZ, lam, dt)
        for delta_mhz in detunings_mhz:
            deph = SpectrumModel.dc_delta(delta_mhz * MHZ)
            triple = survival_probabilities(wf, amp_model, deph,
                                            scale["realizations"], seed=seed)
            est = tomographic_estimator(triple)
            parts = bias_breakdown(wf, amp_model, deph)
            rows.append([family, float(delta_mhz), est.value, est.stderr,
                         parts.i_omega, parts.i_z, parts.a12_sq,
                         parts.multiplicative_term, parts.predicted])
    _write_csv(out / "bias_vs_detuning.csv",
               "family,delta_mhz,estimator,estimator_err,i_omega,i_z,a12_sq,"
               "i_om_i_z_over_3,predicted", rows)
    return ["bias_vs_detuning.csv"]


def _reconstruction_sweep(out: Path, scale: dict, seed: int, deph_payloads,
                          tag_values, tag_name: str):
    n = scale["n"]
    dt = scale["dt_ns"] * 1e-9
    bands = scale["bands"]
    delta = scale["delta_mhz"]
    lambdas = {"start_mhz": delta, "step_mhz": delta, "count": bands}
    artifacts = []
    rows_out = []
    for family in ("dr", "dpss"):
        wf_cfg = {"family": family, "n": n, "dt_ns": scale["dt_ns"],
                  "amp_mhz": 5.0, "nw": 1.0}
        waveforms = [_waveform_from_config(wf_cfg, lam)
                     for lam in _lambdas_from_config(lambdas)]
        matrix = overlap_matrix(waveforms, bands, delta * MHZ)
        truth = psd_eval(spectrum_model_from_json(_AMP_NOISE), matrix.band_centers)
        for tag, payload in zip(tag_values, deph_payloads):
            config = {"waveform": wf_cfg, "amplitude_noise": _AMP_NOISE,
                      "dephasing_noise": payload, "lambdas_mhz": lambdas}
            sweep = run_sweep(config, seed, scale["realizations"])
            estimates = reconstruct([r["estimator"] for r in sweep], matrix,
                                    true_spectrum=truth)
            for i, freq in enumerate(estimates.frequencies):
                rows_out.append([family, float(tag), float(freq / MHZ),
                                 float(estimates.estimates[i]), float(truth[i])])
    name = f"reconstruction_vs_{tag_name}.csv"
    _write_csv(out / name,
               f"family,{tag_name},omega_over_2pi_mhz,s_omega_est,s_omega_true",
               rows_out)
    artifacts.append(name)
    return artifacts


def _figure_reconstruction_detuning(out: Path, scale: dict, seed: int):
    detunings = [0.01, 0.10, 0.19]
    payloads = [{"kind": "dc_delta", "mu_z_mhz": d} for d in detunings]
    return _reconstruction_sweep(out, scale, seed, payloads, detunings, "delta_mhz")


def _figure_reconstruction_dephasing(out: Path, scale: dict, seed: int):
    c_values = [3.18, 29.3, 299.1]
    payloads = [{"kind": "one_over_f", "c": c, "a_z": 1e8,
                 "omega_l_mhz": 0.01, "omega_h_mhz": 2.0} for c in c_values]
    return _reconstruction_sweep(out, scale, seed, payloads, c_values, "c_scale")


_FIGURE_SETS = {
    "waveforms-and-ffs": _figure_waveforms_and_ffs,
    "gz-map": _figure_gz_map,
    "bias-vs-detuning": _figure_bias_vs_detuning,
    "reconstruction-detuning": _figure_reconstruction_detuning,
    "reconstruction-dephasing": _figure_reconstruction_dephasing,
}


def _cmd_figure_data(args):
    out = _outdir(args)
    scale = dict(_SCALES[args.scale])
    if args.realizations is not None:
        scale["realizations"] = args.realizations
    artifacts = _FIGURE_SETS[args.set](out, scale, args.seed)
    _write_manifest(out, "figure-data",
                    {"set": args.set, "scale": args.scale,
                     "realizations": scale["realizations"]},
                    args.seed, artifacts)


# ---------------------------------------------------------------------------
# Config and entry point
# ---------------------------------------------------------------------------


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParameterError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file {path} is not valid JSON: {exc}")


def _read_csv_dicts(path: Path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnspect",
        description="Dephasing-robust amplitude control and simulated noise spectroscopy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dpss", help="emit Slepian sequences and concentrations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nw", type=float, default=1.0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dpss)

    p = sub.add_parser("waveform", help="emit a control waveform")
    p.add_argument("--family", choices=["dr", "dpss"], required=True)
    p.add_argument("--lambda-mhz", type=float, required=True)
    p.add_argument("--t-us", "--T-us", type=float, required=True, dest="t_us")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--amp-mhz", type=float, default=5.0)
    p.add_argument("--nw", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_waveform)

    p = sub.add_parser("ff", help="amplitude and dephasing filter functions")
    p.add_argument("--waveform", choices=["dr", "dpss"], required=True)
    p.add_argument("--lambda-mhz", type=float, required=True)
    p.add_argument("--t-us", "--T-us", type=float, required=True, dest="t_us")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--amp-mhz", type=float, default=5.0)
    p.add_argument("--nw", type=float, default=1.0)
    p.add_argument("--max-mhz", type=float, default=2.0)
    p.add_argument("--points", type=int, default=2000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ff)

    p = sub.add_parser("gz", help="higher-order dephasing filter function")
    p.add_argument("--waveform", choices=["dr", "dpss"], required=True)
    p.add_argument("--lambda-mhz", type=float, required=True)
    p.add_argument("--t-us", "--T-us", type=float, required=True, dest="t_us")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--amp-mhz", type=float, default=5.0)
    p.add_argument("--nw", type=float, default=1.0)
    p.add_argument("--max-mhz", type=float, default=0.3)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gz)

    p = sub.add_parser("prune", help="LP reduction of the amplitude constraints")
    p.add_argument("--omega0-mhz", type=float, required=True)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--dt-ns", type=float, default=5.0)
    p.add_argument("--omega-max-mhz", type=float, default=5.0)
    p.add_argument("--nw", type=float, default=1.0)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("optimize", help="solve the waveform design problem")
    p.add_argument("--omega0-mhz", type=float, required=True)
    p.add_argument("--k", "--K", type=int, default=3, dest="k")
    p.add_argument("--nw", "--NW", type=float, default=1.0, dest="nw")
    p.add_argument("--omega-max-mhz", type=float, default=5.0)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--dt-ns", type=float, default=5.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("simulate", help="Monte-Carlo survival-probability sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--realizations", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="invert a sweep into a spectrum estimate")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("figure-data", help="canned analysis pipelines (tidy CSV)")
    p.add_argument("--set", choices=sorted(_FIGURE_SETS), required=True)
    p.add_argument("--scale", choices=["desk", "paper"], default="desk")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--realizations", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_figure_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ParameterError, GridError, UndefinedRatioError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
