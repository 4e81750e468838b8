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
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._table import read_table, write_table
from .errors import (GridError, NonConvergenceError, ParameterError, UndefinedRatioError,
                     _integer, _positive, _real)
from .filterfn import (
    _MAX_DFT_BIN,
    _MAX_GZ_CELLS,
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
    _whole_periods,
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
    _write_json(outdir / "manifest.json", manifest)


def _write_json(path: Path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_target(args) -> str | None:
    return args.out or os.environ.get("QNSPECT_OUTDIR")


def _outdir(args) -> Path:
    target = _out_target(args)
    if not target:
        raise ParameterError("no output directory: pass --out or set QNSPECT_OUTDIR")
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _flags(args) -> dict:
    """The command's flags by name, --seed and --out aside: its manifest ``config``."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func", "seed", "out")}


def _sweep_waveform(family: str, lam: float, n: int, dt: float, amp: float,
                    time_bandwidth: float) -> PiecewiseConstantWaveform:
    """One probe waveform at modulation frequency lam (rad/s)."""
    if family == "dr":
        # the period count is checked before any J0 root search
        periods = _whole_periods(lam, n * dt, n)
        return dephasing_robust(n * dt, periods, root_index_for_peak_rate(lam, amp), n)
    if family == "dpss":
        return modulated_dpss_waveform(n, time_bandwidth / n, amp, lam, dt)
    raise ParameterError(f"unknown waveform family {family!r} (use 'dr' or 'dpss')")


def _waveform_from_config(cfg: dict, lam: float) -> PiecewiseConstantWaveform:
    if not isinstance(cfg, dict):
        raise ParameterError(f"the waveform config must be a JSON object, got {cfg!r}")
    return _sweep_waveform(
        family=cfg.get("family", "dr"),
        lam=lam,
        n=_integer(cfg["n"], "waveform n", 1),
        dt=_real(cfg["dt_ns"], "dt_ns") * 1e-9,
        amp=_real(cfg.get("amp_mhz", 5.0), "amp_mhz") * MHZ,
        time_bandwidth=_real(cfg.get("nw", 1.0), "nw"),
    )


def _lambdas_from_config(cfg) -> np.ndarray:
    if isinstance(cfg, dict):
        start = _real(cfg["start_mhz"], "start_mhz")
        step = _real(cfg["step_mhz"], "step_mhz")
        count = _integer(cfg["count"], "lambdas_mhz count", 1)
        return (start + step * np.arange(count)) * MHZ
    if not isinstance(cfg, list):
        raise ParameterError(f"lambdas_mhz must be a list or an object, got {cfg!r}")
    return np.asarray([_real(v, "lambdas_mhz") for v in cfg]) * MHZ


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _dpss_of(args):
    """The --k DPSS of length --n and time-bandwidth --nw; n is checked before NW/n."""
    n = _integer(args.n, "--n", 2)
    return dpss(n, args.nw / n, args.k)


def _cmd_dpss(args):
    out = _outdir(args)
    ds = _dpss_of(args)
    write_table(out / "dpss_sequences.csv",
                "n," + ",".join(f"v{k}" for k in range(args.k)),
                [[m] + row for m, row in enumerate(ds.sequences.T.tolist())])
    write_table(out / "dpss_eigenvalues.csv", "k,concentration",
                [[k, v] for k, v in enumerate(ds.eigenvalues.tolist())])
    _write_manifest(out, "dpss", _flags(args), None,
                    ["dpss_sequences.csv", "dpss_eigenvalues.csv"])


def _probe(args, family: str) -> PiecewiseConstantWaveform:
    """The probe waveform of the probe flags (--lambda-mhz, --t-us, --n, --amp-mhz, --nw)."""
    dt = _positive(args.t_us, "--t-us") * 1e-6 / _integer(args.n, "--n", 1)
    return _sweep_waveform(family, args.lambda_mhz * MHZ, args.n, dt, args.amp_mhz * MHZ,
                           args.nw)


def _cmd_waveform(args):
    out = _outdir(args)
    wf = _probe(args, args.family)
    params = {"family": args.family, "lambda_mhz": args.lambda_mhz,
              "amp_mhz": args.amp_mhz, "nw": args.nw}
    waveform_to_csv(wf, out / "waveform.csv", params)
    _write_manifest(out, "waveform", _flags(args), None, ["waveform.csv"])


def _cmd_ff(args):
    out = _outdir(args)
    wf = _probe(args, args.waveform)
    omegas = np.linspace(0.0, _positive(args.max_mhz, "--max-mhz") * MHZ,
                         _integer(args.points, "--points", 1))
    # both grids before any file, so that a rejected grid leaves none behind
    amp, deph = amplitude_ff(wf, omegas), dephasing_ff(wf, omegas)
    ff_to_csv(amp, out / "amplitude_ff.csv")
    ff_to_csv(deph, out / "dephasing_ff.csv")
    waveform_to_csv(wf, out / "waveform.csv", {"family": args.waveform})
    _write_manifest(out, "ff", _flags(args), None,
                    ["amplitude_ff.csv", "dephasing_ff.csv", "waveform.csv"])


def _cmd_gz(args):
    out = _outdir(args)
    wf = _probe(args, args.waveform)
    base = 2.0 * np.pi / wf.total_time
    top = args.max_mhz * MHZ / base
    if not 0.0 <= top < _MAX_DFT_BIN or args.stride < 1:
        raise ParameterError(f"need --max-mhz >= 0 below 2^53 DFT bins and --stride >= 1, "
                             f"got {args.max_mhz} and {args.stride}")
    points = int(round(top)) // args.stride + 1
    if points ** 2 > _MAX_GZ_CELLS:  # before the grid itself is allocated
        raise GridError(f"a {points} x {points} G_Z grid exceeds {_MAX_GZ_CELLS} cells")
    omegas = np.arange(points) * args.stride * base
    higher_order_ff_to_csv(higher_order_ff(wf, omegas, omegas), out / "gz.csv")
    _write_manifest(out, "gz", _flags(args), None, ["gz.csv"])


def _cmd_prune(args):
    out = _outdir(args)
    full = amplitude_constraints(_dpss_of(args), args.omega0_mhz * MHZ,
                                 args.dt_ns * 1e-9, args.omega_max_mhz * MHZ, args.k)
    reduced = prune_constraints(full, args.eps, rng_seed=args.seed)
    constraints_to_csv(reduced, out / "constraints.csv")
    _write_manifest(out, "prune", _flags(args), args.seed, ["constraints.csv"])
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
    _write_json(out / "coefficients.json", payload)
    waveform_to_csv(wf, out / "waveform.csv", {"omega0_mhz": args.omega0_mhz})
    _write_manifest(out, "optimize", _flags(args), args.seed,
                    ["coefficients.json", "waveform.csv"])


def _estimates(amp_model, deph_model, waveforms, seed: int, realizations: int, shots=None):
    """(R, 8) Monte-Carlo rows, one per probe: p1, p2, p3, their errors, the estimator
    and its error.  Probe i draws its noise from seed + 1000 i."""
    rows = []
    for i, wf in enumerate(waveforms):
        t = survival_probabilities(wf, amp_model, deph_model, realizations,
                                   seed=seed + 1000 * i, shots=shots)
        est = tomographic_estimator(t)
        rows.append([t.p1, t.p2, t.p3, t.err1, t.err2, t.err3, est.value, est.stderr])
    return np.array(rows, dtype=float)


def _cmd_simulate(args):
    config = _load_config(args.config)
    seed = _integer(args.seed if args.seed is not None else config.get("seed", 0), "seed", 0)
    realizations = _integer(args.realizations if args.realizations is not None
                            else config.get("realizations", 2000), "realizations", 1)
    out = _outdir(args)
    lambdas = _lambdas_from_config(config["lambdas_mhz"])
    waveforms = [_waveform_from_config(config["waveform"], lam) for lam in lambdas]
    amp_model = spectrum_model_from_json(config["amplitude_noise"])
    deph_model = spectrum_model_from_json(config["dephasing_noise"])
    # the overlaps first: a model they reject fails before any Monte-Carlo work
    overlaps = [overlap_amplitude(wf, amp_model) for wf in waveforms]
    estimates = _estimates(amp_model, deph_model, waveforms, seed, realizations,
                           config.get("shots"))
    write_table(out / "survival.csv",
                "lambda_mhz,p1,p2,p3,p1_err,p2_err,p3_err,estimator,estimator_err,i_omega_pred",
                np.column_stack([lambdas / MHZ, estimates, overlaps]))
    _write_manifest(out, "simulate",
                    {**config, "seed": seed, "realizations": realizations},
                    seed, ["survival.csv"])


def _cmd_reconstruct(args):
    config = _load_config(args.config)
    measurements_csv = config["measurements_csv"]
    if not isinstance(measurements_csv, str):
        raise ParameterError(f"measurements_csv must be a path string, got {measurements_csv!r}")
    out = _outdir(args)
    table = read_table(Path(measurements_csv), ["lambda_mhz", "estimator"])[1]
    lambdas, measurements = table[:, 0] * MHZ, table[:, 1]
    delta_omega = _real(config["delta_omega_mhz"], "delta_omega_mhz") * MHZ
    num_bands = _integer(config["num_bands"], "num_bands", 1)
    waveforms = [_waveform_from_config(config["waveform"], lam) for lam in lambdas]
    matrix = overlap_matrix(waveforms, num_bands, delta_omega)
    truth = None
    if "true_spectrum" in config:
        model = spectrum_model_from_json(config["true_spectrum"])
        truth = psd_eval(model, matrix.band_centers)
    result = reconstruct(measurements, matrix, true_spectrum=truth)
    columns = [result.frequencies / MHZ, result.estimates] + ([truth] if truth is not None else [])
    header = "omega_over_2pi_mhz,s_omega_est" + (",s_omega_true" if truth is not None else "")
    write_table(out / "spectrum.csv", header, np.column_stack(columns))
    summary = {
        "residual_norm": result.residual_norm,
        "condition_number": result.condition_number,
    }
    if result.relative_errors is not None:
        finite = result.relative_errors[np.isfinite(result.relative_errors)]
        # a true spectrum that is zero in every band leaves no relative error
        if finite.size:
            summary["median_abs_relative_error"] = float(np.median(np.abs(finite)))
            summary["median_signed_relative_error"] = float(np.median(finite))
    _write_json(out / "summary.json", summary)
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


def _grid(scale: dict):
    """(n, dt, T, lam) of a figure set; lam = 2 pi 20/T puts the passband at 20 linewidths."""
    n, dt = scale["n"], scale["dt_ns"] * 1e-9
    total_time = n * dt
    return n, dt, total_time, 2.0 * np.pi * 20.0 / total_time


def _figure_waveforms_and_ffs(out: Path, scale: dict, seed: int):
    """Waveforms with their amplitude and dephasing FFs (analytic families)."""
    n, dt, total_time, lam = _grid(scale)
    omegas = np.linspace(0.0, 3.0 * lam, 1501)
    names = ["dr_root1", "dr_root2", "dr_root3", "dpss"]
    for root, name in enumerate(names, start=1):
        wf = (_sweep_waveform("dpss", lam, n, dt, 5.0 * MHZ, 1.0) if name == "dpss"
              else dephasing_robust(total_time, 20, root, n))
        waveform_to_csv(wf, out / f"waveform_{name}.csv", {"family": name})
        ff_to_csv(amplitude_ff(wf, omegas), out / f"amplitude_ff_{name}.csv")
        ff_to_csv(dephasing_ff(wf, omegas), out / f"dephasing_ff_{name}.csv")
    return [f"{kind}_{name}.csv" for name in names
            for kind in ("waveform", "amplitude_ff", "dephasing_ff")]


def _figure_gz_map(out: Path, scale: dict, seed: int):
    """|G_Z| maps highlighting the DC-row peaks of the Slepian waveform."""
    n, dt, total_time, lam = _grid(scale)
    omegas = np.arange(0, 61, 2) * (2.0 * np.pi / total_time)
    for name in ("dr", "dpss"):
        wf = _sweep_waveform(name, lam, n, dt, 5.0 * MHZ, 1.0)
        higher_order_ff_to_csv(higher_order_ff(wf, omegas, omegas), out / f"gz_{name}.csv")
    return ["gz_dr.csv", "gz_dpss.csv"]


def _figure_bias_vs_detuning(out: Path, scale: dict, seed: int):
    """Estimator discrepancy and its fourth-order pieces versus detuning."""
    n, dt = _grid(scale)[:2]
    lam = 2.0 * np.pi * 1e6  # 1 MHz modulation as in the bias study
    amp_model = spectrum_model_from_json(_AMP_NOISE)
    # detuning values are not rescaled with the shorter desk-scale duration:
    # the robustness mechanism depends on Delta/lambda, which these preserve
    detunings_mhz = [0.0, 0.05, 0.10, 0.19]
    rows = []
    for family in ("dr", "dpss"):
        wf = _sweep_waveform(family, lam, n, dt, 5.0 * MHZ, 1.0)
        for delta_mhz in detunings_mhz:
            deph = SpectrumModel.dc_delta(delta_mhz * MHZ)
            value, stderr = _estimates(amp_model, deph, [wf], seed, scale["realizations"])[0, 6:]
            parts = bias_breakdown(wf, amp_model, deph)
            rows.append([family, float(delta_mhz), value, stderr,
                         parts.i_omega, parts.i_z, parts.a12_sq,
                         parts.multiplicative_term, parts.predicted])
    write_table(out / "bias_vs_detuning.csv",
                "family,delta_mhz,estimator,estimator_err,i_omega,i_z,a12_sq,"
                "i_om_i_z_over_3,predicted", rows)
    return ["bias_vs_detuning.csv"]


def _reconstruction_sweep(out: Path, scale: dict, seed: int, deph_payloads,
                          tag_values, tag_name: str):
    n, dt = _grid(scale)[:2]
    bands = scale["bands"]
    delta = scale["delta_mhz"]
    lambda_values = (delta + delta * np.arange(bands)) * MHZ
    amp_model = spectrum_model_from_json(_AMP_NOISE)
    deph_models = [spectrum_model_from_json(payload) for payload in deph_payloads]
    rows = []
    for family in ("dr", "dpss"):
        waveforms = [_sweep_waveform(family, lam, n, dt, 5.0 * MHZ, 1.0) for lam in lambda_values]
        matrix = overlap_matrix(waveforms, bands, delta * MHZ)
        truth = psd_eval(amp_model, matrix.band_centers)
        for tag, deph_model in zip(tag_values, deph_models):
            sweep = _estimates(amp_model, deph_model, waveforms, seed, scale["realizations"])
            estimates = reconstruct(sweep[:, 6], matrix, true_spectrum=truth)
            for i, freq in enumerate(estimates.frequencies):
                rows.append([family, float(tag), float(freq / MHZ),
                             float(estimates.estimates[i]), float(truth[i])])
    name = f"reconstruction_vs_{tag_name}.csv"
    write_table(out / name,
                f"family,{tag_name},omega_over_2pi_mhz,s_omega_est,s_omega_true", rows)
    return [name]


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
    scale = dict(_SCALES[args.scale])
    if args.realizations is not None:
        scale["realizations"] = _integer(args.realizations, "--realizations", 1)
    out = _outdir(args)
    artifacts = _FIGURE_SETS[args.set](out, scale, args.seed)
    _write_manifest(out, "figure-data",
                    {"set": args.set, "scale": args.scale,
                     "realizations": scale["realizations"]},
                    args.seed, artifacts)


# ---------------------------------------------------------------------------
# Config and entry point
# ---------------------------------------------------------------------------


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ParameterError(f"config file {path} holds no JSON object")
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnspect",
        description="Dephasing-robust amplitude control and simulated noise spectroscopy",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by a command family, declared once as argparse parents
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--lambda-mhz", type=float, required=True)
    probe.add_argument("--t-us", "--T-us", type=float, required=True, dest="t_us")
    probe.add_argument("--amp-mhz", type=float, default=5.0)
    probe.add_argument("--nw", type=float, default=1.0)
    design = argparse.ArgumentParser(add_help=False)
    design.add_argument("--omega0-mhz", type=float, required=True)
    design.add_argument("--n", type=int, default=20000)
    design.add_argument("--dt-ns", type=float, default=5.0)
    design.add_argument("--omega-max-mhz", type=float, default=5.0)
    design.add_argument("--eps", type=float, default=0.1)
    design.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dpss", help="emit Slepian sequences and concentrations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nw", type=float, default=1.0)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=_cmd_dpss)

    p = sub.add_parser("waveform", parents=[probe], help="emit a control waveform")
    p.add_argument("--family", choices=["dr", "dpss"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_waveform)

    p = sub.add_parser("ff", parents=[probe], help="amplitude and dephasing filter functions")
    p.add_argument("--waveform", choices=["dr", "dpss"], required=True)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--max-mhz", type=float, default=2.0)
    p.add_argument("--points", type=int, default=2000)
    p.set_defaults(func=_cmd_ff)

    p = sub.add_parser("gz", parents=[probe], help="higher-order dephasing filter function")
    p.add_argument("--waveform", choices=["dr", "dpss"], required=True)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--max-mhz", type=float, default=0.3)
    p.add_argument("--stride", type=int, default=1)
    p.set_defaults(func=_cmd_gz)

    p = sub.add_parser("prune", parents=[design], help="LP reduction of the amplitude constraints")
    p.add_argument("--nw", type=float, default=1.0)
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("optimize", parents=[design], help="solve the waveform design problem")
    p.add_argument("--k", "--K", type=int, default=3, dest="k")
    p.add_argument("--nw", "--NW", type=float, default=1.0, dest="nw")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("simulate", help="Monte-Carlo survival-probability sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--realizations", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="invert a sweep into a spectrum estimate")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("figure-data", help="canned analysis pipelines (tidy CSV)")
    p.add_argument("--set", choices=sorted(_FIGURE_SETS), required=True)
    p.add_argument("--scale", choices=["desk", "paper"], default="desk")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--realizations", type=int, default=None)
    p.set_defaults(func=_cmd_figure_data)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    target = _out_target(args)
    created = bool(target) and not Path(target).exists()
    try:
        if getattr(args, "seed", None) is not None:
            # before the command makes its output directory
            _integer(args.seed, "--seed", 0)
        args.func(args)
    except (ParameterError, GridError, UndefinedRatioError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        if created:
            # a rejected command leaves no output directory it made; rmdir
            # removes only an empty one
            with contextlib.suppress(OSError):
                Path(target).rmdir()
        return 2
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
