import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import qnspect
from qnspect.cli import main

MHZ = 2 * np.pi * 1e6


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_manifest(outdir):
    with open(Path(outdir) / "manifest.json") as fh:
        return json.load(fh)


class TestBasicCommands:
    def test_dpss(self, tmp_path):
        assert run_cli("dpss", "--n", 64, "--nw", 2.0, "--k", 3, "--out", tmp_path) == 0
        manifest = read_manifest(tmp_path)
        assert manifest["complete"] is True
        assert set(manifest["artifacts"]) == {"dpss_sequences.csv", "dpss_eigenvalues.csv"}
        lines = (tmp_path / "dpss_eigenvalues.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_waveform_and_ff(self, tmp_path):
        out = tmp_path / "ff"
        code = run_cli("ff", "--waveform", "dr", "--lambda-mhz", 0.1, "--t-us", 100,
                       "--n", 2000, "--max-mhz", 0.5, "--points", 200, "--out", out)
        assert code == 0
        amp = (out / "amplitude_ff.csv").read_text().splitlines()
        assert amp[0] == "omega_rad_per_s,value"
        assert len(amp) == 201
        # peak near the modulation frequency
        rows = np.array([[float(v) for v in ln.split(",")] for ln in amp[1:]])
        peak = rows[np.argmax(rows[:, 1]), 0]
        assert abs(peak - 0.1 * MHZ) < 0.01 * MHZ

    def test_gz(self, tmp_path):
        out = tmp_path / "gz"
        assert run_cli("gz", "--waveform", "dr", "--lambda-mhz", 0.2, "--t-us", 20,
                       "--n", 500, "--max-mhz", 0.5, "--stride", 2, "--out", out) == 0
        lines = (out / "gz.csv").read_text().splitlines()
        assert lines[0] == "omega,omega_prime,re,im"

    def test_prune(self, tmp_path, capsys):
        out = tmp_path / "pr"
        code = run_cli("prune", "--omega0-mhz", 0.1, "--n", 1500, "--dt-ns", 60,
                       "--k", 1, "--eps", 0.1, "--seed", 0, "--out", out)
        assert code == 0
        rows = (out / "constraints.csv").read_text().splitlines()
        assert rows[0] == "a_0,a_1"
        assert 5 <= len(rows) - 1 <= 30


class TestSimulatePipeline:
    @pytest.fixture()
    def config(self, tmp_path):
        cfg = {
            "waveform": {"family": "dr", "n": 500, "dt_ns": 40.0, "amp_mhz": 5.0,
                         "nw": 1.0},
            "amplitude_noise": {"kind": "flat_cutoff", "a_omega": 1.04e-11,
                                "omega_h_mhz": 2.0},
            "dephasing_noise": {"kind": "dc_delta", "mu_z_mhz": 0.0},
            "lambdas_mhz": [0.1, 0.2],
            "realizations": 40,
            "seed": 3,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_simulate_columns(self, tmp_path, config):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--config", config, "--out", out) == 0
        lines = (out / "survival.csv").read_text().splitlines()
        assert lines[0] == ("lambda_mhz,p1,p2,p3,p1_err,p2_err,p3_err,"
                            "estimator,estimator_err,i_omega_pred")
        assert len(lines) == 3

    def test_zero_noise_rows_are_unity(self, tmp_path):
        cfg = {
            "waveform": {"family": "dr", "n": 400, "dt_ns": 50.0, "amp_mhz": 5.0},
            "amplitude_noise": {"kind": "flat_cutoff", "a_omega": 0.0,
                                "omega_h_mhz": 2.0},
            "dephasing_noise": {"kind": "dc_delta", "mu_z_mhz": 0.0},
            "lambdas_mhz": [0.1],
            "realizations": 3,
            "seed": 0,
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sim0"
        assert run_cli("simulate", "--config", path, "--out", out) == 0
        row = (out / "survival.csv").read_text().splitlines()[1].split(",")
        p1, p2, p3 = float(row[1]), float(row[2]), float(row[3])
        assert max(abs(p1 - 1), abs(p2 - 1), abs(p3 - 1)) < 1e-12

    def test_byte_identical_reruns(self, tmp_path, config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", config, "--out", out1) == 0
        assert run_cli("simulate", "--config", config, "--out", out2) == 0
        for name in ("survival.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_reconstruct_round_trip(self, tmp_path):
        n, dt_ns = 500, 40.0
        t = n * dt_ns * 1e-9
        delta_mhz = 1.0 / (t * 1e6)  # one linewidth per band
        bands = 4
        sim_cfg = {
            "waveform": {"family": "dr", "n": n, "dt_ns": dt_ns, "amp_mhz": 5.0},
            "amplitude_noise": {"kind": "flat_cutoff", "a_omega": 1.04e-11,
                                "omega_h_mhz": 2.0},
            "dephasing_noise": {"kind": "dc_delta", "mu_z_mhz": 0.0},
            "lambdas_mhz": {"start_mhz": delta_mhz, "step_mhz": delta_mhz,
                            "count": bands},
            "realizations": 300,
            "seed": 5,
        }
        sim_path = tmp_path / "sim.json"
        sim_path.write_text(json.dumps(sim_cfg))
        sim_out = tmp_path / "sweep"
        assert run_cli("simulate", "--config", sim_path, "--out", sim_out) == 0

        rec_cfg = {
            "measurements_csv": str(sim_out / "survival.csv"),
            "num_bands": bands,
            "delta_omega_mhz": delta_mhz,
            "waveform": sim_cfg["waveform"],
            "true_spectrum": sim_cfg["amplitude_noise"],
        }
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(rec_cfg))
        rec_out = tmp_path / "recon"
        assert run_cli("reconstruct", "--config", rec_path, "--out", rec_out) == 0
        lines = (rec_out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "omega_over_2pi_mhz,s_omega_est,s_omega_true"
        table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        # flat spectrum recovered within Monte-Carlo scatter
        assert np.abs(table[:, 1] / table[:, 2] - 1).max() < 0.5
        summary = json.loads((rec_out / "summary.json").read_text())
        assert "median_abs_relative_error" in summary

    def test_zero_true_spectrum_leaves_the_medians_out(self, tmp_path):
        # no band has a finite relative error, so summary.json has no median,
        # and no NaN that a strict JSON reader refuses
        path = TestErrorPaths._reconstruct_config(tmp_path, [1e-12, 2e-12, 1e-12])
        config = json.loads(path.read_text())
        config["true_spectrum"] = {"kind": "flat_cutoff", "a_omega": 0.0, "omega_h_mhz": 2.0}
        path.write_text(json.dumps(config))
        out = tmp_path / "rec"
        assert run_cli("reconstruct", "--config", path, "--out", out) == 0

        def refuse(constant):
            raise ValueError(f"summary.json holds {constant}")

        with open(out / "summary.json") as fh:
            summary = json.load(fh, parse_constant=refuse)
        assert set(summary) == {"residual_norm", "condition_number"}


class TestFigureData:
    def test_gz_map_desk(self, tmp_path):
        out = tmp_path / "figgz"
        assert run_cli("figure-data", "--set", "gz-map", "--scale", "desk",
                       "--out", out) == 0
        manifest = read_manifest(out)
        assert manifest["artifacts"] == ["gz_dpss.csv", "gz_dr.csv"]


    def test_reconstruction_set_computes_no_overlap_predictions(self, tmp_path, monkeypatch):
        # simulate's i_omega_pred column is the only reader of these overlaps
        from qnspect import cli

        calls, overlap = [], cli.overlap_amplitude

        def counted(*args):
            calls.append(args)
            return overlap(*args)

        monkeypatch.setattr(cli, "overlap_amplitude", counted)
        assert run_cli("figure-data", "--set", "reconstruction-detuning", "--realizations", 2,
                       "--out", tmp_path / "fig") == 0
        assert calls == []


class TestArtifactHygiene:
    def test_no_orphan_outputs(self, tmp_path):
        out = tmp_path / "w"
        assert run_cli("waveform", "--family", "dpss", "--lambda-mhz", 0.25,
                       "--t-us", 40, "--n", 800, "--out", out) == 0
        manifest = read_manifest(out)
        on_disk = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert on_disk == manifest["artifacts"]

    def test_env_var_default_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNSPECT_OUTDIR", str(tmp_path / "envout"))
        assert run_cli("dpss", "--n", 32, "--nw", 1.0, "--k", 1) == 0
        assert (tmp_path / "envout" / "manifest.json").exists()

    def test_missing_outdir_is_exit_2(self, monkeypatch):
        monkeypatch.delenv("QNSPECT_OUTDIR", raising=False)
        assert run_cli("dpss", "--n", 32, "--nw", 1.0, "--k", 1) == 2


# simulate config seeds and realization counts that are not integers in range
BAD_CONFIG_COUNTS = {"seed": (3.7, 3.0, True, -1), "realizations": (40.9, 40.0, False, 0, -2)}


class TestErrorPaths:
    def test_missing_config_is_exit_2(self, tmp_path):
        assert run_cli("simulate", "--config", tmp_path / "nope.json",
                       "--out", tmp_path / "x") == 2

    def test_bad_spectrum_kind_is_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "waveform": {"family": "dr", "n": 100, "dt_ns": 50.0},
            "amplitude_noise": {"kind": "lorentzian"},
            "dephasing_noise": {"kind": "dc_delta", "mu_z_mhz": 0.0},
            "lambdas_mhz": [0.2],
        }))
        assert run_cli("simulate", "--config", path, "--out", tmp_path / "y") == 2

    def test_bad_family_is_exit_2(self, tmp_path):
        assert run_cli("waveform", "--family", "dr", "--lambda-mhz", 0.5,
                       "--t-us", 1.0, "--n", 3, "--out", tmp_path / "z") == 2

    def test_nan_amplitude_is_exit_2_without_artifacts(self, tmp_path):
        out = tmp_path / "nan"
        assert run_cli("ff", "--waveform", "dpss", "--amp-mhz", "nan", "--lambda-mhz", 0.25,
                       "--t-us", 40, "--n", 800, "--out", out) == 2
        assert not out.exists() or not any(out.iterdir())

    def test_nan_spectrum_parameter_is_exit_2_without_survival(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({
            "waveform": {"family": "dr", "n": 400, "dt_ns": 50.0, "amp_mhz": 5.0},
            "amplitude_noise": {"kind": "flat_cutoff", "a_omega": float("nan"),
                                "omega_h_mhz": 2.0},
            "dephasing_noise": {"kind": "dc_delta", "mu_z_mhz": 0.0},
            "lambdas_mhz": [0.1],
            "realizations": 3,
            "seed": 0,
        }))
        out = tmp_path / "sim"
        assert run_cli("simulate", "--config", path, "--out", out) == 2
        assert not (out / "survival.csv").exists()

    @staticmethod
    def _reconstruct_config(tmp_path, estimators):
        n, dt_ns = 500, 40.0
        delta_mhz = 1e3 / (n * dt_ns)  # one linewidth per band
        rows = [f"{(i + 1) * delta_mhz!r},{v}" for i, v in enumerate(estimators)]
        table = tmp_path / "survival.csv"
        table.write_text("\n".join(["lambda_mhz,estimator", *rows]) + "\n")
        path = tmp_path / "rec.json"
        path.write_text(json.dumps({
            "measurements_csv": str(table),
            "num_bands": len(estimators),
            "delta_omega_mhz": delta_mhz,
            "waveform": {"family": "dr", "n": n, "dt_ns": dt_ns, "amp_mhz": 5.0},
        }))
        return path

    def test_nan_measurement_is_exit_2_without_artifacts(self, tmp_path):
        path = self._reconstruct_config(tmp_path, [1e-12, "nan", 1e-12])
        out = tmp_path / "rec"
        assert run_cli("reconstruct", "--config", path, "--out", out) == 2
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("table", [None, "lambda_mhz,estimator\n0.05,abc\n", "",
                                       "lambda_mhz,estimator\n0.05,1e-12,7\n"],
                             ids=["missing", "non-numeric", "empty", "long-row"])
    def test_bad_measurements_file_is_exit_2_without_artifacts(self, tmp_path, table):
        path = self._reconstruct_config(tmp_path, [1e-12, 2e-12, 1e-12])
        measurements = tmp_path / "survival.csv"
        if table is None:
            measurements.unlink()
        else:
            measurements.write_text(table)
        out = tmp_path / "rec"
        assert run_cli("reconstruct", "--config", path, "--out", out) == 2
        assert not out.exists() or not any(out.iterdir())

    @staticmethod
    def _bad_number_configs(tmp_path):
        """Config files, by the names BAD_NUMBERS uses: a NaN modulation
        frequency for each family, reconstructions with bad bands or a
        zero-amplitude probe, and a valid sweep with and without ``"shots": 0``."""
        n, dt_ns = 500, 40.0
        delta_mhz = 1e3 / (n * dt_ns)  # one linewidth per band
        table = tmp_path / "table.csv"
        table.write_text(f"lambda_mhz,estimator\n{delta_mhz!r},1e-12\n")
        nan_table = tmp_path / "nan_table.csv"
        nan_table.write_text("lambda_mhz,estimator\nnan,1e-12\n")
        configs = {}
        for family in ("dr", "dpss"):
            waveform = {"family": family, "n": n, "dt_ns": dt_ns, "amp_mhz": 5.0}
            configs[f"sim_{family}"] = {
                "waveform": waveform,
                "amplitude_noise": {"kind": "flat_cutoff", "a_omega": 1.04e-11,
                                    "omega_h_mhz": 2.0},
                "dephasing_noise": {"kind": "dc_delta", "mu_z_mhz": 0.0},
                "lambdas_mhz": [float("nan")], "realizations": 3,
            }
            configs[f"rec_{family}"] = {"measurements_csv": str(nan_table), "num_bands": 1,
                                        "delta_omega_mhz": delta_mhz, "waveform": waveform}
        configs["sim_ok"] = {**configs["sim_dr"], "lambdas_mhz": [0.1]}
        configs["sim_zero_shots"] = {**configs["sim_ok"], "shots": 0}
        configs["sim_scalar_lambdas"] = {**configs["sim_ok"], "lambdas_mhz": 0.1}
        configs["sim_fractional_n"] = {**configs["sim_ok"],
                                       "waveform": {**configs["sim_ok"]["waveform"], "n": 200.9}}
        for key, values in BAD_CONFIG_COUNTS.items():
            for i, value in enumerate(values):
                configs[f"sim_{key}_{i}"] = {**configs["sim_ok"], key: value}
        for name, num_bands, delta in (("bands_zero", 0, delta_mhz),
                                       ("bands_negative", -1, delta_mhz),
                                       ("bands_fractional", 1.5, delta_mhz),
                                       ("delta_nan", 1, float("nan")), ("delta_zero", 1, 0.0)):
            configs[name] = {**configs["rec_dr"], "measurements_csv": str(table),
                             "num_bands": num_bands, "delta_omega_mhz": delta}
        configs["dpss_zero_amp"] = {**configs["rec_dpss"], "measurements_csv": str(table),
                                    "waveform": {**configs["rec_dpss"]["waveform"],
                                                 "amp_mhz": 0.0}}
        paths = {}
        for name, payload in configs.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(payload))
        return paths

    BAD_NUMBERS = [
        pytest.param(["ff", "--waveform", family, "--lambda-mhz", "nan", "--t-us", 40,
                      "--n", 800], id=f"ff-{family}-nan-lambda") for family in ("dr", "dpss")
    ] + [
        pytest.param(["ff", "--waveform", "dr", "--lambda-mhz", 0.25, "--t-us", "nan",
                      "--n", 800], id="ff-nan-duration"),
        pytest.param(["gz", "--waveform", "dr", "--lambda-mhz", 0.2, "--t-us", 20, "--n", 500,
                      "--max-mhz", "nan"], id="gz-nan-max"),
        pytest.param(["gz", "--waveform", "dr", "--lambda-mhz", 0.2, "--t-us", 20, "--n", 500,
                      "--stride", 0], id="gz-zero-stride"),
        pytest.param(["waveform", "--family", "dr", "--lambda-mhz", 0.25, "--t-us", 40,
                      "--n", 0], id="waveform-zero-n"),
    ] + [
        pytest.param(["waveform", "--family", "dpss", "--lambda-mhz", 0.25, "--t-us", 40,
                      "--n", 800, "--nw", nw], id=f"waveform-dpss-{nw}-nw")
        for nw in ("nan", "inf", 400)
    ] + [
        pytest.param(["ff", "--waveform", "dr", "--lambda-mhz", 0.25, "--t-us", 40,
                      "--n", 800, "--points", points], id=f"ff-{points}-points")
        for points in (-1, 0)
    ] + [
        pytest.param(["ff", "--waveform", "dr", "--lambda-mhz", 0.25, "--t-us", 40,
                      "--n", 800, "--max-mhz", top], id=f"ff-{top}-max")
        for top in ("nan", "inf", 0, -1, 1e9, 1e300)
    ] + [
        pytest.param(["gz", "--waveform", "dr", "--lambda-mhz", 0.2, "--t-us", 20, "--n", 500,
                      "--max-mhz", top], id=f"gz-{top}-max")
        for top in ("inf", -1, 1e7, 1e16, 1e300)
    ] + [
        # under one modulation period in T: rejected before any J0 root search
        pytest.param([command, flag, "dr", "--lambda-mhz", lam, "--t-us", 100, "--n", 10],
                     id=f"{command}-dr-{lam}-lambda")
        for command, flag in (("waveform", "--family"), ("ff", "--waveform"),
                              ("gz", "--waveform"))
        for lam in (1e-6, 1e-8, 1e-10)
    ] + [
        # a peak rate past the J0 root cap: rejected before any root is computed
        pytest.param(["ff", "--waveform", "dr", "--lambda-mhz", 0.1, "--t-us", 10, "--n", 200,
                      "--amp-mhz", 1e9], id="ff-dr-huge-amp"),
    ] + [
        pytest.param(["waveform", "--family", family, "--lambda-mhz", 0.25, "--t-us", 40,
                      "--n", 800, "--amp-mhz", amp], id=f"waveform-{family}-{amp}-amp")
        for family in ("dr", "dpss") for amp in (0, -3)
    ] + [
        pytest.param(["figure-data", "--set", name, "--realizations", count],
                     id=f"figure-data-{name}-{count}-realizations")
        for name, count in (("gz-map", -3), ("waveforms-and-ffs", 0))
    ] + [
        pytest.param(["optimize", "--omega0-mhz", "nan", "--n", 400, "--dt-ns", 250],
                     id="optimize-nan-omega0"),
        pytest.param(["optimize", "--omega0-mhz", 0.2, "--n", 400, "--dt-ns", "nan"],
                     id="optimize-nan-dt"),
        pytest.param(["dpss", "--n", 0], id="dpss-zero-n"),
        pytest.param(["prune", "--omega0-mhz", 0.2, "--n", 0], id="prune-zero-n"),
        pytest.param(["optimize", "--omega0-mhz", 0.2, "--n", 0], id="optimize-zero-n"),
    ] + [
        pytest.param(["prune", "--omega0-mhz", 0.2, "--n", 400, "--dt-ns", dt],
                     id=f"prune-{dt}-dt")
        for dt in (0, -5)
    ] + [
        pytest.param([command, "--config", f"{{{prefix}_{family}}}"],
                     id=f"{command}-{family}-nan-lambda")
        for command, prefix in (("simulate", "sim"), ("reconstruct", "rec"))
        for family in ("dr", "dpss")
    ] + [
        pytest.param(["reconstruct", "--config", f"{{{name}}}"], id=f"reconstruct-{name}")
        for name in ("bands_zero", "bands_negative", "bands_fractional", "delta_nan",
                     "delta_zero", "dpss_zero_amp")
    ] + [
        pytest.param(["simulate", "--config", "{sim_zero_shots}"], id="simulate-zero-shots"),
        pytest.param(["simulate", "--config", "{sim_scalar_lambdas}"],
                     id="simulate-scalar-lambdas"),
        pytest.param(["simulate", "--config", "{sim_fractional_n}"], id="simulate-fractional-n"),
        pytest.param(["simulate", "--config", "{sim_ok}", "--seed", -1],
                     id="simulate-negative-seed"),
        pytest.param(["prune", "--omega0-mhz", 0.1, "--n", 200, "--dt-ns", 60, "--k", 1,
                      "--seed", -1], id="prune-negative-seed"),
        pytest.param(["optimize", "--omega0-mhz", 0.2, "--n", 400, "--dt-ns", 250,
                      "--seed", -1], id="optimize-negative-seed"),
        pytest.param(["figure-data", "--set", "gz-map", "--seed", -1],
                     id="figure-data-negative-seed"),
        # a (40001, 20001) double transform: refused before anything is allocated
        pytest.param(["gz", "--waveform", "dpss", "--lambda-mhz", 0.1, "--t-us", 100,
                      "--n", 2000, "--max-mhz", 200], id="gz-over-cell-cap"),
    ] + [
        pytest.param(["simulate", "--config", f"{{sim_{key}_{i}}}"],
                     id=f"simulate-config-{key}-{value}")
        for key, values in BAD_CONFIG_COUNTS.items() for i, value in enumerate(values)
    ]

    # config values float() refuses, and a config that is not a JSON object;
    # the measurements path only exists in a reconstruct config
    WRONG_TYPES = {"dt-string": ("waveform", "dt_ns", "abc"),
                   "dt-null": ("waveform", "dt_ns", None),
                   "amp-list": ("waveform", "amp_mhz", [1]),
                   "a-omega-string": ("noise", "a_omega", "big"),
                   "waveform-list": (None, "waveform", [1]),
                   "top-level-array": None}
    WRONG_MEASUREMENTS = {"measurements-int": (None, "measurements_csv", 5),
                          "measurements-null": (None, "measurements_csv", None)}

    WRONG_TYPE_CASES = ([("simulate", case) for case in sorted(WRONG_TYPES)]
                        + [("reconstruct", case)
                           for case in sorted({**WRONG_TYPES, **WRONG_MEASUREMENTS})])

    @pytest.mark.parametrize("command, case", [pytest.param(*pair, id="-".join(pair))
                                               for pair in WRONG_TYPE_CASES])
    def test_wrong_type_config_is_exit_2_without_artifacts(self, tmp_path, command, case):
        noise = {"kind": "flat_cutoff", "a_omega": 1.04e-11, "omega_h_mhz": 2.0}
        if command == "simulate":
            config = {"waveform": {"family": "dr", "n": 400, "dt_ns": 50.0, "amp_mhz": 5.0},
                      "amplitude_noise": noise,
                      "dephasing_noise": {"kind": "dc_delta", "mu_z_mhz": 0.0},
                      "lambdas_mhz": [0.1], "realizations": 3}
            noise_key = "amplitude_noise"
        else:
            config = json.loads(self._reconstruct_config(tmp_path, [1e-12]).read_text())
            config["true_spectrum"] = noise
            noise_key = "true_spectrum"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli(command, "--config", path, "--out", tmp_path / "valid") == 0
        wrong = {**self.WRONG_TYPES, **self.WRONG_MEASUREMENTS}[case]
        if wrong is None:
            config = [config]
        else:
            section, key, value = wrong
            sections = {None: config, "waveform": config["waveform"], "noise": config[noise_key]}
            sections[section][key] = value
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli(command, "--config", path, "--out", out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("count", [2.9, True, -1, 0])
    def test_bad_lambda_count_is_exit_2_without_artifacts(self, tmp_path, count):
        path = tmp_path / "count.json"
        path.write_text(json.dumps({
            "waveform": {"family": "dr", "n": 500, "dt_ns": 40.0, "amp_mhz": 5.0},
            "amplitude_noise": {"kind": "flat_cutoff", "a_omega": 1.04e-11, "omega_h_mhz": 2.0},
            "dephasing_noise": {"kind": "dc_delta", "mu_z_mhz": 0.0},
            "lambdas_mhz": {"start_mhz": 0.1, "step_mhz": 0.1, "count": count},
            "realizations": 3,
        }))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", path, "--out", out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", BAD_NUMBERS)
    def test_bad_number_is_exit_2_without_artifacts(self, tmp_path, argv):
        paths = self._bad_number_configs(tmp_path)
        out = tmp_path / "out"
        assert run_cli(*[str(a).format(**paths) for a in argv], "--out", out) == 2
        assert not out.exists()

    def test_short_dr_probe_is_rejected_before_root_search(self, tmp_path, monkeypatch):
        from qnspect import cli

        def no_search(*args):
            raise AssertionError("J0 roots searched for a probe with no period")

        monkeypatch.setattr(cli, "root_index_for_peak_rate", no_search)
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({
            "waveform": {"family": "dr", "n": 10, "dt_ns": 1e4},
            "amplitude_noise": {"kind": "flat_cutoff", "a_omega": 1.04e-11, "omega_h_mhz": 2.0},
            "dephasing_noise": {"kind": "dc_delta", "mu_z_mhz": 0.0},
            "lambdas_mhz": [1e-6], "realizations": 3}))
        assert run_cli("simulate", "--config", config, "--out", tmp_path / "sim") == 2
        assert run_cli("waveform", "--family", "dr", "--lambda-mhz", 1e-6, "--t-us", 100,
                       "--n", 10, "--out", tmp_path / "wf") == 2

    def test_rejected_command_keeps_a_directory_it_did_not_make(self, tmp_path):
        out = tmp_path / "kept"
        out.mkdir()
        assert run_cli("dpss", "--n", 0, "--out", out) == 2
        assert out.is_dir()
        (out / "notes.txt").write_text("keep\n")
        assert run_cli("dpss", "--n", 0, "--out", out / "deeper") == 2
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]

    def test_nnls_cap_is_exit_3_without_spectrum(self, tmp_path, monkeypatch):
        def capped(a, b, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(scipy.optimize, "nnls", capped)
        path = self._reconstruct_config(tmp_path, [1e-12, 2e-12, 1e-12])
        out = tmp_path / "rec"
        assert run_cli("reconstruct", "--config", path, "--out", out) == 3
        assert not (out / "spectrum.csv").exists()

    def test_failed_lp_is_exit_3_without_constraints(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            return scipy.optimize.OptimizeResult(status=4, message="numerical difficulties")

        monkeypatch.setattr(scipy.optimize, "linprog", failing)
        out = tmp_path / "prune"
        assert run_cli("prune", "--omega0-mhz", 0.2, "--n", 400, "--dt-ns", 250,
                       "--out", out) == 3
        assert not (out / "constraints.csv").exists()

    def test_unmeetable_amplitude_bound_is_exit_3_without_coefficients(self, tmp_path):
        # Omega_max = 2 MHz cannot hold a DC-null design at omega0/2pi = 1 MHz
        # in T = 20 us: the solver must report it instead of writing a waveform
        out = tmp_path / "opt"
        assert run_cli("optimize", "--omega0-mhz", 1.0, "--omega-max-mhz", 2.0,
                       "--n", 400, "--dt-ns", 50, "--k", 3, "--seed", 1, "--out", out) == 3
        assert not (out / "coefficients.json").exists()

    def test_nonpositive_amplitude_bound_is_exit_2(self, tmp_path):
        for command in ("optimize", "prune"):
            out = tmp_path / command
            assert run_cli(command, "--omega0-mhz", 0.2, "--omega-max-mhz", 0,
                           "--n", 400, "--dt-ns", 250, "--out", out) == 2
            assert not any(out.glob("*.*"))


PROBE_FLAGS = ["--lambda-mhz", 0.2, "--t-us", 20, "--n", 200, "--amp-mhz", 4.5, "--nw", 1.5]
PROBE_CONFIG = {"lambda_mhz": 0.2, "t_us": 20.0, "n": 200, "amp_mhz": 4.5, "nw": 1.5}


@pytest.mark.parametrize("argv, config", [
    (["waveform", "--family", "dpss"], {"family": "dpss"}),
    (["ff", "--waveform", "dr", "--max-mhz", 0.5, "--points", 11],
     {"waveform": "dr", "max_mhz": 0.5, "points": 11}),
    (["gz", "--waveform", "dpss", "--max-mhz", 0.1, "--stride", 2],
     {"waveform": "dpss", "max_mhz": 0.1, "stride": 2}),
], ids=["waveform", "ff", "gz"])
def test_probe_manifest_config(tmp_path, argv, config):
    # the manifest records every probe flag under its own key and value
    assert run_cli(*argv, *PROBE_FLAGS, "--out", tmp_path) == 0
    manifest = read_manifest(tmp_path)
    assert manifest["command"] == argv[0]
    assert manifest["config"] == {**PROBE_CONFIG, **config}
    assert manifest["seed"] is None


def test_flag_defaults_and_aliases():
    # flags shared by a command family keep their names, aliases and defaults
    from qnspect.cli import build_parser

    parser = build_parser()
    probe = ["--lambda-mhz", "0.2", "--T-us", "20"]
    for command, flag, n in (("waveform", "--family", None), ("ff", "--waveform", 10000),
                             ("gz", "--waveform", 2000)):
        args = parser.parse_args([command, flag, "dr", *probe]
                                 + (["--n", "7"] if n is None else []))
        assert (args.t_us, args.amp_mhz, args.nw, args.n, args.out) == (20.0, 5.0, 1.0,
                                                                        n or 7, None)
    for command in ("prune", "optimize"):
        args = parser.parse_args([command, "--omega0-mhz", "0.1"])
        assert (args.n, args.dt_ns, args.omega_max_mhz, args.eps, args.seed, args.k,
                args.nw) == (20000, 5.0, 5.0, 0.1, 0, 3, 1.0)
    args = parser.parse_args(["optimize", "--omega0-mhz", "0.1", "--K", "2", "--NW", "3"])
    assert (args.k, args.nw) == (2, 3.0)
    with pytest.raises(SystemExit):
        parser.parse_args(["prune", "--omega0-mhz", "0.1", "--K", "2"])


def test_optimize_reports_met_amplitude_ratio(tmp_path):
    assert run_cli("optimize", "--omega0-mhz", 0.2, "--n", 400, "--dt-ns", 250,
                   "--out", tmp_path) == 0
    payload = json.loads((tmp_path / "coefficients.json").read_text())
    lines = [ln for ln in (tmp_path / "waveform.csv").read_text().splitlines()
             if not ln.startswith("#")]
    samples = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert "reduced_rows" not in payload
    assert payload["max_amplitude_ratio"] == pytest.approx(np.abs(samples).max() / (5 * MHZ),
                                                           rel=1e-12)
    assert payload["max_amplitude_ratio"] <= 1.0


def _last_line_of_fresh_interpreter(script):
    env = {**os.environ, "PYTHONPATH": str(Path(qnspect.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_commands_leave_scipy_signal_unimported(tmp_path):
    # a fresh interpreter: ff, gz, a dpss waveform and a design solve must not
    # pull scipy.signal (and the scipy.stats it loads) into the process, nor
    # scipy.optimize, which only an LP, an NNLS or a root find needs
    script = f"""
import sys
from qnspect.cli import main
out = {str(tmp_path)!r}
common = ["--lambda-mhz", "0.1", "--t-us", "100", "--n", "400"]
assert main(["ff", "--waveform", "dpss", *common, "--points", "50", "--out", out + "/ff"]) == 0
assert main(["gz", "--waveform", "dpss", *common, "--max-mhz", "0.1", "--out", out + "/gz"]) == 0
assert main(["waveform", "--family", "dpss", *common, "--out", out + "/wf"]) == 0
assert main(["optimize", "--omega0-mhz", "0.2", "--n", "400", "--dt-ns", "250",
             "--out", out + "/opt"]) == 0
print(sorted(name for name in sys.modules
             if name.startswith(("scipy.signal", "scipy.stats", "scipy.optimize"))))
"""
    assert _last_line_of_fresh_interpreter(script) == "[]"


def test_importing_the_cli_leaves_scipy_optimize_and_linalg_unimported():
    # every command starts cold: scipy.optimize and scipy.linalg load in the
    # routines that call them, not when the CLI is imported
    script = """
import sys
import qnspect.cli
print(sorted(name for name in sys.modules if name.startswith(("scipy.optimize", "scipy.linalg"))))
"""
    assert _last_line_of_fresh_interpreter(script) == "[]"
