import json
from pathlib import Path

import numpy as np
import pytest

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


class TestFigureData:
    def test_gz_map_desk(self, tmp_path):
        out = tmp_path / "figgz"
        assert run_cli("figure-data", "--set", "gz-map", "--scale", "desk",
                       "--out", out) == 0
        manifest = read_manifest(out)
        assert manifest["artifacts"] == ["gz_dpss.csv", "gz_dr.csv"]


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
