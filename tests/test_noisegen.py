import math

import numpy as np
import pytest

from qnspect import SpectrumModel, free_induction_chi, psd_eval, sample_many, sample_process, t2_estimate
from qnspect.errors import ParameterError
from qnspect.noisegen import spectrum_model_from_json

MHZ = 2 * np.pi * 1e6

FLAT = SpectrumModel.flat_cutoff(1.04e-11, 2 * MHZ)
PINK = SpectrumModel.one_over_f(c=299.1, a_z=1e8, omega_l=0.01 * MHZ, omega_h=2 * MHZ)


class TestPsdEval:
    def test_flat_below_cutoff(self):
        assert psd_eval(FLAT, np.array([1 * MHZ]))[0] == 1.04e-11
        assert psd_eval(FLAT, np.array([2.5 * MHZ]))[0] == 0.0

    def test_one_over_f_continuity_at_low_cutoff(self):
        lo = psd_eval(PINK, np.array([PINK.omega_l]))[0]
        assert abs(lo - PINK.c * PINK.a_z / PINK.omega_l) < 1e-20
        just_above = psd_eval(PINK, np.array([PINK.omega_l * (1 + 1e-9)]))[0]
        assert abs(just_above / lo - 1) < 1e-6

    def test_one_over_f_shape(self):
        w = np.array([0.5 * MHZ])
        assert abs(psd_eval(PINK, w)[0] - PINK.c * PINK.a_z / w[0]) < 1e-20

    def test_dc_delta_has_no_stochastic_power(self):
        model = SpectrumModel.dc_delta(0.1 * MHZ)
        assert np.all(psd_eval(model, np.linspace(0, 2 * MHZ, 7)) == 0.0)

    def test_rejects_negative_frequency(self):
        with pytest.raises(ParameterError):
            psd_eval(FLAT, np.array([-1.0]))


class TestSampleProcess:
    def test_dc_delta_constant(self):
        mu = 0.1 * MHZ
        real = sample_process(SpectrumModel.dc_delta(mu), 256, 1e-8, seed=1)
        assert np.all(real.samples == mu)

    def test_zero_spectrum_zero_samples(self):
        model = SpectrumModel.flat_cutoff(0.0, 1 * MHZ)
        real = sample_process(model, 128, 1e-8, seed=2)
        assert np.all(real.samples == 0.0)

    def test_deterministic_and_batch_consistent(self):
        a = sample_process(FLAT, 512, 1e-8, seed=5, index=3)
        b = sample_process(FLAT, 512, 1e-8, seed=5, index=3)
        assert np.array_equal(a.samples, b.samples)
        batch = sample_many(FLAT, 512, 1e-8, seed=5, indices=[0, 3, 7])
        assert np.array_equal(batch[1], a.samples)
        c = sample_process(FLAT, 512, 1e-8, seed=5, index=4)
        assert not np.array_equal(a.samples, c.samples)

    @pytest.mark.parametrize("n", [512, 511])
    def test_matches_dense_harmonic_sum(self, n):
        # flat spectrum through the Nyquist bin (present for even n), against
        # sum_j a_j (A_j cos w_j t + B_j sin w_j t) with the same draws
        dt, a_omega = 1e-8, 1.04e-11
        model = SpectrumModel.flat_cutoff(a_omega, np.pi / dt * (1 + 1e-13))
        got = sample_many(model, n, dt, seed=6, indices=[0, 5])
        j = np.arange(1, n // 2 + 1)
        domega = 2 * np.pi / (n * dt)
        amps = np.sqrt(2 * a_omega * domega / (2 * np.pi))
        phase = 2 * np.pi * ((j[:, None] * np.arange(n)[None, :]) % n) / n
        for row, index in zip(got, [0, 5]):
            rng = np.random.default_rng([6, index])
            coeff_a = rng.standard_normal(j.size) * amps
            coeff_b = rng.standard_normal(j.size) * amps
            want = coeff_a @ np.cos(phase) + coeff_b @ np.sin(phase)
            assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max()

    def test_nyquist_guard(self):
        with pytest.raises(ParameterError):
            sample_process(FLAT, 64, 1e-6, seed=0)  # Nyquist 0.5 MHz < cutoff

    def test_periodogram_matches_flat_level(self):
        # averaged periodogram oracle: <|DFT_j|^2> = N S(w_j)/dt for the
        # harmonic synthesis, so S(w_j) = dt <|DFT_j|^2> / N
        n, dt = 2048, 1e-8
        reals = sample_many(FLAT, n, dt, seed=9, indices=range(500))
        spec = np.abs(np.fft.rfft(reals, axis=1)) ** 2
        est = dt * spec.mean(axis=0) / n
        freqs = np.fft.rfftfreq(n, dt) * 2 * np.pi
        band = (freqs > 0.1 * MHZ) & (freqs < 1.8 * MHZ)
        assert abs(np.median(est[band]) / 1.04e-11 - 1) < 0.10

    def test_lag_zero_autocovariance(self):
        # <beta^2> = (1/pi) int S = A * omega_h / pi for the flat model
        n, dt = 1024, 1e-8
        reals = sample_many(FLAT, n, dt, seed=13, indices=range(1500))
        var = reals.var()
        expect = 1.04e-11 * FLAT.omega_h / np.pi
        assert abs(var / expect - 1) < 0.05

    def test_stationary_mean(self):
        model = SpectrumModel.one_over_f(c=3.18, a_z=1e8, omega_l=0.01 * MHZ,
                                         omega_h=2 * MHZ, mean=0.27 * MHZ)
        reals = sample_many(model, 512, 1e-8, seed=21, indices=range(800))
        sd = reals.std(axis=0) / np.sqrt(800)
        dev = np.abs(reals.mean(axis=0) - 0.27 * MHZ)
        assert np.all(dev < 4 * sd + 1e-12)


class TestT2:
    def test_zero_spectrum_sentinel(self):
        model = SpectrumModel.flat_cutoff(0.0, 1 * MHZ)
        assert t2_estimate(model, 1e-3) == math.inf

    def test_strong_pink_noise_scale(self):
        # C = 299.1 is quoted alongside T2 = 4 us; the decay convention is
        # loose, so only the scale is pinned
        t2 = t2_estimate(PINK, 1e-3)
        assert 4e-6 / 1.5 < t2 < 4e-6 * 1.5

    def test_weak_pink_noise_scale(self):
        weak = SpectrumModel.one_over_f(c=3.18, a_z=1e8, omega_l=0.01 * MHZ,
                                        omega_h=2 * MHZ)
        t2 = t2_estimate(weak, 1e-2)
        assert 100e-6 / 1.5 < t2 < 100e-6 * 1.5

    def test_monotone_in_strength(self):
        stronger = SpectrumModel.one_over_f(c=4 * 299.1, a_z=1e8,
                                            omega_l=0.01 * MHZ, omega_h=2 * MHZ)
        assert t2_estimate(stronger, 1e-3) < t2_estimate(PINK, 1e-3)

    def test_chi_increasing(self):
        assert free_induction_chi(PINK, 2e-6) < free_induction_chi(PINK, 8e-6)

    def test_dc_delta_rejected(self):
        with pytest.raises(TypeError):
            t2_estimate(SpectrumModel.dc_delta(1.0), 1e-3)


def test_json_schema():
    flat = spectrum_model_from_json({"kind": "flat_cutoff", "a_omega": 1.04e-11,
                                     "omega_h_mhz": 2.0})
    assert flat.a_omega == 1.04e-11 and abs(flat.omega_h - 2 * MHZ) < 1e-3

    pink = spectrum_model_from_json({"kind": "one_over_f", "c": 299.1, "a_z": 1e8,
                                     "omega_l_mhz": 0.01, "omega_h_mhz": 2.0})
    assert pink.c == 299.1 and abs(pink.omega_l - 0.01 * MHZ) < 1e-6

    delta = spectrum_model_from_json({"kind": "dc_delta", "mu_z_mhz": 0.19})
    assert abs(delta.mean - 0.19 * MHZ) < 1e-6

    with pytest.raises(ParameterError):
        spectrum_model_from_json({"kind": "lorentzian"})


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["a_omega", "c", "a_z", "omega_l", "omega_h", "mean"])
def test_rejects_non_finite_parameters(field, value):
    valid = {"c": 299.1, "a_z": 1e8, "omega_l": 0.01 * MHZ, "omega_h": 2 * MHZ}
    with pytest.raises(ParameterError):
        SpectrumModel(kind="one_over_f", **{**valid, field: value})


def test_factories_reject_nan():
    with pytest.raises(ParameterError):
        SpectrumModel.flat_cutoff(math.nan, 2 * MHZ)
    with pytest.raises(ParameterError):
        SpectrumModel.dc_delta(math.nan)
