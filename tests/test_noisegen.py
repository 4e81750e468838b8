import math

import numpy as np
import pytest
from scipy.special import sici

from qnspect import SpectrumModel, free_induction_chi, psd_eval, sample_many, t2_estimate
from qnspect.errors import GridError, ParameterError
from qnspect.noisegen import _seed_words, _StateWords, spectrum_model_from_json

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

    @pytest.mark.parametrize("model", [FLAT, PINK, SpectrumModel.dc_delta(0.1 * MHZ)],
                             ids=["flat", "one_over_f", "dc_delta"])
    def test_rejects_nan_frequency(self, model):
        for omega in ([np.nan], [1 * MHZ, np.nan, 0.0]):
            with pytest.raises(ParameterError):
                psd_eval(model, np.array(omega))


class TestSampleProcess:
    def test_dc_delta_constant(self):
        mu = 0.1 * MHZ
        real = sample_many(SpectrumModel.dc_delta(mu), 256, 1e-8, seed=1, indices=[0])[0]
        assert np.all(real == mu)

    def test_zero_spectrum_zero_samples(self):
        model = SpectrumModel.flat_cutoff(0.0, 1 * MHZ)
        real = sample_many(model, 128, 1e-8, seed=2, indices=[0])[0]
        assert np.all(real == 0.0)

    def test_deterministic_and_batch_consistent(self):
        a = sample_many(FLAT, 512, 1e-8, seed=5, indices=[3])[0]
        b = sample_many(FLAT, 512, 1e-8, seed=5, indices=[3])[0]
        assert np.array_equal(a, b)
        batch = sample_many(FLAT, 512, 1e-8, seed=5, indices=[0, 3, 7])
        assert np.array_equal(batch[1], a)
        c = sample_many(FLAT, 512, 1e-8, seed=5, indices=[4])[0]
        assert not np.array_equal(a, c)

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

    @pytest.mark.parametrize("n", [512, 511])
    @pytest.mark.parametrize("kind", ["flat", "pink"])
    def test_batch_rows_are_single_draws(self, n, kind):
        # one batched inverse transform per call; each row keeps the bits of
        # its index drawn alone, through the Nyquist bin of an even n
        dt = 1e-8
        model = {"flat": SpectrumModel.flat_cutoff(1.04e-11, np.pi / dt * (1 + 1e-13)),
                 "pink": PINK}[kind]
        indices = [9, 0, 4, 4, 31]
        batch = sample_many(model, n, dt, seed=3, indices=indices)
        assert batch.shape == (len(indices), n)
        for row, index in zip(batch, indices):
            assert np.array_equal(row, sample_many(model, n, dt, seed=3, indices=[index])[0])
        assert sample_many(model, n, dt, seed=3, indices=[]).shape == (0, n)

    @pytest.mark.parametrize("seed, indices", [(-1, [0]), (1.5, [0]), (True, [0]),
                                               ("3", [0]), (3, [-1]), (3, [0.5])])
    def test_seed_and_indices_must_be_non_negative_integers(self, seed, indices):
        with pytest.raises(ParameterError):
            sample_many(FLAT, 64, 1e-8, seed=seed, indices=indices)

    @pytest.mark.parametrize("n", [100.0, True, 0])
    def test_length_must_be_a_positive_integer(self, n):
        with pytest.raises(ParameterError):
            sample_many(FLAT, n, 1e-8, seed=0, indices=[0])

    def test_numpy_integer_length_is_accepted(self):
        assert np.array_equal(sample_many(FLAT, np.int64(100), 1e-8, seed=0, indices=[0]),
                              sample_many(FLAT, 100, 1e-8, seed=0, indices=[0]))

    def test_nyquist_guard(self):
        with pytest.raises(ParameterError):
            sample_many(FLAT, 64, 1e-6, seed=0, indices=[0])  # Nyquist 0.5 MHz < cutoff

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1e-8])
    def test_bad_step_rejected(self, dt):
        with pytest.raises(ParameterError):
            sample_many(FLAT, 64, dt, seed=0, indices=[0])

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


class TestSeedWords:
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3]
    INDICES = [0, 1, 2**32 - 1, 2**32, 2**40]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_match_seed_sequence(self, seed):
        # indices from 2^32 up take numpy's own SeedSequence; the others the
        # vectorized hash, which must give the same words for every seed size
        got = _seed_words(seed, self.INDICES)
        want = [np.random.SeedSequence([seed, index]).generate_state(4, np.uint64)
                for index in self.INDICES]
        assert got.dtype == np.uint64
        assert np.array_equal(got, np.array(want))
        assert np.array_equal(_seed_words(seed, self.INDICES[:3]), np.array(want[:3]))
        assert _seed_words(seed, []).shape == (0, 4)

    def test_seed_beyond_the_pool(self):
        # six entropy words (a five-word seed) run the hash past its 4-word pool
        seed = 2**130 + 7
        want = [np.random.SeedSequence([seed, index]).generate_state(4, np.uint64)
                for index in (0, 9)]
        assert np.array_equal(_seed_words(seed, [0, 9]), np.array(want))

    @pytest.mark.parametrize("seed, index", [(0, 0), (5, 2**32 - 1), (2**64 + 3, 2**40)])
    def test_words_start_the_default_rng_stream(self, seed, index):
        words = _seed_words(seed, [index])[0]
        row = np.random.Generator(np.random.PCG64(_StateWords(words))).standard_normal(64)
        assert np.array_equal(row, np.random.default_rng([seed, index]).standard_normal(64))


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

    @pytest.mark.parametrize("t", [1e-7, 1e-6, 4e-6, 1e-4, 1e-2])
    def test_flat_chi_matches_closed_form(self, t):
        # (1/pi) int_0^wh a 4 sin^2(wt/2)/w^2 dw = (2a/pi)[t Si(wh t) - (1 - cos wh t)/wh]
        a, wh = FLAT.a_omega, FLAT.omega_h
        want = 2 * a / np.pi * (t * sici(wh * t)[0] - (1 - np.cos(wh * t)) / wh)
        assert abs(free_induction_chi(FLAT, t) - want) <= 1e-11 * want

    def test_over_fine_chi_is_refused(self):
        # panels no wider than 2*pi/t: t = 1 s would need 1.6e7 nodes
        with pytest.raises(GridError):
            free_induction_chi(FLAT, 1.0)

    def test_dc_delta_rejected(self):
        with pytest.raises(TypeError):
            t2_estimate(SpectrumModel.dc_delta(1.0), 1e-3)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ParameterError):
            free_induction_chi(PINK, t)
        with pytest.raises(ParameterError):
            t2_estimate(PINK, t)

    @pytest.mark.parametrize("t", [0.0, -1e-3])
    def test_non_positive_horizon_rejected(self, t):
        # chi vanishes at t <= 0, but no coherence time exceeds an empty horizon
        assert free_induction_chi(PINK, t) == 0.0
        with pytest.raises(ParameterError):
            t2_estimate(PINK, t)


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
