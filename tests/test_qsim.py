import numpy as np
import pytest
from scipy.integrate import quad

from qnspect import (
    PiecewiseConstantWaveform,
    SpectrumModel,
    amplitude_ff,
    bias_breakdown,
    dephasing_ff,
    dephasing_robust,
    error_vector_first_order,
    higher_order_ff,
    magnus_second_order_a1,
    modulated_dpss_waveform,
    overlap_amplitude,
    overlap_dephasing,
    propagate,
    psd_eval,
    sample_many,
    survival_probabilities,
    tomographic_estimator,
)
from qnspect import qsim
from qnspect.errors import GridError, ParameterError
from qnspect.qsim import _BLOCK_SAMPLES, SurvivalTriple, _Workspace

MHZ = 2 * np.pi * 1e6
FLAT_AMP = SpectrumModel.flat_cutoff(1.04e-11, 2 * MHZ)
NO_NOISE = SpectrumModel.dc_delta(0.0)


class TestPropagate:
    def test_identity_gate_without_noise(self):
        wf = dephasing_robust(20e-6, 4, 1, 1000)
        u = propagate(wf, np.zeros(1000), np.zeros(1000))
        for axis in (1, 2, 3):
            assert abs(u.survival(axis) - 1.0) < 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(2)
        wf = PiecewiseConstantWaveform(rng.normal(0, 1e6, 300), 1e-8)
        amp = rng.normal(0, 0.01, 300)
        deph = rng.normal(0, 1e5, 300)
        u = propagate(wf, amp, deph).quaternion
        assert abs(np.sum(u**2) - 1.0) < 1e-10

    def test_pure_detuning_rotation(self):
        n = 200
        wf = PiecewiseConstantWaveform(np.zeros(n), 1e-8)
        delta = 0.05 * MHZ
        u = propagate(wf, np.zeros(n), np.full(n, delta))
        t = wf.total_time
        assert abs(u.survival(3) - 1.0) < 1e-12
        assert abs(u.survival(1) - np.cos(delta * t) ** 2) < 1e-10

    def test_length_mismatch(self):
        wf = PiecewiseConstantWaveform(np.zeros(10), 1e-8)
        with pytest.raises(ParameterError):
            propagate(wf, np.zeros(9), np.zeros(10))
        with pytest.raises(ParameterError):
            propagate(wf, np.zeros((2, 10)), np.zeros((2, 10)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_noise_rejected(self, bad):
        wf = PiecewiseConstantWaveform(np.full(10, 1e6), 1e-8)
        noisy = np.zeros(10)
        noisy[4] = bad
        batch = np.zeros((3, 10))
        batch[1, 4] = bad
        calls = [
            lambda: propagate(wf, noisy, np.zeros(10)),
            lambda: propagate(wf, np.zeros(10), noisy),
            lambda: error_vector_first_order(wf, noisy, np.zeros(10)),
            lambda: error_vector_first_order(wf, np.zeros((3, 10)), batch),
            lambda: magnus_second_order_a1(wf, noisy),
            lambda: magnus_second_order_a1(wf, batch),
        ]
        for call in calls:
            with pytest.raises(ParameterError):
                call()


def sequential_product(samples, dt, amp, deph):
    """Quaternion (u0, ux, uy, uz) of the step unitaries multiplied one at a time.

    Each step is cos(theta) I - i sin(theta) n.sigma as a 2x2 matrix, applied
    on the left of the running product; U = u0 I - i (u . sigma) is read off
    at the end.
    """
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    u = np.eye(2, dtype=complex)
    for omega, b_omega, b_z in zip(samples, amp, deph):
        hx, hz = 0.5 * omega * (1.0 + b_omega), b_z
        norm = np.hypot(hx, hz)
        step = np.eye(2, dtype=complex)
        if norm > 0.0:
            step = (np.cos(dt * norm) * step
                    - 1j * np.sin(dt * norm) * (hx * sx + hz * sz) / norm)
        u = step @ u
    return np.array([u[0, 0].real, -u[0, 1].imag, -u[0, 1].real, -u[0, 0].imag])


def block_quaternions(samples, dt, amp, deph):
    """(R, 4) quaternions of an (R, N) noise batch, propagated as one workspace block."""
    r, n = amp.shape
    work = _Workspace(r, n)
    block_amp, block_deph = work.noise(r)
    block_amp[...], block_deph[...] = amp, deph
    return work.propagate(samples, dt, r)


class TestTreeProduct:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 2000, 2001])
    def test_matches_sequential_product(self, n):
        rng = np.random.default_rng(n)
        dt = 1e-8
        samples = rng.normal(0.0, 2e7, n)
        amp = rng.normal(0.0, 0.3, (3, n))
        deph = rng.normal(0.0, 2e7, (3, n))
        u = block_quaternions(samples, dt, amp, deph)
        for row in range(3):
            ref = sequential_product(samples, dt, amp[row], deph[row])
            assert np.abs(u[row] - ref).max() < 1e-13
        assert np.abs(np.sum(u**2, axis=1) - 1.0).max() < 1e-13

    @pytest.mark.parametrize("n", [2, 7, 257, 2000])
    def test_matches_sequential_product_through_large_angles(self, n):
        # step angles theta = dt * norm run up to about 10 rad, across pi and
        # 3 pi, where tan(theta/2) passes through its poles; some steps sit
        # within rounding of an odd multiple of pi
        rng = np.random.default_rng(100 + n)
        dt = 1e-8
        samples = rng.uniform(-1e9, 1e9, n)
        amp = rng.normal(0.0, 0.3, (3, n))
        deph = rng.uniform(-5e8, 5e8, (3, n))
        samples[: n // 2] = 0.0
        deph[:, : n // 2] = np.resize([1.0, -3.0, 3.0, -1.0], (3, n // 2)) * np.pi / dt
        theta = dt * np.hypot(0.5 * samples * (1.0 + amp), deph)
        assert np.any(np.abs(theta - np.pi) < 1e-12)
        assert np.any(np.abs(theta - 3 * np.pi) < 1e-12)
        u = block_quaternions(samples, dt, amp, deph)
        for row in range(3):
            ref = sequential_product(samples, dt, amp[row], deph[row])
            assert np.abs(u[row] - ref).max() < 1e-13
        assert np.abs(np.sum(u**2, axis=1) - 1.0).max() < 1e-13

    def test_zero_drive_and_zero_noise_segments(self):
        # steps with neither drive nor noise take the sn = dt branch and must
        # act as the identity, wherever they fall in the tree
        rng = np.random.default_rng(4)
        n, dt = 37, 1e-8
        samples = rng.normal(0.0, 2e7, n)
        samples[[0, 5, 6, 7, 20, n - 1]] = 0.0
        deph = rng.normal(0.0, 2e7, (2, n))
        deph[:, samples == 0.0] = 0.0
        deph[1] = 0.0
        amp = rng.normal(0.0, 0.3, (2, n))
        u = block_quaternions(samples, dt, amp, deph)
        for row in range(2):
            ref = sequential_product(samples, dt, amp[row], deph[row])
            assert np.abs(u[row] - ref).max() < 1e-13
        # no drive and no noise anywhere: exactly the identity
        still = block_quaternions(np.zeros(n), dt, amp, np.zeros((2, n)))
        assert np.array_equal(still, np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)))

    def test_row_bits_do_not_depend_on_the_batch(self):
        wf = dephasing_robust(20e-6, 4, 2, 2000)
        deph = SpectrumModel.one_over_f(29.3, 1e8, 0.01 * MHZ, 2 * MHZ)
        rows = _BLOCK_SAMPLES // wf.n
        r = 2 * rows + 5
        assert rows > 1 and r % rows != 0
        amp = sample_many(FLAT_AMP, wf.n, wf.dt, seed=5, indices=range(r))
        bz = sample_many(deph, wf.n, wf.dt, seed=6, indices=range(r))
        batch = block_quaternions(wf.samples, wf.dt, amp, bz)
        for row in (0, rows - 1, rows, 2 * rows, r - 1):
            assert np.array_equal(propagate(wf, amp[row], bz[row]).quaternion, batch[row])
        assert np.abs(np.sum(batch**2, axis=1) - 1.0).max() < 1e-13


class TestSurvival:
    def test_noiseless_is_unity(self):
        wf = dephasing_robust(10e-6, 2, 1, 500)
        triple = survival_probabilities(wf, NO_NOISE, NO_NOISE, 4, seed=0)
        # unity up to roundoff accumulated over N quaternion products
        for p in (triple.p1, triple.p2, triple.p3):
            assert abs(p - 1.0) < 1e-12

    def test_estimator_algebra(self):
        triple = SurvivalTriple(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1)
        assert tomographic_estimator(triple).value == 0.0
        triple = SurvivalTriple(1.0, 1.0 - 2 * 0.037, 1.0, 0.0, 0.0, 0.0, 0.0, 1)
        assert abs(tomographic_estimator(triple).value - 0.037) < 1e-15

    def test_dephasing_only_matches_overlap(self):
        # 1 - p1 estimates I_Z for an identity-gate control
        wf = dephasing_robust(20e-6, 4, 2, 2000)
        deph = SpectrumModel.one_over_f(3.18, 1e8, 0.01 * MHZ, 2 * MHZ)
        triple = survival_probabilities(wf, NO_NOISE, deph, 1200, seed=5)
        i_z = overlap_dephasing(wf, deph)
        assert abs((1.0 - triple.p1) - i_z) < 3 * triple.err1 + 0.05 * i_z

    def test_variance_scales_with_realizations(self):
        wf = dephasing_robust(20e-6, 4, 2, 1000)
        small = survival_probabilities(wf, FLAT_AMP, NO_NOISE, 200, seed=1)
        large = survival_probabilities(wf, FLAT_AMP, NO_NOISE, 800, seed=1)
        assert large.err1 < small.err1
        assert abs(large.err1 * np.sqrt(800 / 200) / small.err1 - 1) < 0.5

    def test_shot_layer(self):
        wf = dephasing_robust(20e-6, 4, 2, 1000)
        shot = survival_probabilities(wf, FLAT_AMP, NO_NOISE, 50, seed=2, shots=100)
        exact = survival_probabilities(wf, FLAT_AMP, NO_NOISE, 50, seed=2)
        assert shot.p1 != exact.p1  # binomial layer engaged
        assert abs(shot.p1 - exact.p1) < 0.05

    @pytest.mark.parametrize("shots", [None, 100])
    def test_block_size_does_not_change_the_bits(self, monkeypatch, shots):
        # survival_probabilities draws and propagates its realizations in
        # blocks; blocks of three rows must give the default's bits
        wf = dephasing_robust(20e-6, 4, 2, 500)
        deph = SpectrumModel.one_over_f(29.3, 1e8, 0.01 * MHZ, 2 * MHZ)
        r = 2 * (_BLOCK_SAMPLES // wf.n) + 7
        default = survival_probabilities(wf, FLAT_AMP, deph, r, seed=4, shots=shots)
        monkeypatch.setattr(qsim, "_BLOCK_SAMPLES", 3 * wf.n)
        assert survival_probabilities(wf, FLAT_AMP, deph, r, seed=4, shots=shots) == default

    @pytest.mark.parametrize("deph, r, seed", [
        pytest.param(SpectrumModel.one_over_f(29.3, 1e8, 0.01 * MHZ, 2 * MHZ), r, 4,
                     id=f"one_over_f-{r}") for r in (7, 65, 137)
    ] + [
        pytest.param(SpectrumModel.dc_delta(0.05 * MHZ), 137, 4, id="dc_delta"),
        pytest.param(SpectrumModel.one_over_f(29.3, 1e8, 0.01 * MHZ, 2 * MHZ), 70, 2**32 + 5,
                     id="seed-2^32+5"),
    ])
    def test_matches_a_loop_over_single_realizations(self, deph, r, seed):
        # 65 rows per block at N = 500: r = 7 fills part of one block, 65
        # exactly one, 137 two and a short third; each realization drawn
        # alone and propagated alone must give the same bits
        wf = dephasing_robust(20e-6, 4, 2, 500)
        assert _BLOCK_SAMPLES // wf.n == 65
        u = np.array([propagate(wf, sample_many(FLAT_AMP, wf.n, wf.dt, 2 * seed, [index])[0],
                                sample_many(deph, wf.n, wf.dt, 2 * seed + 1, [index])[0]
                                ).quaternion for index in range(r)])
        probs = np.stack([u[:, 0] ** 2 + u[:, k] ** 2 for k in (1, 2, 3)], axis=1)
        mean = probs.mean(axis=0)
        err = probs.std(axis=0, ddof=1) / np.sqrt(r)
        estimator = 0.5 * (1.0 + probs[:, 0] - probs[:, 1] - probs[:, 2])
        estimator_err = estimator.std(ddof=1) / np.sqrt(r)
        assert survival_probabilities(wf, FLAT_AMP, deph, r, seed) == SurvivalTriple(
            *(float(v) for v in (*mean, *err, estimator_err)), n_realizations=r)

    @pytest.mark.parametrize("count", [0, -1, 2.5, 3.0, True, "4"])
    def test_bad_realization_count_raises(self, count):
        wf = dephasing_robust(10e-6, 2, 1, 100)
        with pytest.raises(ParameterError):
            survival_probabilities(wf, FLAT_AMP, NO_NOISE, count, seed=0)

    @pytest.mark.parametrize("keyword", [{"shots": 0}, {"shots": -1}, {"shots": 2.5},
                                         {"shots": True}, {"seed": -1}, {"seed": 1.5},
                                         {"seed": True}])
    def test_bad_shots_or_seed_raise(self, keyword):
        wf = dephasing_robust(10e-6, 2, 1, 100)
        arguments = {"seed": 0, **keyword}
        with pytest.raises(ParameterError):
            survival_probabilities(wf, FLAT_AMP, NO_NOISE, 4, **arguments)

    @pytest.mark.parametrize("family, detuning_mhz", [("dr", 0.0), ("dpss", 0.10)])
    def test_estimator_error_matches_its_spread_over_seeds(self, family, detuning_mhz):
        # p1, p2 and p3 share their realizations, so the estimator's error is
        # the spread of its per-realization values, not the three errors in
        # quadrature (0.7x the spread for dr, 2.7x for detuned dpss)
        n, dt, lam, amp = 200, 100e-9, 1 * MHZ, 5 * MHZ
        wf = (dephasing_robust(n * dt, 20, 2, n) if family == "dr"
              else modulated_dpss_waveform(n, 1.0 / n, amp, lam, dt))
        deph = SpectrumModel.dc_delta(detuning_mhz * MHZ)
        ests = [tomographic_estimator(survival_probabilities(wf, FLAT_AMP, deph, 40, seed))
                for seed in range(300)]
        values = np.array([e.value for e in ests])
        reported = np.sqrt(np.mean([e.stderr ** 2 for e in ests]))
        # 300 seeds measure the spread to about 4 %
        assert abs(reported / values.std(ddof=1) - 1.0) < 0.2

    def test_estimator_matches_amplitude_overlap(self):
        wf = dephasing_robust(20e-6, 20, 2, 2000)
        triple = survival_probabilities(wf, FLAT_AMP, NO_NOISE, 2000, seed=7)
        est = tomographic_estimator(triple)
        i_om = overlap_amplitude(wf, FLAT_AMP)
        assert abs(est.value - i_om) < 3 * est.stderr + i_om**2


class TestErrorVector:
    def test_zero_noise(self):
        wf = dephasing_robust(10e-6, 2, 1, 400)
        a = error_vector_first_order(wf, np.zeros(400), np.zeros(400))
        assert np.all(a == 0.0)

    def test_static_detuning_free_evolution(self):
        n = 300
        wf = PiecewiseConstantWaveform(np.zeros(n), 1e-8)
        delta = 0.1 * MHZ
        a = error_vector_first_order(wf, np.zeros(n), np.full(n, delta))
        assert abs(a[2] - delta * wf.total_time) < 1e-9
        assert a[1] == 0.0

    def test_first_component_variance_matches_overlap(self):
        wf = dephasing_robust(20e-6, 10, 2, 2000)
        reals = sample_many(FLAT_AMP, 2000, wf.dt, seed=3, indices=range(2000))
        a1 = error_vector_first_order(wf, reals, np.zeros(2000))[:, 0]
        i_om = overlap_amplitude(wf, FLAT_AMP)
        assert abs(a1.var() / i_om - 1) < 0.05

    def test_segment_exact_quadrature(self):
        # compare against a 100x oversampled Riemann evaluation
        rng = np.random.default_rng(8)
        n = 40
        wf = PiecewiseConstantWaveform(rng.normal(0, 5e5, n), 1e-7)
        bz = rng.normal(0, 1e5, n)
        a = error_vector_first_order(wf, np.zeros(n), bz)
        over = 100
        fine_omega = np.repeat(wf.samples, over)
        theta_fine = np.concatenate(([0.0], np.cumsum(fine_omega) * wf.dt / over))[:-1]
        bz_fine = np.repeat(bz, over)
        dt_f = wf.dt / over
        # midpoint evaluation of Theta within each fine slice
        theta_mid = theta_fine + fine_omega * dt_f / 2
        a2_ref = np.sum(np.sin(theta_mid) * bz_fine) * dt_f
        a3_ref = np.sum(np.cos(theta_mid) * bz_fine) * dt_f
        assert abs(a[1] - a2_ref) < 1e-6 * max(abs(a2_ref), 1e-12)
        assert abs(a[2] - a3_ref) < 1e-6 * max(abs(a3_ref), 1e-12)

    def test_small_rate_segments(self):
        # a large first sample sets Theta ~ 1 rad; the slow segments after it
        # must not lose digits to cos(Th0) - cos(Th1) cancellation
        n, dt = 50, 1e-8
        for rate_dt in (3e-12, 3e-11, 3e-10):
            samples = np.full(n, rate_dt / dt)
            samples[0] = 1.0 / dt
            wf = PiecewiseConstantWaveform(samples, dt)
            bz = np.linspace(1e5, 2e5, n)
            a = error_vector_first_order(wf, np.zeros(n), bz)
            th0 = np.concatenate(([0.0], np.cumsum(samples * dt)[:-1]))
            sin_half = np.sin(samples * dt) / samples
            cos_half = 2.0 * np.sin(samples * dt / 2.0) ** 2 / samples
            a2_ref = np.sum((np.sin(th0) * sin_half + np.cos(th0) * cos_half) * bz)
            a3_ref = np.sum((np.cos(th0) * sin_half - np.sin(th0) * cos_half) * bz)
            np.testing.assert_allclose(a[1], a2_ref, rtol=1e-12, atol=0)
            np.testing.assert_allclose(a[2], a3_ref, rtol=1e-12, atol=0)


class TestMagnusSecondOrder:
    def test_zero_for_free_evolution(self):
        n = 100
        wf = PiecewiseConstantWaveform(np.zeros(n), 1e-8)
        noise = np.random.default_rng(0).normal(0, 1e5, n)
        assert magnus_second_order_a1(wf, noise) == 0.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(4):
            n = int(rng.integers(16, 65))
            wf = PiecewiseConstantWaveform(rng.normal(0, 4e5, n), 1e-8)
            bz = rng.normal(0, 2e5, n)
            theta = np.concatenate(([0.0], np.cumsum(wf.samples) * wf.dt))[:-1]
            brute = sum(
                np.sin(theta[i] - theta[j]) * bz[i] * bz[j]
                for i in range(n) for j in range(i + 1)
            ) * wf.dt**2
            got = magnus_second_order_a1(wf, bz)
            assert abs(got - brute) < 1e-12 * max(abs(brute), 1e-12)

    def test_detuning_square_matches_gz(self):
        # <a1^(2)^2> for static detuning mu equals mu^4/3 * G_Z(0, 0)
        wf = dephasing_robust(20e-6, 4, 1, 600)
        mu = 0.07 * MHZ
        a12 = magnus_second_order_a1(wf, np.full(600, mu))
        gz00 = higher_order_ff(wf, [0.0], [0.0]).values[0, 0].real
        assert abs(a12**2 - mu**4 * gz00 / 3.0) < 1e-9 * max(a12**2, 1e-30)


class TestBatchedDiagnostics:
    def test_batch_rows_match_single_calls(self):
        wf = dephasing_robust(20e-6, 4, 2, 500)
        deph = SpectrumModel.one_over_f(3.18, 1e8, 0.01 * MHZ, 2 * MHZ)
        amp = sample_many(FLAT_AMP, wf.n, wf.dt, seed=5, indices=range(40))
        bz = sample_many(deph, wf.n, wf.dt, seed=6, indices=range(40))
        vectors = error_vector_first_order(wf, amp, bz)
        a12 = magnus_second_order_a1(wf, bz)
        assert vectors.shape == (40, 3) and a12.shape == (40,)
        for r in range(40):
            assert np.array_equal(vectors[r], error_vector_first_order(wf, amp[r], bz[r]))
            assert a12[r] == magnus_second_order_a1(wf, bz[r])
        with pytest.raises(ParameterError):
            magnus_second_order_a1(wf, bz[:, :-1])
        with pytest.raises(ParameterError):
            error_vector_first_order(wf, amp, bz.T)


class TestBiasBreakdown:
    def test_no_dephasing_reduces_to_amplitude_terms(self):
        wf = dephasing_robust(20e-6, 10, 2, 1000)
        parts = bias_breakdown(wf, FLAT_AMP, NO_NOISE)
        assert parts.i_z == 0.0 and parts.a12_sq == 0.0
        assert abs(parts.predicted - (parts.i_omega - parts.i_omega**2)) < 1e-15

    def test_dephasing_robust_cancels_detuning_term(self):
        wf = dephasing_robust(20e-6, 20, 2, 2000)
        deph = SpectrumModel.dc_delta(0.19 * MHZ)
        parts = bias_breakdown(wf, FLAT_AMP, deph)
        # the DC null suppresses the multiplicative detuning bias to the
        # discretization floor, orders of magnitude below I_Omega
        assert parts.multiplicative_term < 1e-4 * parts.i_omega

    def test_slepian_keeps_detuning_term(self):
        wf = modulated_dpss_waveform(2000, 1.0 / 2000, 5 * MHZ, 1 * MHZ, 10e-9)
        deph = SpectrumModel.dc_delta(0.19 * MHZ)
        parts = bias_breakdown(wf, FLAT_AMP, deph)
        assert parts.multiplicative_term > 0.1 * parts.i_omega

    def test_prediction_tracks_monte_carlo_weak_noise(self):
        wf = dephasing_robust(20e-6, 20, 2, 2000)
        deph = SpectrumModel.dc_delta(0.05 * MHZ)
        parts = bias_breakdown(wf, FLAT_AMP, deph)
        triple = survival_probabilities(wf, FLAT_AMP, deph, 2000, seed=11)
        est = tomographic_estimator(triple)
        assert abs(est.value - parts.predicted) < 3 * est.stderr

    def test_prediction_with_stochastic_dephasing(self):
        # exercises the closed-form <a1^(2)^2> of a non-static spectrum
        wf = dephasing_robust(20e-6, 20, 2, 2000)
        deph = SpectrumModel.one_over_f(3.18, 1e8, 0.01 * MHZ, 2 * MHZ)
        parts = bias_breakdown(wf, FLAT_AMP, deph)
        assert parts.i_z > 0 and parts.a12_sq >= 0
        triple = survival_probabilities(wf, FLAT_AMP, deph, 2000, seed=12)
        est = tomographic_estimator(triple)
        assert abs(est.value - parts.predicted) < 3 * est.stderr + 0.05 * parts.i_omega

    @pytest.mark.parametrize("family, deph", [
        ("dr", SpectrumModel.one_over_f(29.3, 1e8, 0.01 * MHZ, 2 * MHZ, mean=0.1 * MHZ)),
        ("dpss", SpectrumModel.flat_cutoff(2e3, 2 * MHZ)),
    ], ids=["dr-one-over-f-detuned", "dpss-flat"])
    def test_magnus_variance_matches_monte_carlo(self, family, deph):
        # the closed form against 20 000 synthesized dephasing trajectories
        wf = (dephasing_robust(20e-6, 20, 2, 500) if family == "dr"
              else modulated_dpss_waveform(500, 1.0 / 500, 5 * MHZ, 1 * MHZ, 40e-9))
        parts = bias_breakdown(wf, FLAT_AMP, deph)
        assert bias_breakdown(wf, FLAT_AMP, deph) == parts
        squares = np.concatenate([
            magnus_second_order_a1(wf, sample_many(deph, wf.n, wf.dt, seed=9,
                                                   indices=range(start, start + 2000))) ** 2
            for start in range(0, 20_000, 2000)
        ])
        se = squares.std(ddof=1) / np.sqrt(squares.size)
        assert abs(squares.mean() - parts.a12_sq) < 3 * se

    @pytest.mark.parametrize("family", ["dr", "dpss"])
    def test_static_magnus_variance_matches_gz(self, family):
        # <a1^(2)^2> = mu^4/3 * G_Z(0, 0) for static detuning mu
        wf = (dephasing_robust(20e-6, 20, 2, 2000) if family == "dr"
              else modulated_dpss_waveform(2000, 1.0 / 2000, 5 * MHZ, 1 * MHZ, 10e-9))
        mu = 0.19 * MHZ
        gz00 = higher_order_ff(wf, [0.0], [0.0]).values[0, 0].real
        want = mu**4 / 3.0 * gz00
        got = bias_breakdown(wf, FLAT_AMP, SpectrumModel.dc_delta(mu)).a12_sq
        assert abs(got - want) <= 1e-11 * want

    def test_gaussian_fourth_moment(self):
        # <a1^4> = 3 I_Omega^2 for zero-mean Gaussian amplitude noise
        wf = dephasing_robust(20e-6, 10, 2, 1000)
        reals = sample_many(FLAT_AMP, 1000, wf.dt, seed=4, indices=range(2500))
        a1 = error_vector_first_order(wf, reals, np.zeros(1000))[:, 0]
        i_om = overlap_amplitude(wf, FLAT_AMP)
        fourth = np.mean(a1**4)
        se = np.std(a1**4) / np.sqrt(a1.size)
        assert abs(fourth - 3 * i_om**2) < 3 * se + 0.01 * 3 * i_om**2

    def test_seed_exchangeability(self):
        wf = dephasing_robust(20e-6, 10, 2, 1000)
        t1 = survival_probabilities(wf, FLAT_AMP, NO_NOISE, 600, seed=21)
        t2 = survival_probabilities(wf, FLAT_AMP, NO_NOISE, 600, seed=22)
        err = np.hypot(t1.err1, t2.err1)
        assert abs(t1.p1 - t2.p1) < 4 * err


class TestOverlaps:
    WF = dephasing_robust(20e-6, 20, 2, 500)
    PINK = SpectrumModel.one_over_f(29.3, 1e8, 0.01 * MHZ, 2 * MHZ)

    @staticmethod
    def quad_overlap(ff, model, cuts):
        """(1/pi) int F S dw by adaptive quadrature between consecutive ``cuts``."""
        return sum(quad(lambda w: ff(w) * psd_eval(model, w), a, b, epsabs=0.0,
                        epsrel=1e-12, limit=400)[0]
                   for a, b in zip(cuts[:-1], cuts[1:])) / np.pi

    def test_flat_amplitude_overlap_matches_quadrature(self):
        want = self.quad_overlap(lambda w: amplitude_ff(self.WF, w).values[0], FLAT_AMP,
                                 np.linspace(0.0, FLAT_AMP.omega_h, 41))
        assert abs(overlap_amplitude(self.WF, FLAT_AMP) - want) <= 1e-11 * want

    def test_one_over_f_dephasing_overlap_matches_quadrature(self):
        model = self.PINK
        cuts = np.concatenate([[0.0], np.linspace(model.omega_l, model.omega_h, 41)])
        want = self.quad_overlap(lambda w: dephasing_ff(self.WF, w).values[0], model, cuts)
        assert abs(overlap_dephasing(self.WF, model) - want) <= 1e-10 * want

    def test_over_fine_spectrum_is_refused(self):
        # omega_l = 1e-7 omega_h asks for 8e7 panel nodes on a 20 us waveform
        fine = SpectrumModel.one_over_f(29.3, 1e8, 2e-7 * MHZ, 2 * MHZ)
        with pytest.raises(GridError):
            overlap_amplitude(self.WF, fine)
        with pytest.raises(GridError):
            bias_breakdown(self.WF, FLAT_AMP, fine)
