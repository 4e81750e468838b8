import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from qnspect import (
    PiecewiseConstantWaveform,
    amplitude_ff,
    amplitude_ff_integral,
    dephasing_robust,
    nnls,
    overlap_matrix,
    reconstruct,
    spectro,
)
from qnspect.errors import NonConvergenceError, ParameterError
from qnspect.spectro import OverlapMatrix

MHZ = 2 * np.pi * 1e6


@pytest.fixture(scope="module")
def dr_matrix():
    # small sweep: 12 modulation frequencies, 12 bands, T = 20 us
    n, dt = 2000, 10e-9
    t = n * dt
    delta = 2 * np.pi / t  # one linewidth per band
    waveforms = [dephasing_robust(t, r, 1, n) for r in range(1, 13)]
    return overlap_matrix(waveforms, 12, delta)


class TestOverlapMatrix:
    def test_diagonal_dominance(self, dr_matrix):
        # each row peaks on its own band; a single delta-omega band holds
        # the central lobe fraction (1/pi) int_{-pi}^{pi} sinc^2 ~ 0.77 of
        # the row weight for these filters
        m = dr_matrix.matrix
        for r in range(m.shape[0]):
            assert np.argmax(m[r]) == r
            assert m[r, r] >= 0.7 * m[r].sum()

    def test_nonnegative(self, dr_matrix):
        assert np.all(dr_matrix.matrix >= 0.0)

    def test_zero_waveform_row_is_zero(self):
        from qnspect import PiecewiseConstantWaveform

        n, dt = 500, 10e-9
        wfs = [PiecewiseConstantWaveform(np.zeros(n), dt)]
        mat = overlap_matrix(wfs, 4, 2 * np.pi / (n * dt))
        assert np.all(mat.matrix == 0.0)

    def test_row_sum_parseval(self, dr_matrix):
        # concentrated rows: sum of band integrals ~ (1/pi) * half-line
        # Parseval total = (dt/4) sum Omega^2
        n, dt = 2000, 10e-9
        t = n * dt
        for r in (3, 6, 9):
            wf = dephasing_robust(t, r + 1, 1, n)
            total = dt / 4 * np.sum(wf.samples**2)
            assert abs(dr_matrix.matrix[r].sum() / total - 1) < 0.02

    def test_band_layout(self, dr_matrix):
        assert np.allclose(np.diff(dr_matrix.band_centers), dr_matrix.delta_omega)

    def test_validation(self):
        n, dt = 500, 10e-9
        wf = dephasing_robust(n * dt, 1, 1, n)
        linewidth = 2 * np.pi / (n * dt)
        with pytest.raises(ParameterError):
            overlap_matrix([], 4, 1.0)
        with pytest.raises(ParameterError):
            overlap_matrix([wf], 10**6, linewidth)
        for num_bands in (0, -1, 2.5, True):
            with pytest.raises(ParameterError):
                overlap_matrix([wf], num_bands, linewidth)
        for delta in (np.nan, np.inf, 0.0, -linewidth):
            with pytest.raises(ParameterError):
                overlap_matrix([wf], 4, delta)

    @pytest.mark.parametrize("linewidths", [1.0, 1.3, 4.0])
    def test_bands_match_adaptive_quadrature(self, linewidths):
        # each entry against scipy.integrate.quad of F_Omega over its band,
        # relative to the largest entry
        n, dt = 400, 50e-9
        t = n * dt
        delta = linewidths * 2 * np.pi / t
        bands = 5
        waveforms = [dephasing_robust(t, r, 1, n) for r in (1, 3, 5)]
        mat = overlap_matrix(waveforms, bands, delta).matrix
        edges = [(0.0, 1.5 * delta)] + [((l - 0.5) * delta, (l + 0.5) * delta)
                                         for l in range(2, bands + 1)]
        ref = np.array([[scipy.integrate.quad(lambda w: amplitude_ff(wf, w).values[0],
                                              lo, hi, limit=200, epsabs=0.0,
                                              epsrel=1e-10)[0] / np.pi
                         for lo, hi in edges] for wf in waveforms])
        assert np.abs(mat - ref).max() <= 1e-12 * np.abs(mat).max()

    def test_one_kernel_call_on_stacked_samples(self, monkeypatch):
        calls = []

        def counting(samples, dt, edges):
            calls.append((samples, dt))
            return amplitude_ff_integral(samples, dt, edges)

        monkeypatch.setattr(spectro, "amplitude_ff_integral", counting)
        n, dt = 500, 10e-9
        waveforms = [dephasing_robust(n * dt, r, 1, n) for r in (1, 2, 3)]
        overlap_matrix(waveforms, 6, 2 * np.pi / (n * dt))
        assert len(calls) == 1
        samples, step = calls[0]
        assert np.array_equal(samples, np.stack([wf.samples for wf in waveforms]))
        assert step == waveforms[0].dt

    def test_probes_on_different_grids_rejected(self):
        # same total time, but a different sample count; then a different step
        t = 5e-6
        linewidth = 2 * np.pi / t
        base = dephasing_robust(t, 1, 1, 500)
        for other in (dephasing_robust(t, 2, 1, 400),
                      PiecewiseConstantWaveform(base.samples, base.dt * 1.01)):
            with pytest.raises(ParameterError):
                overlap_matrix([base, other], 4, linewidth)


class TestNnls:
    def test_identity_clipping(self):
        x = nnls(np.eye(3), np.array([1.0, -1.0, 2.0]))
        assert np.allclose(x, [1.0, 0.0, 2.0], atol=1e-12)

    def test_forward_model_recovery(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.uniform(0.5, 1.5, size=(8, 8)) + 4 * np.eye(8)
            s = rng.uniform(0.0, 2.0, 8)
            x = nnls(a, a @ s)
            assert np.abs(x - s).max() < 1e-8

    def test_origin_kkt(self):
        a = np.eye(2)
        x = nnls(a, np.array([-1.0, -0.5]))
        assert np.all(x == 0.0)

    def test_kkt_residuals(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(0, 1, size=(20, 10))
        y = rng.normal(size=20)
        x = nnls(a, y)
        w = a.T @ (y - a @ x)
        tol = 1e-10 * np.abs(a.T @ y).max()
        assert np.all(x >= 0)
        assert np.all(w <= tol)
        assert np.all(np.abs(w[x > 0]) <= tol)

    def test_matches_reference_active_set(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = rng.normal(size=(15, 7))
            y = rng.normal(size=15)
            ours = nnls(a, y)
            ref, _ = scipy.optimize.nnls(a, y)
            assert np.abs(ours - ref).max() < 1e-8

    def test_solver_cap_is_nonconvergence(self, monkeypatch):
        def capped(a, b, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(scipy.optimize, "nnls", capped)
        with pytest.raises(NonConvergenceError):
            nnls(np.eye(3), np.ones(3))


class TestReconstruct:
    def test_noiseless_forward_model(self, dr_matrix):
        s_true = np.full(12, 1.04e-11)
        y = dr_matrix.matrix @ s_true
        res = reconstruct(y, dr_matrix, true_spectrum=s_true)
        assert np.abs(res.estimates / s_true - 1).max() < 1e-6
        assert np.abs(res.relative_errors).max() < 1e-6

    def test_nonnegativity(self, dr_matrix):
        rng = np.random.default_rng(5)
        y = np.abs(dr_matrix.matrix @ np.full(12, 1e-11)) + rng.normal(0, 2e-13, 12)
        res = reconstruct(y, dr_matrix)
        assert np.all(res.estimates >= 0.0)

    def test_row_permutation_invariance(self, dr_matrix):
        s_true = np.linspace(0.5, 2.0, 12) * 1e-11
        y = dr_matrix.matrix @ s_true + 1e-14
        perm = np.random.default_rng(7).permutation(12)
        shuffled = OverlapMatrix(
            matrix=dr_matrix.matrix[perm],
            delta_omega=dr_matrix.delta_omega,
            band_centers=dr_matrix.band_centers,
        )
        a = reconstruct(y, dr_matrix)
        b = reconstruct(y[perm], shuffled)
        assert np.abs(a.estimates - b.estimates).max() < 1e-12 * np.abs(a.estimates).max()

    def test_extra_row_never_hurts_fit(self, dr_matrix):
        # fitting synthetic data, an extra measurement cannot increase the
        # residual of the true solution
        s_true = np.full(12, 1e-11)
        y = dr_matrix.matrix @ s_true
        full = np.linalg.norm(dr_matrix.matrix @ s_true - y)
        dropped = np.linalg.norm(dr_matrix.matrix[:-1] @ s_true - y[:-1])
        assert full <= dropped + 1e-18

    def test_measurement_count_mismatch(self, dr_matrix):
        with pytest.raises(ParameterError):
            reconstruct(np.ones(5), dr_matrix)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input(self, dr_matrix, bad):
        y = dr_matrix.matrix @ np.full(12, 1e-11)
        y[4] = bad
        with pytest.raises(ParameterError):
            reconstruct(y, dr_matrix)
