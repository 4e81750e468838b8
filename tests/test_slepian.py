import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import windows

from qnspect import (
    amplitude_ff,
    dephasing_robust,
    dpss,
    modulated_dpss_waveform,
    spectral_concentration,
)
from qnspect.errors import ParameterError, UndefinedRatioError
from qnspect.slepian import toeplitz_kernel
from qnspect.waveform import PiecewiseConstantWaveform


def dense_dpss_oracle(n, half_bandwidth, k):
    """Direct dense eigendecomposition of the sinc Toeplitz kernel."""
    evals, evecs = np.linalg.eigh(toeplitz_kernel(n, half_bandwidth))
    order = np.argsort(evals)[::-1][:k]
    return evecs[:, order].T, evals[order]


def _first_appreciable(v):
    return v[np.flatnonzero(np.abs(v) > 1e-12 * np.abs(v).max())[0]]


def commuting_tridiagonal(n, nw):
    """Dense Percival-Walden tridiagonal, which shares its eigenvectors with the kernel."""
    t = np.arange(n, dtype=float)
    off_diagonal = t[1:] * (n - t[1:]) / 2
    return (np.diag(((n - 1 - 2 * t) / 2) ** 2 * np.cos(2 * np.pi * nw / n))
            + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1))


def test_two_sample_eigenvectors():
    # 2x2 symmetric Toeplitz: eigenvectors are (1,1)/sqrt(2), (1,-1)/sqrt(2)
    ds = dpss(2, 0.2, 2)
    root2 = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(ds.sequences), root2, atol=1e-12)
    assert np.allclose(ds.sequences[0], [root2, root2], atol=1e-12)
    assert np.allclose(ds.sequences[1], [root2, -root2], atol=1e-12)


def test_matches_dense_oracle_n64():
    n, nw, k = 64, 2.0, 4
    ds = dpss(n, nw / n, k)
    seq_oracle, eig_oracle = dense_dpss_oracle(n, nw / n, k)
    assert np.abs(ds.eigenvalues - eig_oracle).max() < 1e-8
    for got, want in zip(ds.sequences, seq_oracle):
        sign = np.sign(got @ want)
        assert np.abs(got - sign * want).max() < 1e-8


def test_orthonormal_and_decreasing():
    ds = dpss(128, 2.5 / 128, 5)
    gram = ds.sequences @ ds.sequences.T
    assert np.abs(gram - np.eye(5)).max() < 1e-10
    assert np.all(np.diff(ds.eigenvalues) < 0)


def test_k0_index_reversal_symmetry():
    ds = dpss(101, 1.0 / 101, 1)
    v = ds.sequences[0]
    assert np.abs(v - v[::-1]).max() < 1e-10


def test_rayleigh_quotient_consistency():
    n, nw = 96, 2.0
    ds = dpss(n, nw / n, 3)
    kernel = toeplitz_kernel(n, nw / n)
    for v, lam in zip(ds.sequences, ds.eigenvalues):
        assert abs(v @ kernel @ v - lam) < 1e-8


def test_sign_convention():
    ds = dpss(50, 1.5 / 50, 3)
    for v in ds.sequences:
        assert _first_appreciable(v) > 0


def test_large_n_top_concentration():
    # NW = 1 concentrates ~98% of the k=0 energy in band; this is the same
    # number as the probe-waveform concentration ratio quoted for Slepians
    ds = dpss(20000, 1.0 / 20000, 1)
    assert 0.975 < ds.eigenvalues[0] < 1.0


def test_parameter_validation():
    with pytest.raises(ParameterError):
        dpss(16, 0.6, 1)
    with pytest.raises(ParameterError):
        dpss(16, 0.1, 0)
    with pytest.raises(ParameterError):
        dpss(16, 0.1, 17)


@pytest.mark.parametrize("n, nw, k", [(20, 1.0, 1), (64, 2.0, 4), (400, 1.0, 3),
                                      (501, 2.5, 4), (2000, 1.0, 5), (33, 1.5, 2)])
def test_tapers_match_scipy_signal_bitwise(n, nw, k):
    from qnspect.slepian import _concentrations, _tapers

    want, want_ratios = windows.dpss(n, nw, Kmax=k, sym=True, norm=2, return_ratios=True)
    tapers = _tapers(n, nw, k)
    assert np.array_equal(tapers, want)
    assert np.array_equal(_concentrations(tapers, nw), want_ratios)


@pytest.mark.parametrize("n, nw", [(n, nw) for n in range(2, 17) for nw in (0.8, 1.0, 1.5, 2.0)
                                   if nw / n < 0.5])
def test_short_sequences_match_dense_oracle_at_every_order(n, nw):
    # one algorithm at every length: the orders the kernel separates (concentration
    # above 1e-6) are its eigenvectors, and every order is orthonormal and signed
    seq_oracle, eig_oracle = dense_dpss_oracle(n, nw / n, n)
    for k in range(1, n + 1):
        ds = dpss(n, nw / n, k)
        assert np.abs(ds.eigenvalues - eig_oracle[:k]).max() < 1e-14
        for got, want, lam in zip(ds.sequences, seq_oracle, ds.eigenvalues):
            assert _first_appreciable(got) > 0
            if lam > 1e-6:
                assert np.abs(got - np.sign(got @ want) * want).max() < 1e-9
        assert np.abs(ds.sequences @ ds.sequences.T - np.eye(k)).max() < 1e-14


@pytest.mark.parametrize("nw", [0.8, 1.0, 1.5, 2.0])
def test_every_order_at_n16_is_an_eigenvector_of_the_commuting_tridiagonal(nw):
    # a dense eigensolver of the kernel mixes the orders whose concentrations
    # are within roundoff of each other (residual 0.01-0.2 of max|T| here)
    ds = dpss(16, nw / 16, 16)
    tri = commuting_tridiagonal(16, nw)
    v = ds.sequences
    rayleigh = np.einsum("ij,jk,ik->i", v, tri, v)
    assert np.abs(v @ tri - rayleigh[:, None] * v).max() <= 1e-15 * np.abs(tri).max()


def test_two_sample_antisymmetric_taper_takes_its_sign_from_the_first_point():
    # no point of (1, -1)/sqrt(2) has v^2 > max(1e-7, 1/2); scipy raises IndexError
    from qnspect.slepian import _tapers

    root2 = 1.0 / np.sqrt(2.0)
    assert np.allclose(_tapers(2, 0.8, 2), [[root2, root2], [root2, -root2]], atol=1e-15)


@pytest.mark.parametrize("args", [(100, 0.01, 2.0), (10, 0.1, 2.0), (100.0, 0.01, 1),
                                  (100, 0.01, True), (True, 0.2, 1), (np.float64(40), 0.05, 1)])
def test_non_integer_counts_rejected(args):
    with pytest.raises(ParameterError, match="must be an integer"):
        dpss(*args)


def test_numpy_integer_counts_accepted():
    ds = dpss(np.int64(40), 0.05, np.int32(2))
    assert ds.n == 40 and type(ds.n) is int
    assert np.array_equal(ds.sequences, dpss(40, 0.05, 2).sequences)


class TestSpectralConcentration:
    def test_zero_waveform_rejected(self):
        wf = PiecewiseConstantWaveform(np.zeros(16), 1e-8)
        with pytest.raises(UndefinedRatioError):
            spectral_concentration(wf, 0.0, 1.0)

    def test_full_line_is_one(self):
        wf = dephasing_robust(20e-6, 4, 1, 2000)
        assert spectral_concentration(wf, 0.0, np.inf) == 1.0

    def test_bounds(self):
        rng = np.random.default_rng(7)
        wf = PiecewiseConstantWaveform(rng.normal(0, 1e6, 400), 5e-8)
        t = wf.total_time
        for center, halfw in [(0.0, 2 * np.pi / t), (2 * np.pi * 2e5, 2 * np.pi * 1e5)]:
            r = spectral_concentration(wf, center, halfw)
            assert 0.0 <= r <= 1.0

    def test_paper_scale_ratios(self):
        # probe waveforms of the simulation study: band = passband center
        # +- one 2*pi/T linewidth
        n, dt = 10000, 10e-9
        t = n * dt
        lam = 2 * np.pi * 0.1e6
        halfw = 2 * np.pi / t
        dr = dephasing_robust(t, 10, 1, n)
        slep = modulated_dpss_waveform(n, 1.0 / n, 2 * np.pi * 5e6, lam, dt)
        assert abs(spectral_concentration(dr, lam, halfw) - 0.904) < 0.005
        assert abs(spectral_concentration(slep, lam, halfw) - 0.981) < 0.005

    def test_paper_scale_ratios_match_adaptive_quadrature(self):
        # the criterion-9 probes, numerator by scipy quad of F_Omega over the
        # band (and its mirror), denominator by Parseval
        n, dt = 10000, 10e-9
        t = n * dt
        lam = 2 * np.pi * 0.1e6
        halfw = 2 * np.pi / t
        for wf in (dephasing_robust(t, 10, 1, n),
                   modulated_dpss_waveform(n, 1.0 / n, 2 * np.pi * 5e6, lam, dt)):
            band = quad(lambda w: amplitude_ff(wf, w).values[0], lam - halfw, lam + halfw,
                        epsabs=0.0, epsrel=1e-13, limit=200)[0]
            ref = 2 * band / (0.5 * np.pi * dt * np.sum(wf.samples**2))
            assert abs(spectral_concentration(wf, lam, halfw) - ref) < 1e-10

    @pytest.mark.parametrize("center, halfwidth", [
        (np.nan, 1e5), (np.inf, 1e5), (-np.inf, 1e5), (np.inf, np.inf),
        (1e6, np.nan), (1e6, 0.0), (1e6, -1e5),
    ])
    def test_bad_band_rejected(self, center, halfwidth):
        wf = dephasing_robust(20e-6, 4, 1, 2000)
        with pytest.raises(ParameterError):
            spectral_concentration(wf, center, halfwidth)


@pytest.fixture
def solves(monkeypatch):
    """Count the tridiagonal eigensolves, starting from an empty taper cache."""
    import scipy.linalg

    from qnspect.slepian import _tapers

    sizes = []
    solve = scipy.linalg.eigh_tridiagonal

    def counted(diagonal, off_diagonal, **kwargs):
        sizes.append(diagonal.size)
        return solve(diagonal, off_diagonal, **kwargs)

    _tapers.cache_clear()
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted)
    yield sizes
    _tapers.cache_clear()


def test_a_probe_sweep_at_one_n_and_nw_solves_once(solves):
    n, dt = 400, 50e-9
    lambdas = 2 * np.pi * np.arange(1, 11) / (n * dt)
    for lam in lambdas:
        modulated_dpss_waveform(n, 1.0 / n, 5e6, lam, dt)
    assert len(solves) == 1
    modulated_dpss_waveform(n, 2.0 / n, 5e6, lambdas[0], dt)
    assert len(solves) == 2


def test_dpss_solves_once_per_length_bandwidth_and_order_count(solves):
    for _ in range(3):
        dpss(300, 1 / 300, 3)
    assert len(solves) == 1
    dpss(300, 1.5 / 300, 3)
    dpss(300, 1 / 300, 2)
    assert len(solves) == 3


def test_design_problems_at_one_shape_solve_once(solves):
    from qnspect.optimize import build_design_problem

    for omega0 in (0.1, 0.2, 0.3):
        build_design_problem(2 * np.pi * omega0 * 1e6, 400, 250e-9, 2 * np.pi * 5e6)
    assert len(solves) == 1


def test_cached_tapers_are_read_only():
    from qnspect.slepian import _tapers

    tapers = _tapers(301, 1.0, 2)
    assert _tapers(301, 1.0, 2) is tapers
    assert not tapers.flags.writeable
    with pytest.raises(ValueError):
        tapers[0, 0] = 1.0


def test_changing_returned_arrays_leaves_the_next_call_bit_identical():
    from qnspect.slepian import _tapers

    n, dt = 300, 50e-9
    fresh = _tapers.__wrapped__(n, 1.0, 3)
    first = dpss(n, 1.0 / n, 3)
    assert first.sequences.flags.writeable
    first.sequences[:] = 7.0
    again = dpss(n, 1.0 / n, 3)
    # dpss flips whole rows to its own sign convention, which is exact
    signs = np.sign(np.sum(again.sequences * fresh, axis=1))[:, None]
    assert np.array_equal(again.sequences, signs * fresh)
    assert np.array_equal(_tapers(n, 1.0, 3), fresh)

    lam = 2 * np.pi * 3 / (n * dt)
    want = modulated_dpss_waveform(n, 1.0 / n, 5e6, lam, dt).samples.copy()
    wf = modulated_dpss_waveform(n, 1.0 / n, 5e6, lam, dt)
    wf.samples[:] = -1.0
    assert np.array_equal(modulated_dpss_waveform(n, 1.0 / n, 5e6, lam, dt).samples, want)
    assert np.array_equal(_tapers(n + 1, 1.0, 1), _tapers.__wrapped__(n + 1, 1.0, 1))
