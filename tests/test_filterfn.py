import warnings

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad
from scipy.signal import ZoomFFT

from qnspect import (
    PiecewiseConstantWaveform,
    amplitude_ff,
    amplitude_ff_integral,
    dephasing_ff,
    dephasing_ff_dc,
    dephasing_robust,
    higher_order_ff,
    modulated_dpss_waveform,
)
from qnspect.errors import GridError, ParameterError
from qnspect.filterfn import (
    FilterFunctionGrid,
    HigherOrderFFGrid,
    ff_to_csv,
    higher_order_ff_to_csv,
)
from qnspect.lp_reduce import AffineConstraintSet, constraints_to_csv

from oracles import _fejer, dephasing_ff_periodic_oracle, higher_order_ff_brute

T = 100e-6
N = 10000
LAM = 2 * np.pi * 0.1e6
J01 = 2.404825557695773
OMEGA0 = LAM * J01


@pytest.fixture(scope="module")
def dr_waveform():
    return dephasing_robust(T, 10, 1, N)


def analytic_amplitude_ff(omega):
    """Closed form for the sinusoidal waveform, with the w -> lambda limit."""
    omega = np.asarray(omega, dtype=float)
    out = np.empty_like(omega)
    near = np.abs(omega - LAM) < 1e-6 * LAM
    out[~near] = (OMEGA0 * LAM * np.sin(omega[~near] * T / 2)
                  / (omega[~near] ** 2 - LAM**2)) ** 2
    # L'Hopital at the passband center: F = (Omega0 T/4)^2 for sin(lam T/2 +
    # eps T/2) expanded about the M-period closure sin(lam T/2) = 0
    out[near] = (OMEGA0 * T / 4.0) ** 2
    return out


class TestAmplitudeFF:
    def test_zero_waveform(self):
        wf = PiecewiseConstantWaveform(np.zeros(100), 1e-8)
        grid = np.linspace(0, 1e7, 11)
        assert np.all(amplitude_ff(wf, grid).values == 0.0)

    def test_analytic_match_one_percent(self, dr_waveform):
        omegas = 2 * np.pi * np.linspace(0.01e6, 2e6, 400)
        got = amplitude_ff(dr_waveform, omegas).values
        want = analytic_amplitude_ff(omegas)
        mask = want > 1e-6 * want.max()  # skip the sinc nulls
        assert np.abs(got[mask] / want[mask] - 1).max() < 0.01

    def test_passband_center_limit(self, dr_waveform):
        got = amplitude_ff(dr_waveform, np.array([LAM])).values[0]
        assert abs(got / (OMEGA0 * T / 4.0) ** 2 - 1) < 0.01

    def test_even_in_omega(self, dr_waveform):
        grid = 2 * np.pi * np.linspace(0.03e6, 0.5e6, 50)
        left = amplitude_ff(dr_waveform, -grid[::-1]).values[::-1]
        right = amplitude_ff(dr_waveform, grid).values
        assert np.allclose(left, right, rtol=1e-10)

    def test_parseval_over_dft_band(self):
        # (1/2pi) int F dw over [-pi/dt, pi/dt] = (dt/4) sum Omega^2.  The
        # images beyond Nyquist carry a fraction ~ (lam dt)^2 zeta(2)/(2 pi^2)
        # of the energy, so the waveform must be strongly oversampled for the
        # band-limited integral to close at 1e-6.
        from scipy.integrate import simpson

        wf = dephasing_robust(40e-6, 1, 1, 4000)
        grid = np.linspace(0, np.pi / wf.dt, 40001)
        half = simpson(amplitude_ff(wf, grid).values, x=grid)
        lhs = 2 * half / (2 * np.pi)
        rhs = wf.dt / 4 * np.sum(wf.samples**2)
        assert abs(lhs / rhs - 1) < 1e-6


def quad_ff_integral(wf, edge, pieces=64):
    """int_0^edge F_Omega dw by adaptive quadrature over ``pieces`` subintervals."""
    cuts = np.linspace(0.0, edge, pieces + 1)
    return sum(quad(lambda w: amplitude_ff(wf, w).values[0], a, b, epsabs=0.0,
                    epsrel=1e-13, limit=200)[0] for a, b in zip(cuts[:-1], cuts[1:]))


class TestAmplitudeFFIntegral:
    N, DT = 64, 50e-9

    @pytest.fixture(scope="class")
    def probes(self):
        rng = np.random.default_rng(11)
        n, dt = self.N, self.DT
        return [PiecewiseConstantWaveform(rng.normal(0.0, 1e6, n), dt),
                modulated_dpss_waveform(n, 2.0 / n, 2 * np.pi * 5e6,
                                        2 * np.pi * 4 / (n * dt), dt)]

    @pytest.mark.parametrize("probe", [0, 1], ids=["random", "dpss"])
    def test_matches_adaptive_quadrature(self, probes, probe):
        wf = probes[probe]
        nyquist = np.pi / self.DT
        edges = np.array([1e-4, 0.01, 0.1, 0.37, 0.5, 0.83, 1.0]) * nyquist
        got = amplitude_ff_integral(wf.samples, wf.dt, edges)
        ref = np.array([quad_ff_integral(wf, e) for e in edges])
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_edges_beyond_nyquist(self, probes):
        wf = probes[0]
        edges = np.array([1.5, 2.2, 3.0]) * np.pi / self.DT
        got = amplitude_ff_integral(wf.samples, wf.dt, edges)
        ref = np.array([quad_ff_integral(wf, e, pieces=192) for e in edges])
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_rows_and_zero_edge(self, probes):
        stack = np.stack([wf.samples for wf in probes])
        edges = np.array([0.0, 2e6, 2e7])
        both = amplitude_ff_integral(stack, self.DT, edges)
        assert both.shape == (2, 3)
        assert np.all(both[:, 0] == 0.0)
        for row, wf in zip(both, probes):
            single = amplitude_ff_integral(wf.samples, wf.dt, edges)
            assert np.abs(row - single).max() <= 1e-14 * np.abs(single).max()

    @pytest.mark.parametrize("edges", [[], np.empty((0,))], ids=["list", "array"])
    def test_no_edges_give_empty_rows(self, probes, edges):
        # like amplitude_ff and dephasing_ff on an empty grid
        stack = np.stack([wf.samples for wf in probes])
        assert amplitude_ff_integral(stack, self.DT, edges).shape == (2, 0)
        assert amplitude_ff_integral(stack[0], self.DT, edges).shape == (0,)

    def test_node_cap_is_a_grid_error(self, probes):
        # a band edge that would need more than _MAX_NODES nodes per segment
        from qnspect.filterfn import _MAX_NODES

        edge = (_MAX_NODES / 8 + 1) * np.pi / self.DT
        with pytest.raises(GridError, match="quadrature nodes"):
            amplitude_ff_integral(probes[0].samples, self.DT, [1e6, edge])
        assert amplitude_ff_integral(probes[0].samples, self.DT,
                                     [_MAX_NODES / 8 * np.pi / self.DT]).shape == (1,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_edge_rejected(self, probes, bad):
        with pytest.raises(ParameterError):
            amplitude_ff_integral(probes[0].samples, self.DT, [1e6, bad])

    @pytest.mark.parametrize("case", ["dt=0", "dt<0", "dt=inf", "nan sample", "no samples"])
    def test_bad_samples_or_step_rejected(self, probes, case):
        samples, dt = probes[0].samples.copy(), self.DT
        if case == "nan sample":
            samples[3] = np.nan
        elif case == "no samples":
            samples = samples[:0]
        else:
            dt = {"dt=0": 0.0, "dt<0": -1e-8, "dt=inf": np.inf}[case]
        with pytest.raises(ParameterError):
            amplitude_ff_integral(samples, dt, [1e6, 2e7])

    def test_kernel_blocks_match_one_block(self, probes, monkeypatch):
        from qnspect import filterfn

        stack = np.stack([wf.samples for wf in probes])
        edges = np.linspace(0.0, 1.3, 7) * np.pi / self.DT
        whole = amplitude_ff_integral(stack, self.DT, edges)
        # one row per autocorrelation block, 13 kernel blocks of 5 lags
        monkeypatch.setattr(filterfn, "_BLOCK_CELLS", 5 * edges.size)
        blocked = amplitude_ff_integral(stack, self.DT, edges)
        assert np.abs(blocked - whole).max() <= 1e-14 * np.abs(whole).max()


class TestDephasingFF:
    def test_free_evolution_sinc(self):
        wf = PiecewiseConstantWaveform(np.zeros(1000), 1e-8)
        t = wf.total_time
        grid = np.linspace(0, 2 * np.pi * 5e6, 300)[1:]
        got = dephasing_ff(wf, grid).values
        want = 4 * np.sin(grid * t / 2) ** 2 / grid**2
        assert np.allclose(got, want, rtol=1e-9, atol=1e-30)
        assert abs(dephasing_ff_dc(wf) - t * t) < 1e-12 * t * t

    def test_dc_null_of_dephasing_robust(self, dr_waveform):
        # the sampled amplitude cancels the O((lambda dt)^2) hold shift of the
        # Bessel argument, so the DC null holds at the acceptance budget
        assert dephasing_ff_dc(dr_waveform) < 1e-12 * T * T

    def test_comb_weights(self, dr_waveform):
        # each comb tooth at k*lambda carries weight (lambda/M) F_Z(k lambda)
        # = 2 pi T J_k(Omega0/lambda)^2: the Fejer factor is exactly M^2 on a
        # tooth and integrates to M*lambda across it
        ks = np.arange(1, 6)
        fz = dephasing_ff(dr_waveform, ks * LAM).values
        weights = (LAM / 10) * fz
        expected = 2 * np.pi * T * special.jv(ks, J01) ** 2
        assert np.abs(weights / expected - 1).max() < 0.02

    def test_nonnegative_and_even(self, dr_waveform):
        grid = 2 * np.pi * np.linspace(0.005e6, 1.0e6, 101)
        right = dephasing_ff(dr_waveform, grid).values
        left = dephasing_ff(dr_waveform, -grid[::-1]).values[::-1]
        assert np.all(right >= 0)
        assert np.allclose(left, right, rtol=1e-10)


class TestPeriodicOracle:
    def test_fejer_dc_limit(self):
        assert abs(_fejer(np.array([0.0]), 10, LAM)[0] - 100.0) < 1e-9
        assert abs(_fejer(np.array([3 * LAM]), 10, LAM)[0] - 100.0) < 1e-6

    def test_single_period_cos_integral(self):
        # int_0^{2pi/lam} cos Theta dt = 2 pi cos(ratio) J0(ratio) / lam
        ratio = 1.7  # generic amplitude, not a J0 root
        lam = LAM

        def theta(t):
            return ratio * (1 - np.cos(lam * t))

        got = quad(lambda t: np.cos(theta(t)), 0, 2 * np.pi / lam, limit=200)[0]
        want = 2 * np.pi * np.cos(ratio) * special.j0(ratio) / lam
        assert abs(got - want) < 1e-12 * abs(want)

    def test_oracle_at_dc_is_zero_for_root(self):
        grid = np.array([0.0])
        got = dephasing_ff_periodic_oracle(10, LAM, OMEGA0, grid).values[0]
        assert got < 1e-12 * T * T

    def test_cross_validation_with_discrete_ff(self, dr_waveform):
        # agree within 1% away from comb nulls
        ks = np.array([1, 2, 3])
        offsets = np.array([-0.2, 0.0, 0.3])  # in units of lambda
        grid = (ks[:, None] + offsets[None, :]).ravel() * LAM
        grid = np.sort(grid)
        oracle = dephasing_ff_periodic_oracle(10, LAM, OMEGA0, grid).values
        disc = dephasing_ff(dr_waveform, grid).values
        mask = oracle > 1e-4 * oracle.max()
        assert np.abs(disc[mask] / oracle[mask] - 1).max() < 0.01


class TestHigherOrderFF:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for trial in range(5):
            n = int(rng.integers(8, 33))
            dt = float(rng.uniform(0.5e-8, 2e-8))
            wf = PiecewiseConstantWaveform(rng.normal(0, 3e5, n), dt)
            base = 2 * np.pi / (n * dt)
            omegas = np.array([0.0, base, 2 * base])
            grid = higher_order_ff(wf, omegas, omegas)
            for i, a in enumerate(omegas):
                for j, b in enumerate(omegas):
                    brute = higher_order_ff_brute(wf, a, b)
                    assert abs(grid.values[i, j] - brute) <= 1e-10 * max(abs(brute), 1e-30)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(4)
        wf = PiecewiseConstantWaveform(rng.normal(0, 2e5, 20), 1e-8)
        base = 2 * np.pi / (20 * 1e-8)
        omegas = np.array([-2 * base, -base, 0.0, base, 2 * base])
        grid = higher_order_ff(wf, omegas, omegas)
        flipped = np.conj(grid.values[::-1, ::-1])
        assert np.abs(grid.values - flipped).max() <= 1e-10 * np.abs(grid.values).max()

    def test_off_grid_frequency_rejected(self):
        wf = PiecewiseConstantWaveform(np.ones(16), 1e-8)
        with pytest.raises(GridError):
            higher_order_ff(wf, [1234.5], [0.0])

    def test_peak_structure(self):
        # dephasing-robust: dominated by (lam, 2lam)/(2lam, lam), DC row
        # suppressed; Slepian probe keeps the (0, lam) peak
        n, dt = 2000, 10e-9
        t = n * dt
        lam = 2 * np.pi * 20 / t
        dr = dephasing_robust(t, 20, 1, n)
        slep = modulated_dpss_waveform(n, 1.0 / n, 2.4 * lam, lam, dt)
        omegas = np.array([0.0, lam, 2 * lam])
        g_dr = np.abs(higher_order_ff(dr, omegas, omegas).values)
        g_sl = np.abs(higher_order_ff(slep, omegas, omegas).values)
        assert g_dr[0, 1] < 0.1 * g_dr[1, 2]
        assert g_sl[0, 1] > 0.1 * g_sl[1, 2]


NON_FINITE_CALLS = {
    "amplitude_ff": lambda wf, bad: amplitude_ff(wf, [1e6, bad]),
    "dephasing_ff": lambda wf, bad: dephasing_ff(wf, [1e6, bad]),
    "higher_order_ff omegas": lambda wf, bad: higher_order_ff(wf, [bad], [0.0]),
    "higher_order_ff omegas_prime": lambda wf, bad: higher_order_ff(wf, [0.0], [bad]),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
def test_non_finite_frequency_rejected(call, bad):
    wf = PiecewiseConstantWaveform(np.ones(16), 1e-8)
    with pytest.raises(ParameterError):
        NON_FINITE_CALLS[call](wf, bad)


TWO_D_CALLS = {
    "amplitude_ff": amplitude_ff,
    "dephasing_ff": dephasing_ff,
    "higher_order_ff omegas": lambda wf, grid: higher_order_ff(wf, grid, [0.0]),
    "higher_order_ff omegas_prime": lambda wf, grid: higher_order_ff(wf, [0.0], grid),
}


@pytest.mark.parametrize("call", sorted(TWO_D_CALLS))
def test_two_dimensional_frequencies_rejected(call):
    wf = PiecewiseConstantWaveform(np.ones(16), 1e-8)
    # on the DFT grid, so only the shape can be at fault for higher_order_ff
    grid = np.zeros((2, 3))
    with pytest.raises(ParameterError):
        TWO_D_CALLS[call](wf, grid)
    # a scalar frequency is one grid point
    assert TWO_D_CALLS[call](wf, 0.0).values.size == 1


# ---------------------------------------------------------------------------
# Transform-kernel paths against direct segment-exact sums
# ---------------------------------------------------------------------------


def direct_first_order(wf, omegas):
    """(F_Omega, F_Z) from segment-exact sums written out over a (M, N) grid.

    int_0^dt e^{ius} ds = dt e^{iu dt/2} sinc(u dt/2pi), and Theta is linear
    on each segment, so I_pm(w) = sum_m e^{i(w t_m +- Th_m)} seg(w +- Omega_m)
    and F_Z = (|I_+|^2 + |I_-|^2)/2.
    """
    dt = wf.dt
    w = np.asarray(omegas, dtype=float)[:, None]
    t = np.arange(wf.n)[None, :] * dt
    theta = np.concatenate([[0.0], np.cumsum(wf.samples * dt)[:-1]])[None, :]
    omega = wf.samples[None, :]

    def seg(u):
        return dt * np.exp(0.5j * u * dt) * np.sinc(u * dt / (2 * np.pi))

    s_omega = np.sum(omega * np.exp(1j * w * t), axis=1) * seg(w[:, 0])
    i_plus = np.sum(np.exp(1j * (w * t + theta)) * seg(w + omega), axis=1)
    i_minus = np.sum(np.exp(1j * (w * t - theta)) * seg(w - omega), axis=1)
    return 0.25 * np.abs(s_omega) ** 2, 0.5 * (np.abs(i_plus) ** 2 + np.abs(i_minus) ** 2)


def direct_gz(wf, omegas, omegas_prime):
    """G_Z from the double transform W written as dense prefix-sum matrices."""
    dt = wf.dt
    t = np.arange(wf.n) * dt
    theta = np.concatenate([[0.0], np.cumsum(wf.samples * dt)[:-1]])
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    lower = np.tril(np.ones((wf.n, wf.n)))  # j2 <= j1

    def W(a, b):
        ea, eb = np.exp(1j * a * t), np.exp(1j * b * t)
        return dt**2 * ((sin_t * ea) @ lower @ (cos_t * eb) - (cos_t * ea) @ lower @ (sin_t * eb))

    return np.array([[W(w, -w) * W(wp, -wp) + W(w, wp) * (W(-w, -wp) + W(-wp, -w))
                      for wp in omegas_prime] for w in omegas])


def random_waveform(rng, n=400, dt=1e-8, rate=2e6):
    return PiecewiseConstantWaveform(rng.normal(0.0, rate, n), dt)


FIRST_ORDER_GRIDS = {
    "ascending": lambda dt: np.linspace(0.0, 0.3 / dt, 161),
    "negative": lambda dt: np.linspace(-0.25 / dt, -0.01 / dt, 97),
    "single point": lambda dt: np.array([0.07 / dt]),
    "non-uniform": lambda dt: np.sort(np.random.default_rng(3).uniform(-0.3, 0.3, 60)) / dt,
    "u_max >= 1": lambda dt: np.linspace(0.0, 1.5 / dt, 121),
    "beyond Nyquist": lambda dt: np.linspace(0.0, 12.0 / dt, 121),
}


class TestKernelPaths:
    @pytest.mark.parametrize("grid_name", sorted(FIRST_ORDER_GRIDS))
    def test_first_order_match_direct_sum(self, grid_name):
        rng = np.random.default_rng(11)
        for trial in range(3):
            wf = random_waveform(rng, n=int(rng.integers(200, 500)))
            omegas = FIRST_ORDER_GRIDS[grid_name](wf.dt)
            want_amp, want_deph = direct_first_order(wf, omegas)
            got_amp = amplitude_ff(wf, omegas).values
            got_deph = dephasing_ff(wf, omegas).values
            assert np.abs(got_amp - want_amp).max() <= 1e-9 * want_amp.max()
            # tight enough to catch a node count that does not grow with u_max
            assert np.abs(got_deph - want_deph).max() <= 1e-13 * want_deph.max()

    def test_path_selection(self):
        from qnspect.filterfn import _is_even_grid

        assert _is_even_grid(np.linspace(0.0, 1e7, 1000), 1e-4)
        assert _is_even_grid(np.linspace(-1e7, -1e5, 7), 1e-4)
        assert not _is_even_grid(np.array([1e6]), 1e-4)
        assert not _is_even_grid(np.linspace(1e7, 0.0, 10), 1e-4)
        assert not _is_even_grid(np.array([0.0, 1e6, 2.5e6]), 1e-4)
        assert not _is_even_grid(np.array([0.0, np.nan, 2e6]), 1e-4)

    @pytest.mark.parametrize("n, m", [(300, 41), (120, 500), (257, 2)],
                             ids=["m < n", "m > n", "m = 2"])
    @pytest.mark.parametrize("shape", [(), (3,)], ids=["1-D", "2-D"])
    def test_zoom_fft_matches_scipy_signal_bitwise(self, n, m, shape):
        from qnspect.filterfn import _zoom_fft

        rng = np.random.default_rng(n + m)
        x = rng.standard_normal(shape + (n,)) + 1j * rng.standard_normal(shape + (n,))
        for f1, f2 in [(-0.013, 0.021), (0.31, -0.17)]:
            want = ZoomFFT(n, [f1, f2], m, fs=1, endpoint=True)(x)
            assert np.array_equal(_zoom_fft(x, f1, f2, m), want)

    def test_gauss_legendre_tables_built_once_and_read_only(self):
        from qnspect.filterfn import _gauss_legendre

        nodes, weights = _gauss_legendre(24)
        assert _gauss_legendre(24)[0] is nodes
        want_nodes, want_weights = np.polynomial.legendre.leggauss(24)
        assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)
        with pytest.raises(ValueError):
            weights[0] = 0.0

    def test_dc_grid_point_of_dephasing_robust(self, dr_waveform):
        grid = np.linspace(0.0, 2 * np.pi * 2e6, 1000)
        fz = dephasing_ff(dr_waveform, grid).values
        assert fz[0] < 1e-12 * T * T

    @pytest.mark.parametrize("grid_name", ["ascending", "non-uniform"])
    def test_node_blocks_match_one_block(self, grid_name, monkeypatch):
        from qnspect import filterfn

        wf = random_waveform(np.random.default_rng(17), n=300)
        omegas = FIRST_ORDER_GRIDS[grid_name](wf.dt)
        whole = dephasing_ff(wf, omegas).values
        # one Gauss-Legendre node per block: 8 blocks of two rows
        monkeypatch.setattr(filterfn, "_BLOCK_CELLS", 2 * wf.n)
        blocked = dephasing_ff(wf, omegas).values
        assert np.abs(blocked - whole).max() <= 1e-14 * whole.max()

    def test_gz_matches_direct_sum_on_near_dft_grid(self):
        rng = np.random.default_rng(5)
        for trial in range(3):
            n = int(rng.integers(40, 80))
            wf = random_waveform(rng, n=n, dt=float(rng.uniform(0.5e-8, 2e-8)), rate=3e6)
            base = 2 * np.pi / wf.total_time
            idx = np.array([-3, 0, 2, 5, n // 2 + 3])
            idx_prime = np.array([-1, 1, 4])
            # within the DFT-grid tolerance of 1e-8 in index units, not bit-exact
            nudge = 5e-9 * np.maximum(1.0, np.abs(idx)) * np.where(idx % 2, 1, -1)
            got = higher_order_ff(wf, (idx + nudge) * base, idx_prime * base).values
            want = direct_gz(wf, idx * base, idx_prime * base)
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("idx, idx_prime", [([3, 5], [2]), ([-4, -1], [-3, -2])],
                             ids=["no zero", "negative only"])
    def test_gz_matches_direct_sum_on_half_grids(self, idx, idx_prime):
        # the columns b < 0 are reflected from b >= 0, with or without b = 0
        rng = np.random.default_rng(8)
        for trial in range(3):
            wf = random_waveform(rng, n=int(rng.integers(40, 80)), rate=3e6)
            base = 2 * np.pi / wf.total_time
            got = higher_order_ff(wf, np.array(idx) * base, np.array(idx_prime) * base).values
            want = direct_gz(wf, np.array(idx) * base, np.array(idx_prime) * base)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_gz_transforms_only_non_negative_columns(self, monkeypatch):
        from qnspect import filterfn

        calls = []
        transforms = filterfn._ordered_double_transforms

        def spy(theta, alphas, betas):
            calls.append((alphas, betas))
            return transforms(theta, alphas, betas)

        monkeypatch.setattr(filterfn, "_ordered_double_transforms", spy)
        wf = random_waveform(np.random.default_rng(9), n=50)
        base = 2 * np.pi / wf.total_time
        higher_order_ff(wf, np.arange(-3, 6) * base, np.array([0, 2]) * base)
        (alphas, betas), = calls
        assert np.array_equal(alphas, np.arange(-5, 6))
        assert np.array_equal(betas, np.arange(6))  # 6 columns for indices -3..5, not 9

    @pytest.mark.parametrize("index", [1e19, 2.0 ** 63])
    def test_gz_index_beyond_exact_integers_rejected(self, index):
        wf = random_waveform(np.random.default_rng(10), n=15)
        base = 2 * np.pi / wf.total_time
        with pytest.raises(GridError):
            higher_order_ff(wf, [index * base], [base])

    @pytest.mark.parametrize("rows, cols", [(np.arange(4100), [0]),
                                            (np.zeros(4097), np.zeros(4097))], ids=["W", "output"])
    def test_gz_over_cell_cap_rejected_before_transforms(self, monkeypatch, rows, cols):
        # W: 8199 x 4100 cells for 4100 x 1 frequencies; output: 4097^2 cells
        # of one repeated frequency, whose W is a single cell
        from qnspect import filterfn

        def no_transform(*args):
            raise AssertionError("double transform computed for a grid over the cap")

        monkeypatch.setattr(filterfn, "_ordered_double_transforms", no_transform)
        wf = random_waveform(np.random.default_rng(10), n=15)
        base = 2 * np.pi / wf.total_time
        with pytest.raises(GridError, match="cells"):
            higher_order_ff(wf, np.asarray(rows) * base, np.asarray(cols) * base)

    def test_gz_large_index_reads_its_aliased_bin(self):
        # 2^48 bins times j up to N - 1 = 39 999 would overflow int64 unreduced
        n = 40000
        wf = random_waveform(np.random.default_rng(12), n=n)
        base = 2 * np.pi / wf.total_time
        index = 2 ** 48 + 5
        got = higher_order_ff(wf, [index * base], [base]).values
        want = higher_order_ff(wf, [index % n * base], [base]).values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_csv_writers(tmp_path):
    wf = dephasing_robust(10e-6, 2, 1, 200)
    grid = np.linspace(0, 2 * np.pi * 1e6, 5)
    ff_to_csv(amplitude_ff(wf, grid), tmp_path / "ff.csv")
    lines = (tmp_path / "ff.csv").read_text().splitlines()
    assert lines[0] == "omega_rad_per_s,value"
    assert len(lines) == 6

    base = 2 * np.pi / wf.total_time
    gz = higher_order_ff(wf, [0.0, base], [0.0, base])
    higher_order_ff_to_csv(gz, tmp_path / "gz.csv")
    lines = (tmp_path / "gz.csv").read_text().splitlines()
    assert lines[0] == "omega,omega_prime,re,im"
    assert len(lines) == 5


def test_segment_integral_against_mpmath():
    from qnspect.filterfn import _segment_factor

    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    dt = 1e-8
    mags = [1e-10, 1e-8, 9.9e-8, 1e-7, 1.01e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
            0.1, 0.5, 1.0, 2.0, 3.0]
    u = np.array([0.0] + mags + [-m for m in mags]) / dt
    got, _ = _segment_factor(u, dt)
    for ui, value in zip(u, got):
        if ui == 0.0:
            want = mpmath.mpf(dt)
        else:
            # (e^{iu dt} - 1)/(iu), evaluated at 40 digits
            mu = mpmath.mpf(float(ui))
            want = (mpmath.exp(1j * mu * mpmath.mpf(dt)) - 1) / (1j * mu)
        assert float(abs(mpmath.mpc(value) - want)) <= 1e-15 * dt, ui * dt


def segment_integral_pair_mpmath(u, dt):
    """phi = int_0^dt e^{ius} ds and phi' = i int_0^dt s e^{ius} ds at 50 digits,
    from their closed forms (e^{iu dt} - 1)/(iu) and (dt e^{iu dt} - phi)/u."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        dt = mpmath.mpf(dt)
        if u == 0.0:
            return complex(dt), complex(0.5j * dt * dt)
        mu = mpmath.mpf(float(u))
        turn = mpmath.expj(mu * dt)
        phi = (turn - 1) / (1j * mu)
        return complex(phi), complex((dt * turn - phi) / mu)


def test_segment_integral_derivative_across_the_series_cut():
    # j1 switches from its Taylor series to (sin h - h cos h)/h^2 at |h| = cut;
    # dt is a power of two, so h = u dt/2 lands exactly on the cut and on its
    # neighbouring floats
    from qnspect.filterfn import _J1_SERIES_CUT, _segment_factor

    dt = 2.0 ** -22
    cut = _J1_SERIES_CUT
    hs = np.concatenate([[np.nextafter(cut, 0.0), cut, np.nextafter(cut, 2.0 * cut)],
                         np.linspace(0.5 * cut, 1.5 * cut, 201)])
    hs = np.concatenate([hs, -hs])
    u = 2.0 * hs / dt
    assert np.array_equal(0.5 * u * dt, hs)
    _, got = _segment_factor(u, dt)
    for ui, value in zip(u, got):
        _, want = segment_integral_pair_mpmath(ui, dt)
        assert abs(value - want) <= 2e-15 * abs(want), ui * dt / 2


def test_segment_integral_pair_matches_segment_integral():
    # both halves of the pair agree with mpmath from x = u dt = 0 to past the
    # series cut at x = 2, on both sides of x = 1e-7 and at every decade
    # from 1e-10 to 3 of both signs
    from qnspect.filterfn import _segment_factor

    dt = 1e-8
    mags = [1e-10, 1e-8, 9.9e-8, 1e-7, 1.01e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0,
            1.99, 1.999999, 2.0, 2.000001, 3.0, 8.0, 40.0]
    u = np.array([0.0] + mags + [-m for m in mags]) / dt
    phi, dphi = _segment_factor(u, dt)
    for ui, value, slope in zip(u, phi, dphi):
        want, want_slope = segment_integral_pair_mpmath(ui, dt)
        assert abs(value - want) <= 1e-15 * dt, ui * dt
        assert abs(slope - want_slope) <= 2e-15 * abs(want_slope), ui * dt


def test_segment_factor_bits_do_not_depend_on_branch_mix_or_order():
    # the quotient is formed only where |h| >= cut: an entry gets the same bits
    # in a mixed array as alone, every order repeats the lower orders' bits
    # (amplitude_ff reads order 0), and |u dt| up to 1e300 warns of nothing
    from qnspect.filterfn import _J1_SERIES_CUT, _segment_factor

    dt = 2.0 ** -22
    hs = np.array([0.0, 1e-9, -0.3, np.nextafter(_J1_SERIES_CUT, 0.0), _J1_SERIES_CUT,
                   -1.7, 40.0, 1e8 * dt, -1e8 * dt, 2e153, -7e160, 5e299])
    u = 2.0 * hs / dt
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixed = [_segment_factor(u, dt, order) for order in (0, 1, 2)]
        alone = [[_segment_factor(u[i:i + 1], dt, order) for i in range(u.size)]
                 for order in (0, 1, 2)]
    for order in (0, 1, 2):
        assert len(mixed[order]) == order + 1
        for k in range(order + 1):
            assert np.array_equal(mixed[order][k], mixed[2][k])
            assert np.array_equal(mixed[order][k],
                                  np.concatenate([row[k] for row in alone[order]]))
    assert np.all(np.isfinite(np.stack(mixed[2]).view(float)))


def test_csv_bytes_match_fstring_format(tmp_path):
    omegas = np.array([-3.5e7, -1e-300, 0.0, 5e-324, 1.0 / 3.0, 2.0 ** 60])
    values = np.array([0.0, -0.0, -1.2345678901234567e-20, 5e-324, -2.5e-310, 7.0e22])
    ff_to_csv(FilterFunctionGrid(omegas, values, 1e-4), tmp_path / "ff.csv")
    want = "omega_rad_per_s,value\n" + "".join(f"{w:.17g},{v:.17g}\n"
                                              for w, v in zip(omegas, values))
    assert (tmp_path / "ff.csv").read_bytes() == want.encode()

    gz = values[:, None] * (1.0 - 3e-17j) + 1j * values[::-1][None, :]
    gz[1, 2], gz[3, 0], gz[4, 3] = complex(np.nan, 1.0), complex(np.inf, -np.inf), np.nan
    special_omegas = np.concatenate([omegas, [np.nan, np.inf, -np.inf]])
    for rows, cols, block in [(omegas, omegas[:4], gz[:, :4]),
                              (omegas, special_omegas[-4:], gz[:, 2:]),
                              (special_omegas[-6:], omegas[1:], gz[:, 1:]),
                              (omegas, omegas[:0], gz[:, :0])]:
        higher_order_ff_to_csv(HigherOrderFFGrid(rows, cols, block, 1e-4), tmp_path / "gz.csv")
        want = "omega,omega_prime,re,im\n" + "".join(
            f"{w:.17g},{wp:.17g},{block[i, j].real:.17g},{block[i, j].imag:.17g}\n"
            for i, w in enumerate(rows) for j, wp in enumerate(cols))
        assert (tmp_path / "gz.csv").read_bytes() == want.encode()

    rows = np.column_stack([omegas, values, values[::-1]])
    constraints_to_csv(AffineConstraintSet(rows, np.arange(len(rows))), tmp_path / "rows.csv")
    want = "a_0,a_1,a_2\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    assert (tmp_path / "rows.csv").read_bytes() == want.encode()

    # the CLI's mixed tables: labels and int indices with str, floats with %.17g
    from qnspect._table import write_table

    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    table = [["dr", m, float(v), float(w)] for m, (v, w) in
             enumerate(zip(np.concatenate([values, specials]), np.concatenate([specials, omegas])))]
    table.append(["dpss", -(10 ** 20), np.float64(1.0 / 3.0), 2.0 ** 60])
    for rows in (table, table[:1], []):
        write_table(tmp_path / "table.csv", "family,m,x,y", rows)
        want = "family,m,x,y\n" + "".join(
            ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n"
            for row in rows)
        assert (tmp_path / "table.csv").read_bytes() == want.encode()
