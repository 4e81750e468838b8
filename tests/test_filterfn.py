import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from qnspect import (
    PiecewiseConstantWaveform,
    amplitude_ff,
    dephasing_ff,
    dephasing_ff_dc,
    dephasing_ff_periodic_oracle,
    dephasing_robust,
    higher_order_ff,
    modulated_dpss_waveform,
)
from qnspect.errors import GridError
from qnspect.filterfn import (
    FilterFunctionGrid,
    HigherOrderFFGrid,
    ff_to_csv,
    higher_order_ff_brute,
    higher_order_ff_to_csv,
)
from qnspect.lp_reduce import AffineConstraintSet, constraints_to_csv

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
        from qnspect.filterfn import _fejer

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
            assert np.abs(got_deph - want_deph).max() <= 1e-9 * want_deph.max()

    def test_path_selection(self):
        from qnspect.filterfn import _is_even_grid, _taylor_order

        assert _is_even_grid(np.linspace(0.0, 1e7, 1000), 1e-4)
        assert _is_even_grid(np.linspace(-1e7, -1e5, 7), 1e-4)
        assert not _is_even_grid(np.array([1e6]), 1e-4)
        assert not _is_even_grid(np.linspace(1e7, 0.0, 10), 1e-4)
        assert not _is_even_grid(np.array([0.0, 1e6, 2.5e6]), 1e-4)
        assert not _is_even_grid(np.array([0.0, np.nan, 2e6]), 1e-4)
        # the order is the first K with u_max^K/(K+1)! < 1e-17
        for u_max in (0.0, 0.15, 0.44, 0.99):
            k = _taylor_order(u_max)
            assert u_max**k / special.factorial(k + 1) < 1e-17
            assert k == 1 or u_max ** (k - 1) / special.factorial(k) >= 1e-17

    def test_dc_grid_point_of_dephasing_robust(self, dr_waveform):
        grid = np.linspace(0.0, 2 * np.pi * 2e6, 1000)
        fz = dephasing_ff(dr_waveform, grid).values
        assert fz[0] < 1e-12 * T * T

    @pytest.mark.parametrize("grid_name", ["ascending", "non-uniform"])
    def test_plan_matches_fourier_sums(self, grid_name):
        from qnspect.filterfn import _fourier_plan, _fourier_sums

        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, 300)) + 1j * rng.normal(size=(2, 300))
        omegas = FIRST_ORDER_GRIDS[grid_name](1e-8)
        plan = _fourier_plan(300, 1e-8, omegas)
        assert np.array_equal(plan(x), _fourier_sums(x, 1e-8, omegas))
        assert np.array_equal(plan(x[1]), _fourier_sums(x[1], 1e-8, omegas))

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
    from qnspect.filterfn import _segment_integral

    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    dt = 1e-8
    mags = [1e-10, 1e-8, 9.9e-8, 1e-7, 1.01e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
            0.1, 0.5, 1.0, 2.0, 3.0]
    u = np.array([0.0] + mags + [-m for m in mags]) / dt
    got = _segment_integral(u, dt)
    for ui, value in zip(u, got):
        if ui == 0.0:
            want = mpmath.mpf(dt)
        else:
            # (e^{iu dt} - 1)/(iu), evaluated at 40 digits
            mu = mpmath.mpf(float(ui))
            want = (mpmath.exp(1j * mu * mpmath.mpf(dt)) - 1) / (1j * mu)
        assert float(abs(mpmath.mpc(value) - want)) <= 1e-15 * dt, ui * dt


def test_csv_bytes_match_fstring_format(tmp_path):
    omegas = np.array([-3.5e7, -1e-300, 0.0, 5e-324, 1.0 / 3.0, 2.0 ** 60])
    values = np.array([0.0, -0.0, -1.2345678901234567e-20, 5e-324, -2.5e-310, 7.0e22])
    ff_to_csv(FilterFunctionGrid(omegas, values, 1e-4), tmp_path / "ff.csv")
    want = "omega_rad_per_s,value\n" + "".join(f"{w:.17g},{v:.17g}\n"
                                              for w, v in zip(omegas, values))
    assert (tmp_path / "ff.csv").read_bytes() == want.encode()

    gz = values[:, None] * (1.0 - 3e-17j) + 1j * values[::-1][None, :]
    higher_order_ff_to_csv(HigherOrderFFGrid(omegas, omegas[:4], gz[:, :4], 1e-4),
                           tmp_path / "gz.csv")
    want = "omega,omega_prime,re,im\n" + "".join(
        f"{w:.17g},{wp:.17g},{gz[i, j].real:.17g},{gz[i, j].imag:.17g}\n"
        for i, w in enumerate(omegas) for j, wp in enumerate(omegas[:4]))
    assert (tmp_path / "gz.csv").read_bytes() == want.encode()

    rows = np.column_stack([omegas, values, values[::-1]])
    constraints_to_csv(AffineConstraintSet(rows, np.arange(len(rows))), tmp_path / "rows.csv")
    want = "a_0,a_1,a_2\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    assert (tmp_path / "rows.csv").read_bytes() == want.encode()
