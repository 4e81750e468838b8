import numpy as np
import pytest
from scipy import special
from scipy.signal import windows

from qnspect import (
    PiecewiseConstantWaveform,
    WaveformCoefficients,
    bessel_j0_roots,
    dephasing_robust,
    dpss,
    modulated_dpss_waveform,
    root_index_for_peak_rate,
    rotation_angle,
    synthesize,
)
from qnspect.errors import ParameterError
from qnspect.waveform import _whole_periods, waveform_from_csv, waveform_to_csv


class TestBesselRoots:
    def test_first_three_rounded(self):
        r = bessel_j0_roots(3)
        assert np.allclose(np.round(r, 2), [2.40, 5.52, 8.65])

    def test_first_root_frozen(self):
        # frozen from an independent library evaluation of the J0 zero
        assert abs(bessel_j0_roots(1)[0] - 2.404825557695773) < 1e-10

    def test_against_library_oracle(self):
        assert np.abs(bessel_j0_roots(160) - special.jn_zeros(0, 160)).max() < 1e-10

    def test_asymptotic_spacing(self):
        r = bessel_j0_roots(60)
        assert abs((r[50] - r[49]) - np.pi) < 1e-3

    def test_count_validation(self):
        with pytest.raises(ParameterError):
            bessel_j0_roots(0)

    @pytest.mark.parametrize("count", [2.5, 3.0, True])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(ParameterError, match="must be an integer"):
            bessel_j0_roots(count)

    def test_count_cap(self):
        assert bessel_j0_roots(2 ** 16).size == 2 ** 16
        with pytest.raises(ParameterError, match="at most"):
            bessel_j0_roots(2 ** 16 + 1)


def test_root_index_for_peak_rate():
    lam = 2 * np.pi * 0.05e6
    idx = root_index_for_peak_rate(lam, 2 * np.pi * 5e6)
    roots = bessel_j0_roots(idx + 1)
    target = 2 * np.pi * 5e6
    # chosen root is at least as close as its neighbours
    assert abs(roots[idx - 1] * lam - target) <= abs(roots[idx - 2] * lam - target)
    assert abs(roots[idx - 1] * lam - target) <= abs(roots[idx] * lam - target)


@pytest.mark.parametrize("target_mhz, lam_mhz", [(1e6, 0.1), (1e9, 0.1), (1e300, 1e-300)])
def test_root_index_past_the_root_cap_is_rejected(target_mhz, lam_mhz, monkeypatch):
    from qnspect import waveform

    def no_roots(count):
        raise AssertionError(f"{count} J0 roots computed")

    monkeypatch.setattr(waveform, "bessel_j0_roots", no_roots)
    with pytest.raises(ParameterError, match="J0 root"):
        root_index_for_peak_rate(np.float64(2 * np.pi * lam_mhz * 1e6),
                                 np.float64(2 * np.pi * target_mhz * 1e6))


class TestDephasingRobust:
    def test_samples_and_amplitude(self):
        t, m, n = 100e-6, 10, 10000
        wf = dephasing_robust(t, m, 1, n)
        lam = 2 * np.pi * m / t
        j0 = 2.404825557695773
        # sampled amplitude: the continuous root condition times x/sin(x),
        # the factor that keeps F_Z(0) nulled under the piecewise hold
        x = lam * (t / n) / 2
        omega0 = lam * j0 * x / np.sin(x)
        grid = np.arange(n) * (t / n)
        assert np.allclose(wf.samples, omega0 * np.sin(lam * grid),
                           rtol=1e-9, atol=1e-10 * omega0)
        assert wf.samples[0] == 0.0
        # peak sample within one grid point of the sine crest
        assert np.abs(wf.samples).max() <= omega0 * (1 + 1e-9)
        assert np.abs(wf.samples).max() >= omega0 * np.cos(lam * wf.dt)
        # the correction vanishes as dt -> 0: (lambda dt)^2/24 to leading
        # order, with the next term of x/sin(x) - 1 below x^2 relative
        shift = wf.samples.max() / (lam * j0 * np.sin(lam * grid).max()) - 1
        assert 0.0 < shift <= (lam * wf.dt) ** 2 / 24 * (1 + x * x)

    def test_identity_gate_exact(self):
        for m, root, n in [(3, 1, 600), (10, 2, 4000), (20, 5, 2000)]:
            wf = dephasing_robust(50e-6, m, root, n)
            scale = wf.dt * np.abs(wf.samples).sum()
            assert abs(wf.net_rotation) < 1e-12 * scale
            assert wf.identity_gate

    def test_sweep_amplitude_tracking(self):
        # larger roots at smaller modulation frequencies keep the peak rate
        # pinned near the target
        target = 2 * np.pi * 5e6
        for lam_mhz in [0.05, 0.1, 0.5, 1.0, 2.0]:
            lam = 2 * np.pi * lam_mhz * 1e6
            idx = root_index_for_peak_rate(lam, target)
            omega0 = lam * bessel_j0_roots(idx)[-1]
            # nearest achievable rate is within half the ~pi*lam root spacing
            assert abs(omega0 - target) < 0.52 * np.pi * lam

    def test_validation(self):
        with pytest.raises(ParameterError):
            dephasing_robust(1e-4, 0, 1, 100)
        with pytest.raises(ParameterError):
            dephasing_robust(1e-4, 1, 0, 100)
        with pytest.raises(ParameterError):
            dephasing_robust(1e-4, 60, 1, 100)  # under-sampled modulation

    @pytest.mark.parametrize("args", [(10, 1, 100.5), (10, 1, 100.0), (10.0, 1, 100),
                                      (10, 1.5, 100), (10, True, 100)],
                             ids=["n_samples", "n_samples-float", "periods", "root_index",
                                  "root_index-bool"])
    def test_non_integer_counts_rejected(self, args):
        # 100.5 samples would give dt = T/100.5 and 101 samples, so total_time != T
        with pytest.raises(ParameterError, match="must be an integer"):
            dephasing_robust(1e-4, *args)


class TestWholePeriods:
    @pytest.mark.parametrize("periods", [1, 7, 1000])
    def test_returns_the_period_count_up_to_n_over_2(self, periods):
        total_time = 20e-6
        assert _whole_periods(2 * np.pi * periods / total_time, total_time, 2000) == periods

    # counts that overflow (a numpy scalar must not warn), are off a whole number
    # by 1e-8, or are past N/2
    @pytest.mark.parametrize("modulation_freq, total_time", [
        (1e300, 1e10), (np.float64(1e300), 1e10), (2 * np.pi * (7 + 1e-8) / 20e-6, 20e-6),
        (2 * np.pi * 1001 / 20e-6, 20e-6)])
    def test_rejects_counts_that_are_not_whole_periods_in_range(self, modulation_freq,
                                                                 total_time):
        with pytest.raises(ParameterError, match="whole number M of periods"):
            _whole_periods(modulation_freq, total_time, 2000)


class TestModulatedDpss:
    def test_net_rotation_zero(self):
        wf = modulated_dpss_waveform(4000, 1.0 / 4000, 2 * np.pi * 5e6,
                                     2 * np.pi * 5 / 40e-6, 10e-9)
        assert wf.identity_gate
        assert wf.samples[0] == 0.0

    def test_peak_rate_bound(self):
        amp = 2 * np.pi * 5e6
        wf = modulated_dpss_waveform(10000, 1.0 / 10000, amp, 2 * np.pi * 0.1e6, 10e-9)
        assert np.abs(wf.samples).max() <= amp * (1 + 1e-12)

    def test_rejects_incommensurate_modulation(self):
        with pytest.raises(ParameterError):
            modulated_dpss_waveform(1000, 1.0 / 1000, 1e6, 2 * np.pi * 0.123e6 * 1.0371,
                                    10e-9)

    # 0, -3, 2.5 and 1001 periods in T = 20 us at N = 2000, and a NaN or infinite frequency
    @pytest.mark.parametrize("modulation_freq", [0.0, -2 * np.pi * 3 / 20e-6,
                                                 2 * np.pi * 2.5 / 20e-6,
                                                 2 * np.pi * 1001 / 20e-6, np.nan, np.inf])
    def test_rejects_modulation_without_whole_periods(self, modulation_freq):
        with pytest.raises(ParameterError, match="modulation_freq must be"):
            modulated_dpss_waveform(2000, 1.0 / 2000, 1e6, modulation_freq, 10e-9)

    @pytest.mark.parametrize("peak_rate", [0.0, -1e6, np.nan])
    def test_rejects_a_peak_rate_that_is_not_positive(self, peak_rate):
        with pytest.raises(ParameterError, match="peak_rate"):
            modulated_dpss_waveform(2000, 1.0 / 2000, peak_rate, 2 * np.pi * 5 / 20e-6, 10e-9)

    def test_rejects_small_time_bandwidth(self):
        with pytest.raises(ParameterError):
            modulated_dpss_waveform(1000, 0.5 / 1000, 1e6, 2 * np.pi * 1e5, 10e-9)


    @pytest.mark.parametrize("n", [2000, 999])
    def test_matches_scipy_signal_periodic_dpss_bitwise(self, n):
        dt, amp = 10e-9, 2 * np.pi * 5e6
        lam = 2 * np.pi * 3 / (n * dt)
        envelope = windows.dpss(n, (1.0 / n) * n, sym=False)
        want = amp * (envelope / np.max(np.abs(envelope))) * np.sin(lam * np.arange(n) * dt)
        got = modulated_dpss_waveform(n, 1.0 / n, amp, lam, dt).samples
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2000.0, True, "2000"])
    def test_rejects_non_integer_length(self, n):
        with pytest.raises(ParameterError, match="must be an integer"):
            modulated_dpss_waveform(n, 1.0 / 2000, 1e6, 2 * np.pi * 5 / 20e-6, 10e-9)


class TestSynthesize:
    def setup_method(self):
        self.n, self.dt = 2000, 10e-9
        self.ds = dpss(self.n, 1.0 / self.n, 3)
        self.omega0 = 2 * np.pi * 2 / (self.n * self.dt)

    def test_zero_coefficients(self):
        coeffs = WaveformCoefficients(self.omega0, np.zeros(3), np.zeros(3))
        wf = synthesize(coeffs, self.ds, self.dt)
        assert np.all(wf.samples == 0.0)

    def test_single_sine_term_matches_definition(self):
        amp = 1e6
        coeffs = WaveformCoefficients(self.omega0, [0.0], [amp])
        wf = synthesize(coeffs, self.ds, self.dt)
        grid = np.arange(self.n) * self.dt
        expected = amp * np.sin(self.omega0 * grid) * self.ds.sequences[0]
        assert np.allclose(wf.samples, expected, atol=1e-12 * amp)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        xa, xb = rng.normal(size=6), rng.normal(size=6)
        ca = WaveformCoefficients.from_vector(self.omega0, xa)
        cb = WaveformCoefficients.from_vector(self.omega0, xb)
        cab = WaveformCoefficients.from_vector(self.omega0, 2.0 * xa - 0.5 * xb)
        wa = synthesize(ca, self.ds, self.dt).samples
        wb = synthesize(cb, self.ds, self.dt).samples
        wab = synthesize(cab, self.ds, self.dt).samples
        assert np.allclose(wab, 2.0 * wa - 0.5 * wb, atol=1e-9)

    def test_dimension_mismatch(self):
        coeffs = WaveformCoefficients(self.omega0, np.zeros(5), np.zeros(5))
        with pytest.raises(ParameterError):
            synthesize(coeffs, self.ds, self.dt)


@pytest.mark.parametrize("samples, dt", [
    ([0.0, np.nan, 1.0], 1e-8),
    ([0.0, np.inf, 1.0], 1e-8),
    ([0.0, -np.inf, 1.0], 1e-8),
    ([0.0, 1.0], np.nan),
    ([0.0, 1.0], np.inf),
])
def test_rejects_non_finite(samples, dt):
    with pytest.raises(ParameterError):
        PiecewiseConstantWaveform(np.asarray(samples), dt)


class TestRotationAngle:
    def test_zero_waveform(self):
        wf = PiecewiseConstantWaveform(np.zeros(64), 1e-8)
        assert np.all(rotation_angle(wf) == 0.0)

    def test_constant_rate_ramp(self):
        wf = PiecewiseConstantWaveform(np.full(64, 2.0e6), 1e-8)
        theta = rotation_angle(wf)
        assert np.allclose(theta, 2.0e6 * 1e-8 * np.arange(65), rtol=1e-12)

    def test_continuous_limit(self):
        # Theta(t) -> (Omega0/lambda)(1 - cos lambda t) as dt -> 0
        t, m, n = 100e-6, 10, 20000
        wf = dephasing_robust(t, m, 1, n)
        lam = 2 * np.pi * m / t
        omega0 = lam * 2.404825557695773
        theta = rotation_angle(wf)
        grid = np.arange(n + 1) * wf.dt
        exact = omega0 / lam * (1 - np.cos(lam * grid))
        assert np.abs(theta - exact).max() < omega0 * wf.dt  # O(dt)


def test_csv_round_trip(tmp_path):
    wf = dephasing_robust(20e-6, 4, 1, 500)
    path = tmp_path / "wf.csv"
    waveform_to_csv(wf, path, {"family": "dr", "root": 1})
    back = waveform_from_csv(path)
    assert back.dt == wf.dt
    assert np.array_equal(back.samples, wf.samples)
    text = path.read_text()
    assert text.splitlines()[0].startswith("# dt_s")
    assert "t_start_s,omega_rad_per_s" in text


def test_csv_reads_dt_from_its_own_comment_only(tmp_path):
    wf = dephasing_robust(20e-6, 4, 1, 500)
    path = tmp_path / "wf.csv"
    waveform_to_csv(wf, path, {"note_dt_s": "x=1"})
    back = waveform_from_csv(path)
    assert back.dt == wf.dt
    assert np.array_equal(back.samples, wf.samples)


@pytest.mark.parametrize("body", [None, "", "# dt_s = 1e-08\nt_start_s,omega_rad_per_s\n0,abc\n",
                                  "# dt_s = 1e-08\nt_start_s,omega_rad_per_s\n0,1,2\n",
                                  "# dt_s = soon\nt_start_s,omega_rad_per_s\n0,1\n",
                                  "t_start_s,omega_rad_per_s\n0,1\n"],
                         ids=["missing", "empty", "non-numeric", "long-row", "bad-dt", "no-dt"])
def test_malformed_csv_is_a_parameter_error(tmp_path, body):
    path = tmp_path / "wf.csv"
    if body is not None:
        path.write_text(body)
    with pytest.raises(ParameterError):
        waveform_from_csv(path)


@pytest.mark.parametrize("n, block_rows", [(7, 3), ((1 << 14) + 5, None)])
def test_csv_bytes_match_fstring_format(tmp_path, monkeypatch, n, block_rows):
    from qnspect import _table

    if block_rows is not None:  # blocks of 3, 3 and 1 rows
        monkeypatch.setattr(_table, "_BLOCK_ROWS", block_rows)
    samples = np.random.default_rng(2).normal(0.0, 3e6, n)
    samples[:4] = [-0.0, 5e-324, -2.5e-310, 1.0 / 3.0]
    wf = PiecewiseConstantWaveform(samples, 1e-8 / 3.0)
    waveform_to_csv(wf, tmp_path / "wf.csv", {"family": "dr"})
    want = (f"# dt_s = {wf.dt!r}\n# n_samples = {n}\n# family = 'dr'\n"
            "t_start_s,omega_rad_per_s\n"
            + "".join(f"{m * wf.dt:.17g},{omega:.17g}\n" for m, omega in enumerate(samples)))
    assert (tmp_path / "wf.csv").read_bytes() == want.encode()
