"""Control waveform construction.

All controls are piecewise-constant amplitude waveforms Omega(t) on a
uniform grid: sample m holds on [m*dt, (m+1)*dt).  Three families matter
here:

* dephasing-robust sinusoids  Omega_0 * sin(lambda*t)  with lambda = 2*pi*M/T
  and Omega_0/lambda a root of the Bessel function J0, taken from
  ``scipy.special.jn_zeros`` (these null the DC component of the dephasing
  filter; the sampled amplitude carries a factor x/sin(x), x = lambda*dt/2,
  so the null survives the piecewise hold),
* sine-modulated Slepian (DPSS) envelopes, the standard spectrally
  concentrated probe, and
* free linear combinations of cosine/sine-modulated DPSS, the search space
  of the waveform optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from ._table import read_table, write_table
from .errors import ParameterError, _finite, _integer, _positive, _real
from .slepian import DpssSet, _tapers, dpss

__all__ = [
    "PiecewiseConstantWaveform",
    "WaveformCoefficients",
    "bessel_j0_roots",
    "root_index_for_peak_rate",
    "dephasing_robust",
    "modulated_dpss_waveform",
    "synthesize",
    "rotation_angle",
    "waveform_to_csv",
    "waveform_from_csv",
]

# net rotation below this fraction of the absolute-integral scale counts as zero
IDENTITY_RTOL = 1e-9


@dataclass(frozen=True)
class PiecewiseConstantWaveform:
    """Amplitude samples Omega_m (rad/s) held constant over segments of dt (s)."""

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        samples = _finite(self.samples, "waveform samples")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "dt", _positive(self.dt, "dt"))
        if samples.ndim != 1 or samples.size < 1:
            raise ParameterError("waveform needs at least one sample")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def total_time(self) -> float:
        return self.n * self.dt

    @property
    def net_rotation(self) -> float:
        """Total rotation angle dt * sum(Omega_m) in rad."""
        return self.dt * float(np.sum(self.samples))

    @property
    def identity_gate(self) -> bool:
        """True when the amplitude integrates to zero (net identity)."""
        scale = max(1.0, self.dt * float(np.sum(np.abs(self.samples))))
        return abs(self.net_rotation) < IDENTITY_RTOL * scale


@dataclass(frozen=True)
class WaveformCoefficients:
    """Amplitudes of the cosine/sine-modulated DPSS expansion.

    The synthesized waveform is
        Omega_m = sum_k [cos_coeffs[k]*cos(omega0*m*dt)
                         + sin_coeffs[k]*sin(omega0*m*dt)] * v_m^(k).
    """

    omega0: float
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(_finite(self.cos_coeffs, "cos_coeffs"))
        s = np.atleast_1d(_finite(self.sin_coeffs, "sin_coeffs"))
        object.__setattr__(self, "omega0", _real(self.omega0, "omega0"))
        object.__setattr__(self, "cos_coeffs", c)
        object.__setattr__(self, "sin_coeffs", s)
        if c.shape != s.shape or c.ndim != 1 or c.size < 1:
            raise ParameterError("cos/sin coefficient arrays must be 1-D and equal length")

    @property
    def num_orders(self) -> int:
        return self.cos_coeffs.size

    def as_vector(self) -> np.ndarray:
        """Stacked [cos_coeffs, sin_coeffs], the optimizer's variable layout."""
        return np.concatenate([self.cos_coeffs, self.sin_coeffs])

    @classmethod
    def from_vector(cls, omega0: float, x: np.ndarray) -> "WaveformCoefficients":
        x = _finite(x, "coefficient vector")
        if x.size % 2:
            raise ParameterError("coefficient vector must have even length 2K")
        k = x.size // 2
        return cls(omega0=omega0, cos_coeffs=x[:k], sin_coeffs=x[k:])


# ---------------------------------------------------------------------------
# Roots of J0
# ---------------------------------------------------------------------------


# jn_zeros takes 0.14-0.19 s for 2**16 roots (2-vCPU x86); paper scale uses about 160
_MAX_J0_ROOTS = 2 ** 16


def bessel_j0_roots(count: int) -> np.ndarray:
    """First ``count`` positive roots of J0, ascending (``scipy.special.jn_zeros``)."""
    count = _integer(count, "count", 1)
    if count > _MAX_J0_ROOTS:
        raise ParameterError(f"count must be at most {_MAX_J0_ROOTS}, got {count}")
    return special.jn_zeros(0, count)


def root_index_for_peak_rate(modulation_freq: float, target_rate: float) -> int:
    """1-based index of the J0 root with j * modulation_freq closest to target_rate.

    Used to sweep modulation frequency at (approximately) fixed peak Rabi
    rate: larger roots for smaller modulation frequencies.
    """
    modulation_freq = _positive(modulation_freq, "modulation_freq")
    target_rate = _positive(target_rate, "target_rate")
    # j_k is about pi (k - 1/4); Python floats reach inf here without a warning
    ratio = target_rate / (np.pi * modulation_freq) + 0.25
    if not ratio < _MAX_J0_ROOTS - 1:
        raise ParameterError(f"target_rate needs J0 root {ratio:.3g}, past {_MAX_J0_ROOTS}")
    guess = max(1, int(round(ratio)))
    candidates = bessel_j0_roots(guess + 1)
    errors = np.abs(candidates * modulation_freq - target_rate)
    return int(np.argmin(errors)) + 1


# ---------------------------------------------------------------------------
# Waveform families
# ---------------------------------------------------------------------------


def dephasing_robust(total_time: float, periods: int, root_index: int,
                     n_samples: int) -> PiecewiseConstantWaveform:
    """Discretized dephasing-robust waveform Omega_0 * sin(lambda * t).

    lambda = 2*pi*periods/total_time, sampled at the left endpoint of each
    segment (the first sample, at t=0, is zero).  The amplitude integrates
    to zero over the whole interval, so the control is a net identity.

    The amplitude is Omega_0 = lambda * j_{0,root_index} * x / sin(x) with
    x = lambda*dt/2, which tends to the continuous-time root condition as
    dt -> 0.  Holding each sample over its segment changes the DC transform
    int e^{i Theta} dt: the segment-midpoint phases follow the trapezoid sum
    of the samples, (Omega_0/lambda) x cot(x) (1 - cos lambda t), and each
    segment carries the weight sinc(Omega_m dt/2).  Together these act as a
    Bessel argument (Omega_0/lambda)(1 - x^2/6 + O(x^4)), so the plain
    Omega_0 = lambda*j0 would leave F_Z(0) ~ (T J1(j0) j0 x^2/6)^2.  The
    factor x/sin(x) = 1 + x^2/6 + O(x^4) cancels that shift and leaves a
    residual F_Z(0) of order x^8 T^2.

    Parameters
    ----------
    total_time : float
        Duration T in seconds.
    periods : int
        Number M of full sine periods; lambda = 2*pi*M/T.
    root_index : int
        1-based index of the J0 root setting Omega_0/lambda.
    n_samples : int
        Number N of piecewise-constant segments; dt = T/N.
    """
    n_samples, periods = _integer(n_samples, "n_samples"), _integer(periods, "periods", 1)
    root_index = _integer(root_index, "root_index", 1)
    total_time = _positive(total_time, "total_time")
    if n_samples < 2 * periods:
        raise ParameterError(
            f"need n_samples >= 2*periods to sample the modulation, got {n_samples} < {2 * periods}"
        )
    dt = total_time / n_samples
    lam = 2.0 * np.pi * periods / total_time
    x = 0.5 * lam * dt
    omega0 = lam * bessel_j0_roots(root_index)[-1] * x / np.sin(x)
    m = np.arange(n_samples)
    return PiecewiseConstantWaveform(samples=omega0 * np.sin(lam * m * dt), dt=dt)


def _whole_periods(modulation_freq: float, total_time: float, n: int) -> int:
    """M with modulation_freq = 2*pi*M/total_time (to 1e-9 M) and 1 <= M <= n/2.

    Then the sine closes over the waveform and n samples resolve it.  Any other
    value, including a NaN or overflowing period count, raises ParameterError.
    """
    cycles = float(modulation_freq) * total_time / (2.0 * np.pi)  # inf, unwarned, on overflow
    periods = round(cycles) if np.isfinite(cycles) else 0
    if not 1 <= periods <= n / 2 or abs(cycles - periods) > 1e-9 * periods:
        raise ParameterError(f"modulation_freq must be 2*pi*M/T for a whole number M of periods "
                             f"from 1 to N/2, got {cycles:.6g} periods in T = {total_time} s")
    return periods


def modulated_dpss_waveform(n: int, half_bandwidth: float, peak_rate: float,
                            modulation_freq: float, dt: float) -> PiecewiseConstantWaveform:
    """Sine-modulated order-0 Slepian waveform.

    Omega_m = peak_rate * v_m * sin(modulation_freq * m * dt) where v is the
    k=0 DPSS rescaled so its maximum element is 1 (peak_rate is then the
    literal peak Rabi rate, > 0).  modulation_freq must be 2*pi*M/T for a
    whole number M of periods from 1 to N/2 (_whole_periods).

    The envelope is sampled in the periodic convention (a length N+1
    symmetric sequence with the last point dropped), which has the exact
    index-reversal symmetry v_m = v_{N-m} for m >= 1.  Together with
    sin(lambda*m*dt) = -sin(lambda*(N-m)*dt) and the vanishing m = 0 sample
    this cancels the sum pairwise, so the net rotation is zero to roundoff
    and the control is a strict identity gate.  Before its own rescaling the
    envelope takes scipy's max-normalization and, at even M = N + 1, its
    factor M^2/(M^2 + NW), so the samples are those of
    ``scipy.signal.windows.dpss(N, N*W, sym=False)``, bit for bit.
    """
    n, half_bandwidth = _integer(n, "n"), _real(half_bandwidth, "half_bandwidth")
    peak_rate, dt = _positive(peak_rate, "peak_rate"), _positive(dt, "dt")
    modulation_freq = _real(modulation_freq, "modulation_freq")
    if not 1.0 <= n * half_bandwidth < n / 2:
        raise ParameterError(
            f"need a time-bandwidth product 1 <= N*W < N/2, got N*W = {n * half_bandwidth}")
    _whole_periods(modulation_freq, n * dt, n)
    nw, size = half_bandwidth * n, n + 1
    envelope = _tapers(size, nw, 1)[0]
    envelope /= envelope.max()
    if size % 2 == 0:
        envelope *= size ** 2 / float(size ** 2 + nw)
    envelope = envelope[:-1] / np.max(np.abs(envelope[:-1]))
    m = np.arange(n)
    return PiecewiseConstantWaveform(
        samples=peak_rate * envelope * np.sin(modulation_freq * m * dt), dt=dt
    )


def synthesize(coeffs: WaveformCoefficients, dpss_set: DpssSet,
               dt: float) -> PiecewiseConstantWaveform:
    """Waveform of the cosine/sine-modulated DPSS superposition."""
    if dpss_set.num_sequences < coeffs.num_orders:
        raise ParameterError(
            f"need {coeffs.num_orders} DPSS orders, set provides {dpss_set.num_sequences}"
        )
    basis = modulation_basis(dpss_set, coeffs.omega0, dt, coeffs.num_orders)
    return PiecewiseConstantWaveform(samples=basis @ coeffs.as_vector(), dt=dt)


def modulation_basis(dpss_set: DpssSet, omega0: float, dt: float,
                     num_orders: int) -> np.ndarray:
    """(N, 2K) matrix whose columns are cos- then sin-modulated DPSS, K = num_orders."""
    phase = _real(omega0, "omega0") * np.arange(dpss_set.n) * _positive(dt, "dt")
    v = dpss_set.sequences[:num_orders]
    cos_cols = v * np.cos(phase)[None, :]
    sin_cols = v * np.sin(phase)[None, :]
    return np.concatenate([cos_cols, sin_cols], axis=0).T


def rotation_angle(waveform: PiecewiseConstantWaveform) -> np.ndarray:
    """Accumulated rotation angle Theta at the N+1 segment boundaries.

    Theta_0 = 0 and Theta_{i+1} = Theta_i + dt * Omega_i (left-endpoint
    rule; Theta is the exact integral of the piecewise-constant amplitude).
    """
    theta = np.empty(waveform.n + 1)
    theta[0] = 0.0
    np.cumsum(waveform.samples * waveform.dt, out=theta[1:])
    return theta


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def waveform_to_csv(waveform: PiecewiseConstantWaveform, path, parameters: dict | None = None):
    """Write samples as CSV columns ``t_start_s, omega_rad_per_s``.

    Grid metadata and generator parameters go into ``#`` header comments.
    """
    comments = [("dt_s", repr(waveform.dt)), ("n_samples", waveform.n),
                *((key, repr(value)) for key, value in (parameters or {}).items())]
    table = np.column_stack([np.arange(waveform.n) * waveform.dt, waveform.samples])
    write_table(path, "t_start_s,omega_rad_per_s", table, comments)


def waveform_from_csv(path) -> PiecewiseConstantWaveform:
    """Read a waveform written by :func:`waveform_to_csv`."""
    comments, samples = read_table(path, ["omega_rad_per_s"])
    dt = _real(comments.get("dt_s"), f"the '# dt_s = ...' comment of {path}")
    return PiecewiseConstantWaveform(samples=samples[:, 0], dt=dt)
