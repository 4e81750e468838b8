"""First- and higher-order control filter functions.

For a piecewise-constant amplitude waveform with rotation angle
Theta(t) = integral of Omega, the first-order filter functions are

    F_Omega(w, T) = (1/4) |int_0^T e^{iwt} Omega(t) dt|^2        (rad^2 s^2)
    F_Z(w, T)     = |int e^{iwt} sin Theta|^2 + |int e^{iwt} cos Theta|^2  (s^2)

Both time integrals are evaluated segment-exactly: Omega is constant and
Theta is linear on each segment, so every segment contributes a closed-form
integral and the quadrature carries no O(dt) rectangle bias.  This matters
because the analytic oracles (the Lorentzian-squared amplitude filter of the
sinusoidal waveforms, and the Fejer-comb dephasing filter) are continuous-
time results that the sampled waveform must reproduce at the 1% level.

Every transform reduces to Fourier sums over the N segment start times,
S(w) = sum_m x_m e^{i w m dt}, and one kernel evaluates them.  Its path
follows from the frequency grid alone:

* a strictly increasing, evenly spaced grid of at least two points: the
  chirp-z transform on the unit circle (Rabiner, Schafer & Rader 1969) by
  Bluestein's convolution, O((N + M) log(N + M)) for M points.  The private
  ``_zoom_fft`` builds it on ``scipy.fft`` and reproduces
  ``scipy.signal.ZoomFFT(N, [f1, f2], M, fs=1, endpoint=True)`` bit for bit;
* an uneven increasing grid or a single point: the direct sum, one
  frequency at a time.

F_Omega is S of the samples times the segment factor
phi(w) = int_0^dt e^{iws} ds = (e^{iw dt} - 1)/(iw).

F_Z needs I_pm(w) = sum_m e^{iwt_m} e^{+-i Th_m} phi(w +- Omega_m), whose
segment factor couples frequency and sample.  Written as an integral over
the position s in the segment,

    I_pm(w) = int_0^dt e^{iws} S[e^{+-i(Th + Omega s)}](w) ds,

it is a Gauss-Legendre sum over s, 8 nodes per pi of
u_max = (max|w| + max|Omega|) dt, with one Fourier sum per node and sign;
the integrand is smooth in s and the node count grows with u_max, so the sum
stays at the rounding level on every grid.
F_Z(0) (:func:`dephasing_ff_dc`) is the closed form
|sum_m e^{i Th_m} phi(Omega_m)|^2.

The higher-order dephasing filter G_Z(w, w', T) is a quadruple time integral
of sin[Theta(t1)-Theta(t2)] sin[Theta(t3)-Theta(t4)] against three exponential
pairings.  Expanding the sines factorizes every term into products of the
double transform

    W(a, b) = dt^2 sum_{j1} sin(Th_j1) e^{i a t_j1} sum_{j2<=j1} cos(Th_j2) e^{i b t_j2}
              - (sin <-> cos).

Its frequencies lie on the DFT grid 2*pi*j/(N*dt), so each column b costs
one set of prefix sums over j2 and one length-N FFT over j1, which yields
every row a at once.  The sin and cos factors are real, so
W(a, -b) = conj W(-a, b): only the columns b >= 0 are transformed, and the
negative ones are those read with rows and columns reversed.  G_Z
deliberately uses the plain left-endpoint Riemann convention so that the
brute-force quadruple sum of the test suite reproduces it exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft, next_fast_len

from ._table import write_table
from .errors import GridError, ParameterError, UndefinedRatioError, _finite, _positive, _real
from .waveform import PiecewiseConstantWaveform, rotation_angle

__all__ = [
    "FilterFunctionGrid",
    "HigherOrderFFGrid",
    "amplitude_ff",
    "amplitude_ff_integral",
    "dephasing_ff",
    "dephasing_ff_dc",
    "higher_order_ff",
    "spectral_concentration",
    "ff_to_csv",
    "higher_order_ff_to_csv",
]

# largest phase (rad) by which a grid point may miss the evenly spaced
# frequency the chirp-z transform evaluates in its place
_GRID_PHASE_TOL = 1e-10
# amplitude_ff_integral and _exp_theta_transforms work in blocks of about
# this many cells: rows of the autocorrelation and lags of the kernel of the
# one, Gauss-Legendre nodes of the other
_BLOCK_CELLS = 1 << 18
# most Gauss-Legendre nodes across a segment, and the DFT bin that G_Z
# frequencies must lie below (from 2^53 on a float index names no one integer)
_MAX_NODES = 1 << 10
_MAX_DFT_BIN = 2.0 ** 53
# most cells of G_Z's double transform W and of its output grid: 256 MiB of
# complex W, where a grid of 2 x 10^4 frequencies would need 12.8 GB
_MAX_GZ_CELLS = 1 << 24


@dataclass(frozen=True)
class FilterFunctionGrid:
    """A first-order filter function sampled on a frequency grid."""

    omegas: np.ndarray
    values: np.ndarray
    total_time: float

    def __post_init__(self):
        omegas = _finite(self.omegas, "frequencies")
        values = _finite(self.values, "filter values")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "values", values)
        if omegas.shape != values.shape or omegas.ndim != 1:
            raise ParameterError("omega and value grids must be 1-D and congruent")
        _increasing(omegas)


@dataclass(frozen=True)
class HigherOrderFFGrid:
    """G_Z(w, w', T) on the tensor grid omegas x omegas_prime (complex, s^4)."""

    omegas: np.ndarray
    omegas_prime: np.ndarray
    values: np.ndarray
    total_time: float


# below this |h| the spherical Bessel j1(h) is summed as its Taylor series
_J1_SERIES_CUT = 1.0
# 1/(k! (2k+3)!!) for k = 0..7: j1(h) = h sum_k (-h^2/2)^k / (k! (2k+3)!!)
_J1_SERIES = tuple(1.0 / (math.factorial(k) * math.prod(range(3, 2 * k + 4, 2)))
                   for k in range(8))


def _segment_factor(u: np.ndarray, dt: float, order: int = 1):
    """phi(u) = int_0^dt e^{i u s} ds and its first ``order`` (0 to 2) u-derivatives.

    All of them come from one sin/cos pair of h = u dt/2.  phi = dt e^{ih} sinc h,
    accurate to rounding from h = 0 upward, phi' = i int_0^dt s e^{ius} ds =
    (dt^2/2) e^{ih} (i sinc h - j1(h)) and phi'' = -int_0^dt s^2 e^{ius} ds =
    -(dt^3/2) e^{ih} (sinc h - j1(h)/h + i j1(h)), where j1(h) = (sin h -
    h cos h)/h^2 is the spherical Bessel function of order 1.  That quotient
    cancels as h -> 0 (both terms approach h, their difference is h^3/3),
    losing about log10(3/h^2) digits, so below |h| = _J1_SERIES_CUT j1(h)/h is
    its Taylor series through k = 7 by Horner's rule: at the cut the quotient
    has lost under one digit, and the first omitted term is 5e-16 of j1(1).
    The quotient is formed only on the entries at or above the cut.
    """
    h = 0.5 * np.asarray(u, dtype=float) * dt
    sin, cos = np.sin(h), np.cos(h)
    sinc = np.divide(sin, h, out=np.ones_like(h), where=h != 0.0)
    rot = cos + 1j * sin
    factors = (dt * sinc * rot,)
    if order == 0:
        return factors
    wide = np.abs(h) >= _J1_SERIES_CUT
    narrow = np.where(wide, 0.0, h)
    j1_over_h = _J1_SERIES[-1]
    square = -0.5 * narrow * narrow
    for coefficient in _J1_SERIES[-2::-1]:
        j1_over_h = j1_over_h * square + coefficient
    j1 = j1_over_h * h
    if wide.any():
        h_wide = h[wide]
        with np.errstate(over="ignore"):  # h^2 overflows from |h| ~ 1e154 on, where j1 -> 0
            j1[wide] = (sin[wide] - h_wide * cos[wide]) / (h_wide * h_wide)
        j1_over_h[wide] = j1[wide] / h_wide
    factors += (0.5 * dt * dt * rot * (1j * sinc - j1),)
    if order == 2:
        factors += (-0.5 * dt ** 3 * rot * (sinc - j1_over_h + 1j * j1),)
    return factors


def _exp_theta_segments(theta: np.ndarray, samples: np.ndarray, dt: float, order: int):
    """e^{i Th_m} phi(Omega_m) = int of e^{i Theta} over segment m, and its first
    ``order`` Omega_m-derivatives."""
    rot = np.exp(1j * theta)
    return tuple(rot * factor for factor in _segment_factor(samples, dt, order))


def _is_even_grid(omegas: np.ndarray, total_time: float) -> bool:
    """True for >= 2 strictly increasing, evenly spaced points.

    Evenly spaced means every point lies within _GRID_PHASE_TOL / total_time
    of the line through the end points; NaN or inf points never qualify.
    """
    if omegas.size < 2:
        return False
    step = (omegas[-1] - omegas[0]) / (omegas.size - 1)
    if not step > 0.0:
        return False
    line = omegas[0] + step * np.arange(omegas.size)
    return bool(np.max(np.abs(omegas - line)) * total_time <= _GRID_PHASE_TOL)


def _zoom_fft(x: np.ndarray, f1: float, f2: float, m: int) -> np.ndarray:
    """Y[..., k] = sum_j x[..., j] e^{-2 pi i f_k j}, f_k = f1 + k (f2 - f1)/(m - 1).

    Bluestein's chirp-z transform over the last axis of x for m >= 2 points:
    with the chirp wk2[k] = e^{-i pi (f2 - f1) m/(m - 1) k^2/m}, it is one
    circular convolution of x e^{-2 pi i f1 j} wk2[j] with 1/wk2 by FFTs of
    length next_fast_len(n + m - 1), read at [n - 1, n + m - 1) and times
    wk2.  The same arithmetic as ``scipy.signal.ZoomFFT(n, [f1, f2], m, fs=1,
    endpoint=True)(x)``.
    """
    n = x.shape[-1]
    k = np.arange(max(m, n), dtype=np.min_scalar_type(-max(m, n) ** 2))
    scale = ((f2 - f1) * m) / (m - 1)
    wk2 = np.exp(-(1j * np.pi * scale * k ** 2) / m)
    awk2 = np.exp(-2j * np.pi * f1 * k[:n]) * wk2[:n]
    nfft = next_fast_len(n + m - 1)
    fwk2 = fft(1 / np.hstack((wk2[n - 1:0:-1], wk2[:m])), nfft)
    return ifft(fwk2 * fft(x * awk2, nfft))[..., n - 1:n + m - 1] * wk2[:m]


def _fourier_sums(x: np.ndarray, dt: float, omegas: np.ndarray) -> np.ndarray:
    """S[..., k] = sum_m x[..., m] e^{i omegas[k] m dt}, over the last axis of x.

    A chirp-z transform on an even grid, the direct sum one frequency at a
    time on any other.
    """
    n = x.shape[-1]
    if _is_even_grid(omegas, n * dt):
        # the zoom FFT sums x_m e^{-2 pi i f m} on an even grid of f (cycles
        # per sample); f = -w dt/(2 pi) turns that into e^{+i w m dt}
        cycles = -dt / (2.0 * np.pi)
        return _zoom_fft(x, omegas[0] * cycles, omegas[-1] * cycles, omegas.size)
    t = np.arange(n) * dt
    out = np.empty(x.shape[:-1] + omegas.shape, dtype=complex)
    for k, w in enumerate(omegas):
        out[..., k] = x @ np.exp(1j * w * t)
    return out


@functools.lru_cache(maxsize=32)
def _gauss_legendre(order: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per order."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _segment_nodes(phase: float):
    """Gauss-Legendre nodes and weights, 8 per pi of ``phase`` rad, from 8 to _MAX_NODES."""
    periods = max(1.0, np.ceil(phase / np.pi))
    if not 8.0 * periods <= _MAX_NODES:
        raise GridError(f"a segment spans {phase:.3g} rad: over {_MAX_NODES} quadrature nodes")
    return _gauss_legendre(8 * int(periods))


def _frequencies(omegas) -> np.ndarray:
    """Angular frequencies as a finite 1-D float array; a scalar becomes one point."""
    omegas = np.atleast_1d(_finite(omegas, "frequencies"))
    if omegas.ndim > 1:
        raise ParameterError("frequencies must be a scalar or a 1-D array")
    return omegas


def _increasing(omegas: np.ndarray) -> np.ndarray:
    """The grid of a first-order filter function, or GridError unless strictly increasing."""
    if omegas.size > 1 and not np.all(np.diff(omegas) > 0):
        raise GridError("frequency grid must be strictly increasing")
    return omegas


def amplitude_ff(waveform: PiecewiseConstantWaveform, omegas) -> FilterFunctionGrid:
    """Amplitude filter function F_Omega on a strictly increasing angular-frequency grid."""
    omegas = _increasing(_frequencies(omegas))
    transform = (_fourier_sums(waveform.samples, waveform.dt, omegas)
                 * _segment_factor(omegas, waveform.dt, order=0)[0])
    values = 0.25 * np.abs(transform) ** 2
    return FilterFunctionGrid(omegas=omegas, values=values, total_time=waveform.total_time)


def amplitude_ff_integral(samples, dt: float, edges) -> np.ndarray:
    """int_0^e F_Omega dw, exactly, for each row of ``samples`` and each edge e.

    With the autocorrelation r_k = sum_m Omega_m Omega_{m+k} (one zero-padded
    rfft/irfft pair), the integral is (1/4) sum_{|k|<N} r_k c_k(e), where
    c_k(e) = int_{-dt}^{dt} (dt - |s|) sin(e(k dt + s))/(k dt + s) ds.  Pairing s
    with -s, c_k(e) = sin(tau e) A1 cos(s e) - cos(tau e) A2 sin(s e), tau = k dt:
    a Gauss-Legendre sum over 0 < s_j < dt (8 nodes per pi of max|e| dt) with
    tau^2 - s_j^2 > 0 in its weights.  Rows are autocorrelated, and the kernel
    built and applied over lags, in blocks of about _BLOCK_CELLS cells, which
    bounds the temporaries of a large stack.  Returns shape
    samples.shape[:-1] + (E,).
    """
    samples, dt = _finite(samples, "samples"), _positive(dt, "dt")
    if samples.ndim == 0 or samples.shape[-1] == 0:
        raise ParameterError("samples need at least one entry along the last axis")
    edges = np.atleast_1d(_finite(edges, "band edges"))
    n = samples.shape[-1]
    rows = samples.reshape(-1, n)
    lags = np.empty(rows.shape)
    step = max(1, _BLOCK_CELLS // (2 * n))
    for start in range(0, len(rows), step):
        spectra = np.fft.rfft(rows[start:start + step], 2 * n)
        lags[start:start + step] = np.fft.irfft(np.abs(spectra) ** 2, 2 * n)[:, :n]
    lags = lags.reshape(samples.shape)
    lags[..., 1:] *= 2.0  # r_{-k} = r_k and c_{-k} = c_k
    nodes, weights = _segment_nodes(np.max(np.abs(edges), initial=0.0) * dt)
    s = 0.5 * dt * (nodes + 1.0)
    cos_se, sin_se = np.cos(np.outer(s, edges)), np.sin(np.outer(s, edges))
    out = np.zeros(samples.shape[:-1] + edges.shape)
    step = max(1, _BLOCK_CELLS // max(1, edges.size))
    for start in range(0, n, step):
        tau = np.arange(start, min(start + step, n))[:, None] * dt
        scale = dt * weights * (dt - s) / (tau ** 2 - s ** 2)
        phase = tau * edges
        kernel = np.sin(phase) * ((tau * scale) @ cos_se)
        kernel -= np.cos(phase, out=phase) * ((s * scale) @ sin_se)
        out += lags[..., start:start + step] @ kernel
    return 0.25 * out


def spectral_concentration(waveform: PiecewiseConstantWaveform, band_center: float,
                           band_halfwidth: float) -> float:
    """Fraction of a waveform's amplitude-filter weight inside a band.

    Computes R = integral of F_Omega over the band, divided by the integral
    over the whole real line.  Because the waveform is real, F_Omega is even
    and the band is counted together with its mirror image at negative
    frequencies (the union of the two intervals, so the full real line still
    gives R = 1).  The denominator is evaluated by Parseval's theorem on the
    time-domain samples,

        integral F_Omega d omega = (pi/2) * dt * sum |Omega_m|^2,

    which avoids truncating an infinite frequency integral.  The numerator
    is exact: one :func:`amplitude_ff_integral` call at the two band edges on
    the positive half line.

    Parameters
    ----------
    waveform : PiecewiseConstantWaveform
    band_center, band_halfwidth : float
        The band [center - halfwidth, center + halfwidth] in rad/s; the
        center must be finite.  ``band_halfwidth = inf`` denotes the entire
        real line.

    Returns
    -------
    float in [0, 1]
    """
    power = float(np.sum(np.square(waveform.samples)))
    if power == 0.0:
        raise UndefinedRatioError("spectral concentration is undefined for a zero waveform")
    band_center = _real(band_center, "band_center")
    if band_halfwidth == np.inf:
        return 1.0
    band_halfwidth = _positive(band_halfwidth, "band_halfwidth")

    denominator = 0.5 * np.pi * waveform.dt * power
    lo = band_center - band_halfwidth
    hi = band_center + band_halfwidth
    # union with the mirror band; reduce to the positive half line (F even)
    edges = [0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi)), max(abs(lo), abs(hi))]
    below, above = amplitude_ff_integral(waveform.samples, waveform.dt, edges)
    numerator = 2.0 * (above - below)  # both signs of omega
    return float(np.clip(numerator / denominator, 0.0, 1.0))


def _exp_theta_transforms(waveform: PiecewiseConstantWaveform, omegas: np.ndarray):
    """Segment-exact transforms of e^{+i Theta} and e^{-i Theta}.

    Returns (I_plus, I_minus) with
        I_pm(w) = int_0^T e^{iwt} e^{+-i Theta(t)} dt
                = int_0^dt e^{iws} sum_m e^{iwt_m} e^{+-i(Th_m + Omega_m s)} ds,
    the integral over s a Gauss-Legendre sum with 8 nodes per pi of
    u_max = (max|w| + max|Omega|) dt.  The Fourier sums of the e^{+i(.)} and
    e^{-i(.)} rows are taken for blocks of nodes of about _BLOCK_CELLS cells.
    """
    dt, n = waveform.dt, waveform.n
    u_max = (np.max(np.abs(omegas), initial=0.0) + np.max(np.abs(waveform.samples))) * dt
    nodes, weights = _segment_nodes(u_max)
    s = 0.5 * dt * (nodes + 1.0)
    theta = rotation_angle(waveform)[:-1]
    i_plus = np.zeros(omegas.shape, dtype=complex)
    i_minus = np.zeros(omegas.shape, dtype=complex)
    step = max(1, _BLOCK_CELLS // (2 * n))
    for start in range(0, s.size, step):
        block = s[start:start + step, None]
        rot = np.exp(1j * (theta + waveform.samples * block))
        sums = _fourier_sums(np.concatenate([rot, np.conj(rot)]), dt, omegas)
        scale = (0.5 * dt) * weights[start:start + step, None] * np.exp(1j * block * omegas)
        i_plus += np.sum(scale * sums[:len(block)], axis=0)
        i_minus += np.sum(scale * sums[len(block):], axis=0)
    return i_plus, i_minus


def dephasing_ff(waveform: PiecewiseConstantWaveform, omegas) -> FilterFunctionGrid:
    """Dephasing filter function F_Z on a strictly increasing angular-frequency grid."""
    omegas = _increasing(_frequencies(omegas))
    i_plus, i_minus = _exp_theta_transforms(waveform, omegas)
    cos_tr = 0.5 * (i_plus + i_minus)
    sin_tr = (i_plus - i_minus) / 2j
    values = np.abs(cos_tr) ** 2 + np.abs(sin_tr) ** 2
    return FilterFunctionGrid(omegas=omegas, values=values, total_time=waveform.total_time)


def dephasing_ff_dc(waveform: PiecewiseConstantWaveform) -> float:
    """F_Z(0, T) = |int_0^T e^{i Theta(t)} dt|^2, segment-exact."""
    segments, = _exp_theta_segments(rotation_angle(waveform)[:-1], waveform.samples,
                                    waveform.dt, order=0)
    return float(np.abs(np.sum(segments)) ** 2)


# ---------------------------------------------------------------------------
# Higher-order filter function G_Z
# ---------------------------------------------------------------------------


def _check_dft_grid(omegas: np.ndarray, waveform: PiecewiseConstantWaveform) -> np.ndarray:
    """Angular frequencies must be integer multiples of 2*pi/(N*dt), below _MAX_DFT_BIN."""
    base = 2.0 * np.pi / (waveform.n * waveform.dt)
    idx = omegas / base
    rounded = np.round(idx)
    if np.any(np.abs(idx - rounded) > 1e-8 * np.maximum(1.0, np.abs(idx))):
        raise GridError(
            "higher-order FF frequencies must be integer multiples of 2*pi/(N*dt)"
        )
    if np.any(np.abs(rounded) >= _MAX_DFT_BIN):
        raise GridError("higher-order FF frequencies must lie below 2^53 DFT bins")
    return rounded.astype(int)


def _ordered_sines(sin_t: np.ndarray, cos_t: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_{l<=i} sin(Th_i - Th_l) w_l for every i (last axis), from two prefix sums."""
    return (sin_t * np.cumsum(cos_t * weights, axis=-1)
            - cos_t * np.cumsum(sin_t * weights, axis=-1))


def _ordered_double_transforms(theta: np.ndarray, alphas: np.ndarray,
                               betas: np.ndarray) -> np.ndarray:
    """W[a, b] / dt^2 at integer DFT indices a (rows) and b (columns).

    W[a, b] / dt^2 = sum_{j1} sin(Th_j1) z^{a j1} sum_{j2<=j1} cos(Th_j2) z^{b j2}
                     - (sin and cos swapped),   z = e^{2 pi i/N}.

    The inner sums over j2 are _ordered_sines of z^{b j2}, once per column b;
    the outer sum over j1 is one inverse FFT per column, read at every row a.
    :func:`higher_order_ff` passes only the columns b >= 0 and reflects them.
    """
    n = theta.size
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    j = np.arange(n)
    rows = np.mod(alphas, n)
    w = np.empty((alphas.size, betas.size), dtype=complex)
    for col, beta in enumerate(betas):
        # reduced first, so that beta * j cannot overflow for large beta
        inner_phase = roots[np.mod(beta % n * j, n)]
        w[:, col] = np.fft.ifft(_ordered_sines(sin_t, cos_t, inner_phase))[rows]
    return w * n


def higher_order_ff(waveform: PiecewiseConstantWaveform, omegas,
                    omegas_prime) -> HigherOrderFFGrid:
    """G_Z(w, w', T) for all pairs from ``omegas`` x ``omegas_prime``.

    Both grids must be subsets of the DFT grid w = 2*pi*j/(N*dt).  With the
    double transform W of the module docstring and the three exponential
    pairings of the quadruple integral,

        G_Z(w, w') = W(w, -w) W(w', -w')
                     + W(w, w') [ W(-w, -w') + W(-w', -w) ].
    """
    omegas, omegas_prime = _frequencies(omegas), _frequencies(omegas_prime)
    idx = _check_dft_grid(omegas, waveform)
    idx_prime = _check_dft_grid(omegas_prime, waveform)

    # sorted and symmetric under negation: W(a, -b) = conj W(-a, b) gives the
    # columns b < 0 from the columns b >= 0 with rows and columns reversed
    needed = np.unique(np.concatenate([idx, -idx, idx_prime, -idx_prime]))
    cells = max(needed.size * np.count_nonzero(needed >= 0), omegas.size * omegas_prime.size)
    if cells > _MAX_GZ_CELLS:
        raise GridError(f"G_Z on {omegas.size} x {omegas_prime.size} frequencies needs "
                        f"{cells} cells, over the cap of {_MAX_GZ_CELLS}")
    w_half = _ordered_double_transforms(rotation_angle(waveform)[:-1], needed,
                                        needed[needed >= 0])
    negative = np.count_nonzero(needed < 0)
    w_all = np.concatenate([np.conj(w_half[::-1, ::-1][:, :negative]), w_half], axis=1)
    w_all *= waveform.dt ** 2
    a, neg_a, b, neg_b = (np.searchsorted(needed, k)
                          for k in (idx, -idx, idx_prime, -idx_prime))
    pairings = w_all[np.ix_(neg_a, neg_b)] + w_all[np.ix_(neg_b, neg_a)].T
    values = np.outer(w_all[a, neg_a], w_all[b, neg_b]) + w_all[np.ix_(a, b)] * pairings
    return HigherOrderFFGrid(
        omegas=omegas, omegas_prime=omegas_prime, values=values,
        total_time=waveform.total_time,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def ff_to_csv(grid: FilterFunctionGrid, path):
    """CSV columns ``omega_rad_per_s, value``."""
    write_table(path, "omega_rad_per_s,value", np.column_stack([grid.omegas, grid.values]))


def higher_order_ff_to_csv(grid: HigherOrderFFGrid, path):
    """CSV columns ``omega, omega_prime, re, im`` (rad/s and s^4).

    Each omega' is formatted once into a line template; one ``%`` format per
    row of ``omegas`` then fills in that row's re/im pairs.  The bytes equal
    ``f"{x:.17g}"`` of every field, the format of ``_table.write_table``, whose one
    template per row would format omega and omega' on every line: 161 604 ``%.17g``
    calls on the 201 x 201 grid of the benchmark's ``gz`` job (filter-analysis
    ``job_ref.p90``, about 18 of a 26 ref pass) against 201 + 201 + 2 * 201^2 = 81 204.
    """
    omegas_prime = np.asarray(grid.omegas_prime, dtype=float).tolist()
    lines = ["%.17g," % wp + "%.17g,%.17g\n" for wp in omegas_prime]
    pairs = np.ascontiguousarray(grid.values, dtype=complex).view(float)
    with open(path, "w") as fh:
        fh.write("omega,omega_prime,re,im\n")
        for w, row in zip(np.asarray(grid.omegas, dtype=float).tolist(), pairs):
            # the omega prefix goes before every line of the row
            fh.write(("%.17g," % w).join(["", *lines]) % tuple(row.tolist()))
