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
  chirp-z transform on the unit circle (``scipy.signal.ZoomFFT``; Rabiner,
  Schafer & Rader 1969), O((N + M) log(N + M)) for M points;
* any other grid (scattered or single points): the direct sum, one
  frequency at a time.

F_Omega is S of the samples times the segment factor
phi(w) = int_0^dt e^{iws} ds = (e^{iw dt} - 1)/(iw).

F_Z needs I_pm(w) = sum_m e^{iwt_m} e^{+-i Th_m} phi(w +- Omega_m), whose
segment factor couples frequency and sample.  With
u_max = (max|w| + max|Omega|) dt < 1 on an evenly spaced grid, phi is
expanded as dt sum_{k<=K} (iu dt)^k/(k+1)!, K the smallest order with
u_max^K/(K+1)! < 1e-17, and (w +- Omega_m)^k binomially:

    I_pm(w) = dt sum_{p+j<=K} i^{p+j} (w dt)^j / (p! j! (p+j+1))
                  * S[e^{+-i Th} (+-Omega dt)^p](w),

so I_pm costs K+1 chirp-z transforms.  For u_max >= 1 or an uneven grid,
and always for F_Z(0) (:func:`dephasing_ff_dc`), I_pm is the segment-exact
direct sum.

The higher-order dephasing filter G_Z(w, w', T) is a quadruple time integral
of sin[Theta(t1)-Theta(t2)] sin[Theta(t3)-Theta(t4)] against three exponential
pairings.  Expanding the sines factorizes every term into products of the
double transform

    W(a, b) = dt^2 sum_{j1} sin(Th_j1) e^{i a t_j1} sum_{j2<=j1} cos(Th_j2) e^{i b t_j2}
              - (sin <-> cos).

Its frequencies lie on the DFT grid 2*pi*j/(N*dt), so each column b costs
one set of prefix sums over j2 and one length-N FFT over j1, which yields
every row a at once.  G_Z deliberately uses the plain left-endpoint Riemann
convention so that the brute-force quadruple sum reproduces it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import ZoomFFT

from .errors import GridError, ParameterError
from .waveform import PiecewiseConstantWaveform, rotation_angle

__all__ = [
    "FilterFunctionGrid",
    "HigherOrderFFGrid",
    "amplitude_ff",
    "dephasing_ff",
    "dephasing_ff_dc",
    "dephasing_ff_periodic_oracle",
    "higher_order_ff",
    "higher_order_ff_brute",
    "ff_to_csv",
    "higher_order_ff_to_csv",
]

# largest phase (rad) by which a grid point may miss the evenly spaced
# frequency the chirp-z transform evaluates in its place
_GRID_PHASE_TOL = 1e-10
# truncation of the segment-factor series: u_max^K/(K+1)! below this
_TAYLOR_TOL = 1e-17


@dataclass(frozen=True)
class FilterFunctionGrid:
    """A first-order filter function sampled on a frequency grid."""

    omegas: np.ndarray
    values: np.ndarray
    total_time: float

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "values", values)
        if omegas.shape != values.shape or omegas.ndim != 1:
            raise ParameterError("omega and value grids must be 1-D and congruent")
        if omegas.size > 1 and not np.all(np.diff(omegas) > 0):
            raise GridError("frequency grid must be strictly increasing")


@dataclass(frozen=True)
class HigherOrderFFGrid:
    """G_Z(w, w', T) on the tensor grid omegas x omegas_prime (complex, s^4)."""

    omegas: np.ndarray
    omegas_prime: np.ndarray
    values: np.ndarray
    total_time: float


def _segment_integral(u: np.ndarray, dt: float) -> np.ndarray:
    """int_0^dt e^{i u s} ds = dt (sinc(x/2) e^{i x/2}), x = u dt, without a branch.

    Written as dt (sin x / x + i sin(x/2) sin(x/2)/(x/2)) so that neither part
    cancels: both are accurate to rounding from x = 0 upward.
    """
    x = np.asarray(u, dtype=float) * dt
    return dt * (np.sinc(x / np.pi) + 1j * np.sin(x / 2.0) * np.sinc(x / (2.0 * np.pi)))


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


def _fourier_plan(n: int, dt: float, omegas: np.ndarray):
    """x -> _fourier_sums(x, dt, omegas) for x of last-axis length n.

    The path and its precomputed factors are fixed once, for callers that
    transform many arrays on one grid.
    """
    if _is_even_grid(omegas, n * dt):
        # ZoomFFT sums x_m e^{-2 pi i f m} on an even grid of f (cycles per
        # sample); f = -w dt/(2 pi) turns that into e^{+i w m dt}
        cycles = -dt / (2.0 * np.pi)
        return ZoomFFT(n, [omegas[0] * cycles, omegas[-1] * cycles], omegas.size,
                       fs=1.0, endpoint=True)
    t = np.arange(n) * dt

    def direct(x):
        out = np.empty(x.shape[:-1] + omegas.shape, dtype=complex)
        for k, w in enumerate(omegas):
            out[..., k] = x @ np.exp(1j * w * t)
        return out

    return direct


def _fourier_sums(x: np.ndarray, dt: float, omegas: np.ndarray) -> np.ndarray:
    """S[..., k] = sum_m x[..., m] e^{i omegas[k] m dt}, over the last axis of x."""
    return _fourier_plan(x.shape[-1], dt, omegas)(x)


def amplitude_ff(waveform: PiecewiseConstantWaveform, omegas) -> FilterFunctionGrid:
    """Amplitude filter function F_Omega on the given angular-frequency grid."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    transform = (_fourier_sums(waveform.samples, waveform.dt, omegas)
                 * _segment_integral(omegas, waveform.dt))
    values = 0.25 * np.abs(transform) ** 2
    return FilterFunctionGrid(omegas=omegas, values=values, total_time=waveform.total_time)


def _segment_exact_sums(waveform: PiecewiseConstantWaveform, omegas: np.ndarray,
                        sign: int) -> np.ndarray:
    """I_sign(w) = sum_m e^{iwt_m} e^{sign i Th_m} phi(w + sign Omega_m), summed directly."""
    phase = sign * rotation_angle(waveform)[:-1]
    rates = sign * waveform.samples
    t = np.arange(waveform.n) * waveform.dt
    return np.array([
        np.sum(np.exp(1j * (w * t + phase)) * _segment_integral(w + rates, waveform.dt))
        for w in omegas
    ], dtype=complex)


def _taylor_order(u_max: float) -> int:
    """Smallest K with u_max^K/(K+1)! < _TAYLOR_TOL."""
    order, term = 0, 1.0
    while term >= _TAYLOR_TOL:
        order += 1
        term *= u_max / (order + 1)
    return order


def _exp_theta_transforms(waveform: PiecewiseConstantWaveform, omegas: np.ndarray):
    """Segment-exact transforms of e^{+i Theta} and e^{-i Theta}.

    Returns (I_plus, I_minus) with
        I_pm(w) = int_0^T e^{iwt} e^{+-i Theta(t)} dt,
    using Theta linear with slope Omega_m on segment m: a sum of chirp-z
    transforms on even grids with u_max < 1, the direct sum otherwise.
    """
    dt = waveform.dt
    u_max = (np.max(np.abs(omegas), initial=0.0) + np.max(np.abs(waveform.samples))) * dt
    if not (u_max < 1.0 and _is_even_grid(omegas, waveform.total_time)):
        return (_segment_exact_sums(waveform, omegas, +1),
                _segment_exact_sums(waveform, omegas, -1))
    p = np.arange(_taylor_order(u_max) + 1)
    rot = np.exp(1j * rotation_angle(waveform)[:-1])
    powers = (waveform.samples * dt)[None, :] ** p[:, None]  # (Omega dt)^p, 0^0 = 1
    series = np.concatenate([rot * powers, np.conj(rot) * powers * (-1.0) ** p[:, None]])
    transforms = _fourier_sums(series, dt, omegas).reshape(2, p.size, omegas.size)
    # weights[p] = sum_j i^{p+j} (w dt)^j / (p! j! (p+j+1)) over p + j <= K
    degree = p[:, None] + p[None, :]
    fact = np.cumprod(np.maximum(p, 1)).astype(float)
    coef = np.array([1, 1j, -1, -1j])[degree % 4] / (fact[:, None] * fact[None, :] * (degree + 1))
    coef[degree > p[-1]] = 0.0
    weights = coef @ (omegas * dt)[None, :] ** p[:, None]
    i_plus, i_minus = dt * np.sum(weights[None] * transforms, axis=1)
    return i_plus, i_minus


def dephasing_ff(waveform: PiecewiseConstantWaveform, omegas) -> FilterFunctionGrid:
    """Dephasing filter function F_Z on the given angular-frequency grid."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    i_plus, i_minus = _exp_theta_transforms(waveform, omegas)
    cos_tr = 0.5 * (i_plus + i_minus)
    sin_tr = (i_plus - i_minus) / 2j
    values = np.abs(cos_tr) ** 2 + np.abs(sin_tr) ** 2
    return FilterFunctionGrid(omegas=omegas, values=values, total_time=waveform.total_time)


def dephasing_ff_dc(waveform: PiecewiseConstantWaveform) -> float:
    """F_Z(0, T) = |int_0^T e^{i Theta(t)} dt|^2, segment-exact."""
    i_plus = _segment_exact_sums(waveform, np.zeros(1), +1)[0]
    return float(np.abs(i_plus) ** 2)


# ---------------------------------------------------------------------------
# Periodic (Fejer-kernel) oracle for the dephasing-robust family
# ---------------------------------------------------------------------------


def _fejer(omega: np.ndarray, periods: int, lam: float) -> np.ndarray:
    """sin^2(M pi w/lambda) / sin^2(pi w/lambda), with the M^2 limit at w = k*lambda."""
    x = np.pi * omega / lam
    out = np.empty_like(x)
    near = np.abs(x - np.round(x / np.pi) * np.pi) < 1e-6
    xs = x[near] - np.round(x[near] / np.pi) * np.pi
    m = float(periods)
    # series of sin^2(M x)/sin^2(x) about a multiple of pi
    out[near] = m * m * (1.0 - (m * m - 1.0) * xs * xs / 3.0)
    xb = x[~near]
    out[~near] = np.sin(m * xb) ** 2 / np.sin(xb) ** 2
    return out


def dephasing_ff_periodic_oracle(periods: int, modulation_freq: float, peak_rate: float,
                                 omegas) -> FilterFunctionGrid:
    """Exact F_Z of the continuous waveform Omega_0 sin(lambda t) over M periods.

    Periodicity reduces the transform to a single-period integral times the
    Fejer factor sin^2(M pi w/lambda)/sin^2(pi w/lambda).  The single-period
    integrals of cos(Theta) e^{-iwt} and sin(Theta) e^{-iwt}, with
    Theta(t) = (Omega_0/lambda)(1 - cos lambda t), are evaluated by adaptive
    quadrature; accuracy is limited only by the quadrature tolerance, which
    makes this an independent oracle for :func:`dephasing_ff`.
    """
    from scipy.integrate import quad

    if periods < 1:
        raise ParameterError("periods must be >= 1")
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    lam = float(modulation_freq)
    tau = 2.0 * np.pi / lam
    ratio = peak_rate / lam

    def theta(t):
        return ratio * (1.0 - np.cos(lam * t))

    values = np.empty(omegas.size)
    for i, w in enumerate(omegas):
        cos_re = quad(lambda t: np.cos(theta(t)) * np.cos(w * t), 0, tau, limit=400)[0]
        cos_im = quad(lambda t: np.cos(theta(t)) * np.sin(w * t), 0, tau, limit=400)[0]
        sin_re = quad(lambda t: np.sin(theta(t)) * np.cos(w * t), 0, tau, limit=400)[0]
        sin_im = quad(lambda t: np.sin(theta(t)) * np.sin(w * t), 0, tau, limit=400)[0]
        single = cos_re**2 + cos_im**2 + sin_re**2 + sin_im**2
        values[i] = single
    values *= _fejer(omegas, periods, lam)
    return FilterFunctionGrid(omegas=omegas, values=values, total_time=periods * tau)


# ---------------------------------------------------------------------------
# Higher-order filter function G_Z
# ---------------------------------------------------------------------------


def _check_dft_grid(omegas: np.ndarray, waveform: PiecewiseConstantWaveform) -> np.ndarray:
    """Angular frequencies must be integer multiples of 2*pi/(N*dt)."""
    base = 2.0 * np.pi / (waveform.n * waveform.dt)
    idx = omegas / base
    rounded = np.round(idx)
    if np.any(np.abs(idx - rounded) > 1e-8 * np.maximum(1.0, np.abs(idx))):
        raise GridError(
            "higher-order FF frequencies must be integer multiples of 2*pi/(N*dt)"
        )
    return rounded.astype(int)


def _ordered_double_transforms(theta: np.ndarray, alphas: np.ndarray,
                               betas: np.ndarray) -> np.ndarray:
    """W[a, b] / dt^2 at integer DFT indices a (rows) and b (columns).

    W[a, b] / dt^2 = sum_{j1} sin(Th_j1) z^{a j1} sum_{j2<=j1} cos(Th_j2) z^{b j2}
                     - (sin and cos swapped),   z = e^{2 pi i/N}.

    The inner sums over j2 are running prefix sums, built once per column b;
    the outer sum over j1 is one inverse FFT per column, read at every row a.
    """
    n = theta.size
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    j = np.arange(n)
    rows = np.mod(alphas, n)
    w = np.empty((alphas.size, betas.size), dtype=complex)
    for col, beta in enumerate(betas):
        inner_phase = roots[np.mod(beta * j, n)]
        prefix_cos = np.cumsum(cos_t * inner_phase)
        prefix_sin = np.cumsum(sin_t * inner_phase)
        w[:, col] = np.fft.ifft(sin_t * prefix_cos - cos_t * prefix_sin)[rows]
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
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    omegas_prime = np.atleast_1d(np.asarray(omegas_prime, dtype=float))
    idx = _check_dft_grid(omegas, waveform)
    idx_prime = _check_dft_grid(omegas_prime, waveform)

    needed = np.unique(np.concatenate([idx, -idx, idx_prime, -idx_prime]))
    w_all = _ordered_double_transforms(rotation_angle(waveform)[:-1], needed, needed)
    w_all *= waveform.dt ** 2
    a, neg_a, b, neg_b = (np.searchsorted(needed, k)
                          for k in (idx, -idx, idx_prime, -idx_prime))
    pairings = w_all[np.ix_(neg_a, neg_b)] + w_all[np.ix_(neg_b, neg_a)].T
    values = np.outer(w_all[a, neg_a], w_all[b, neg_b]) + w_all[np.ix_(a, b)] * pairings
    return HigherOrderFFGrid(
        omegas=omegas, omegas_prime=omegas_prime, values=values,
        total_time=waveform.total_time,
    )


def higher_order_ff_brute(waveform: PiecewiseConstantWaveform, omega: float,
                          omega_prime: float) -> complex:
    """Direct quadruple Riemann sum for G_Z at one frequency pair (O(N^4)).

    Shares no code with the fast path; the test suite uses it as the
    correctness oracle at small N.
    """
    n = waveform.n
    dt = waveform.dt
    theta = rotation_angle(waveform)[:-1]
    t = np.arange(n) * dt
    lower = np.tril(np.ones((n, n)))  # j2 <= j1
    sin_diff = np.sin(theta[:, None] - theta[None, :]) * lower

    e_w = np.exp(1j * omega * t)
    e_wp = np.exp(1j * omega_prime * t)
    total = 0.0 + 0.0j
    # pairing e^{iw(t1-t2)} e^{iw'(t3-t4)}
    a12 = np.einsum("ab,a,b->", sin_diff, e_w, np.conj(e_w))
    a34 = np.einsum("cd,c,d->", sin_diff, e_wp, np.conj(e_wp))
    total += a12 * a34
    # pairing e^{iw(t1-t3)} e^{iw'(t2-t4)}
    b12 = np.einsum("ab,a,b->ab", sin_diff, e_w, e_wp)
    b34 = np.einsum("cd,c,d->cd", sin_diff, np.conj(e_w), np.conj(e_wp))
    total += np.sum(b12) * np.sum(b34)
    # pairing e^{iw(t1-t4)} e^{iw'(t2-t3)}
    c34 = np.einsum("cd,c,d->cd", sin_diff, np.conj(e_wp), np.conj(e_w))
    total += np.sum(b12) * np.sum(c34)
    return complex(total * dt**4)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def ff_to_csv(grid: FilterFunctionGrid, path):
    """CSV columns ``omega_rad_per_s, value``."""
    np.savetxt(path, np.column_stack([grid.omegas, grid.values]), fmt="%.17g",
               delimiter=",", header="omega_rad_per_s,value", comments="")


def higher_order_ff_to_csv(grid: HigherOrderFFGrid, path):
    """CSV columns ``omega, omega_prime, re, im`` (rad/s and s^4)."""
    w, wp = np.meshgrid(grid.omegas, grid.omegas_prime, indexing="ij")
    z = grid.values.ravel()
    np.savetxt(path, np.column_stack([w.ravel(), wp.ravel(), z.real, z.imag]), fmt="%.17g",
               delimiter=",", header="omega,omega_prime,re,im", comments="")
