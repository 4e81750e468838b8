"""Independent reference implementations that the filter-function tests compare against.

Neither shares code with the fast paths in ``qnspect.filterfn``:

* :func:`dephasing_ff_periodic_oracle` gives the exact F_Z of the continuous
  waveform Omega_0 sin(lambda t) over M periods, from adaptive quadrature of
  one period times the Fejer factor;
* :func:`higher_order_ff_brute` is the direct O(N^4) quadruple Riemann sum
  for G_Z at one frequency pair.
"""

from __future__ import annotations

import numpy as np

from qnspect.errors import ParameterError
from qnspect.filterfn import FilterFunctionGrid
from qnspect.waveform import PiecewiseConstantWaveform, rotation_angle


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
