"""Discrete prolate spheroidal sequences and spectral concentration.

The DPSS of order k maximizes, among all length-N sequences orthogonal to
the lower orders, the fraction of its energy inside the frequency band
[-2*pi*W/dt, 2*pi*W/dt].  That fraction is the eigenvalue lambda_k(N, W)
of the sinc-kernel Toeplitz matrix

    A[n, m] = sin(2*pi*W*(n - m)) / (pi*(n - m)),   A[n, n] = 2*W.

The sequences are computed through the commuting symmetric tridiagonal
matrix (the standard trick; the dense N x N eigenproblem is intractable at
the N ~ 2e4 used for waveform design) and are validated against the dense
kernel at small N in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import windows

from .errors import ParameterError, UndefinedRatioError

__all__ = ["DpssSet", "dpss", "spectral_concentration", "toeplitz_kernel"]


@dataclass(frozen=True)
class DpssSet:
    """The K most band-concentrated length-N sequences.

    Attributes
    ----------
    n : int
        Sequence length.
    half_bandwidth : float
        Dimensionless half bandwidth W, 0 < W < 1/2.  The time-bandwidth
        product is N*W.
    sequences : ndarray, shape (K, N)
        Unit-norm, mutually orthogonal sequences, most concentrated first.
        Sign convention: the first nonzero element of each sequence is
        positive.
    eigenvalues : ndarray, shape (K,)
        In-band energy concentrations lambda_k in (0, 1), strictly
        decreasing in k.
    """

    n: int
    half_bandwidth: float
    sequences: np.ndarray
    eigenvalues: np.ndarray

    @property
    def num_sequences(self) -> int:
        return self.sequences.shape[0]


def dpss(n: int, half_bandwidth: float, num_sequences: int = 1) -> DpssSet:
    """Compute the ``num_sequences`` most concentrated DPSS of length ``n``.

    Parameters
    ----------
    n : int
        Sequence length, n >= 2.
    half_bandwidth : float
        Bandwidth parameter W with 0 < W < 1/2.
    num_sequences : int
        Number of orders K to return, 1 <= K <= n.

    Returns
    -------
    DpssSet
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if not 0.0 < half_bandwidth < 0.5:
        raise ParameterError(f"half_bandwidth must lie in (0, 1/2), got {half_bandwidth}")
    if not 1 <= num_sequences <= n:
        raise ParameterError(f"num_sequences must lie in [1, {n}], got {num_sequences}")

    if n <= 16:
        # tiny problems: the dense Toeplitz eigenproblem is exact and avoids
        # edge cases in the tridiagonal route
        evals, evecs = np.linalg.eigh(toeplitz_kernel(n, half_bandwidth))
        order = np.argsort(evals)[::-1][:num_sequences]
        seqs = evecs[:, order].T.copy()
        ratios = evals[order]
    else:
        seqs, ratios = windows.dpss(
            n, half_bandwidth * n, Kmax=num_sequences, sym=True, norm=2, return_ratios=True
        )
        seqs = np.atleast_2d(seqs)

    # deterministic sign: first element of appreciable magnitude positive
    for row in seqs:
        nz = np.flatnonzero(np.abs(row) > 1e-12 * np.abs(row).max())
        if row[nz[0]] < 0:
            row *= -1.0

    return DpssSet(
        n=n,
        half_bandwidth=float(half_bandwidth),
        sequences=seqs,
        eigenvalues=np.asarray(ratios, dtype=float),
    )


def toeplitz_kernel(n: int, half_bandwidth: float) -> np.ndarray:
    """Dense sinc-kernel Toeplitz matrix defining the concentration problem.

    Intended for validation and Rayleigh-quotient checks at small ``n``.
    """
    idx = np.arange(n)
    diff = idx[:, None] - idx[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sin(2.0 * np.pi * half_bandwidth * diff) / (np.pi * diff)
    a[diff == 0] = 2.0 * half_bandwidth
    return a


def spectral_concentration(waveform, band_center: float, band_halfwidth: float) -> float:
    """Fraction of a waveform's amplitude-filter weight inside a band.

    Computes R = integral of F_Omega over the band, divided by the integral
    over the whole real line.  Because the waveform is real, F_Omega is even
    and the band is counted together with its mirror image at negative
    frequencies (the union of the two intervals, so the full real line still
    gives R = 1).  The denominator is evaluated by Parseval's theorem on the
    time-domain samples,

        integral F_Omega d omega = (pi/2) * dt * sum |Omega_m|^2,

    which avoids truncating an infinite frequency integral.  The numerator
    is exact: one ``filterfn.amplitude_ff_integral`` call at the two band
    edges on the positive half line.

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
    from .filterfn import amplitude_ff_integral  # deferred: filterfn imports waveform types

    power = float(np.sum(np.square(waveform.samples)))
    if power == 0.0:
        raise UndefinedRatioError("spectral concentration is undefined for a zero waveform")
    if not np.isfinite(band_center):
        raise ParameterError(f"band_center must be finite, got {band_center}")
    if not band_halfwidth > 0.0:
        raise ParameterError(f"band_halfwidth must be positive, got {band_halfwidth}")
    denominator = 0.5 * np.pi * waveform.dt * power
    if np.isinf(band_halfwidth):
        return 1.0

    lo = band_center - band_halfwidth
    hi = band_center + band_halfwidth
    # union with the mirror band; reduce to the positive half line (F even)
    edges = [0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi)), max(abs(lo), abs(hi))]
    below, above = amplitude_ff_integral(waveform.samples, waveform.dt, edges)
    numerator = 2.0 * (above - below)  # both signs of omega
    return float(np.clip(numerator / denominator, 0.0, 1.0))
