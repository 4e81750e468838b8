"""Discrete prolate spheroidal sequences and spectral concentration.

The DPSS of order k maximizes, among all length-N sequences orthogonal to
the lower orders, the fraction of its energy inside the frequency band
[-2*pi*W/dt, 2*pi*W/dt].  That fraction is the eigenvalue lambda_k(N, W)
of the sinc-kernel Toeplitz matrix

    A[n, m] = sin(2*pi*W*(n - m)) / (pi*(n - m)),   A[n, n] = 2*W.

The sequences are computed through the commuting symmetric tridiagonal
matrix of Percival & Walden (1993, ch. 8; the dense N x N eigenproblem is
intractable at the N ~ 2e4 used for waveform design), solved for its K
largest eigenpairs by ``scipy.linalg.eigh_tridiagonal``, and validated
against the dense kernel at small N in the test suite.  The private
``_tapers`` and ``_concentrations`` reproduce
``scipy.signal.windows.dpss(N, NW, Kmax=K, sym=True, norm=2,
return_ratios=True)`` bit for bit: the same tridiagonal, the same sign
conventions, and the ratios lambda_k from the same zero-padded
``scipy.fft.rfft``/``irfft`` autocorrelation.  ``waveform`` builds its
periodic DPSS envelope from ``_tapers`` too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .errors import ParameterError, UndefinedRatioError, _integer

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
    n = _integer(n, "n", 2)
    num_sequences = _integer(num_sequences, "num_sequences", 1)
    if not 0.0 < half_bandwidth < 0.5:
        raise ParameterError(f"half_bandwidth must lie in (0, 1/2), got {half_bandwidth}")
    if num_sequences > n:
        raise ParameterError(f"num_sequences must lie in [1, {n}], got {num_sequences}")

    if n <= 16:
        # tiny problems: the dense Toeplitz eigenproblem is exact and avoids
        # edge cases in the tridiagonal route
        evals, evecs = np.linalg.eigh(toeplitz_kernel(n, half_bandwidth))
        order = np.argsort(evals)[::-1][:num_sequences]
        seqs = evecs[:, order].T.copy()
        ratios = evals[order]
    else:
        seqs = _tapers(n, half_bandwidth * n, num_sequences)
        ratios = _concentrations(seqs, half_bandwidth * n)

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


def _tapers(m: int, nw: float, k: int) -> np.ndarray:
    """The k most concentrated length-m DPSS for time-bandwidth nw, shape (k, m).

    The eigenvectors of the Percival-Walden tridiagonal with diagonal
    ((m - 1 - 2t)/2)^2 cos(2 pi W), W = nw/m, and off-diagonal t(m - t)/2,
    most concentrated first.  Symmetric tapers (k = 0, 2, ...) have a positive
    sum, antisymmetric ones begin with a positive lobe: the first point with
    v^2 > max(1e-7, 1/m) is positive.  The same arithmetic as
    ``scipy.signal.windows.dpss(m, nw, Kmax=k, sym=True, norm=2)``.
    """
    from scipy.linalg import eigh_tridiagonal  # deferred: keeps scipy.linalg out of a cold start

    w = float(nw) / m
    t = np.arange(m, dtype=np.float64)
    diagonal = ((m - 1 - 2 * t) / 2.) ** 2 * np.cos(2 * np.pi * w)
    off_diagonal = t[1:] * (m - t[1:]) / 2.
    _, vectors = eigh_tridiagonal(diagonal, off_diagonal, select="i",
                                  select_range=(m - k, m - 1))
    tapers = vectors[:, ::-1].T
    symmetric = tapers[::2]
    symmetric[symmetric.sum(axis=1) < 0] *= -1
    threshold = max(1e-7, 1. / m)
    for taper in tapers[1::2]:
        if taper[taper * taper > threshold][0] < 0:
            taper *= -1
    return tapers


def _concentrations(tapers: np.ndarray, nw: float) -> np.ndarray:
    """In-band energy fractions lambda_k of the rows of ``tapers``, W = nw/m.

    lambda_k = sum_t r_k[t] c[t] with the autocorrelation r_k (one zero-padded
    rfft/irfft pair), c[0] = 2W and c[t] = 4W sinc(2Wt) (Percival & Walden
    1993, p. 390), in ``scipy.signal.windows.dpss``'s arithmetic.
    """
    m = tapers.shape[-1]
    w = float(nw) / m
    size = next_fast_len(2 * m - 1)
    spectra = rfft(tapers, size, axis=-1)
    autocorrelation = irfft(spectra * spectra.conj(), n=size)[:, :m]
    kernel = 4 * w * np.sinc(2 * w * np.arange(m, dtype=np.float64))
    kernel[0] = 2 * w
    return autocorrelation @ kernel


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
