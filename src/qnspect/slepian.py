"""Discrete prolate spheroidal sequences.

The DPSS of order k maximizes, among all length-N sequences orthogonal to
the lower orders, the fraction of its energy inside the frequency band
[-2*pi*W/dt, 2*pi*W/dt].  That fraction is the eigenvalue lambda_k(N, W)
of the sinc-kernel Toeplitz matrix

    A[n, m] = sin(2*pi*W*(n - m)) / (pi*(n - m)),   A[n, n] = 2*W.

The sequences are computed at every N by one algorithm: the commuting
symmetric tridiagonal matrix of Percival & Walden (1993, ch. 8; the dense
N x N eigenproblem is intractable at the N ~ 2e4 used for waveform design),
solved for its K largest eigenpairs by ``scipy.linalg.eigh_tridiagonal``,
and validated against the dense kernel at small N in the test suite.  The
tridiagonal's eigenvalues are distinct, so every order is defined even
where lambda_k has fallen to roundoff.  The private ``_tapers`` and
``_concentrations`` reproduce ``scipy.signal.windows.dpss(N, NW, Kmax=K,
sym=True, norm=2, return_ratios=True)`` bit for bit wherever scipy returns:
the same tridiagonal, the same sign conventions, and the ratios lambda_k
from the same zero-padded ``scipy.fft.rfft``/``irfft`` autocorrelation.
``waveform`` builds its periodic DPSS envelope from ``_tapers`` too.

``_tapers`` keeps the last ``_TAPER_CACHE_SIZE`` = 8 solves per process, keyed
by (length, NW, K), and hands out the same read-only array on a repeat: a
probe sweep at one (N, NW), or a design sweep at one (N, W, K), solves the
tridiagonal once.  ``dpss`` copies the rows it returns, so a caller may change
a ``DpssSet``'s sequences without touching the cached solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .errors import ParameterError, _integer, _real

__all__ = ["DpssSet", "dpss", "toeplitz_kernel"]

# tridiagonal solves kept per process; a probe or design sweep reuses one key
_TAPER_CACHE_SIZE = 8


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
        In-band energy concentrations lambda_k.  They lie in (0, 1) and
        decrease in k while they are above roundoff; for k near N they reach
        about +-1e-16, in any order, at every N.
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
    half_bandwidth = _real(half_bandwidth, "half_bandwidth")
    if not 0.0 < half_bandwidth < 0.5:
        raise ParameterError(f"half_bandwidth must lie in (0, 1/2), got {half_bandwidth}")
    if num_sequences > n:
        raise ParameterError(f"num_sequences must lie in [1, {n}], got {num_sequences}")

    seqs = _tapers(n, half_bandwidth * n, num_sequences).copy()
    ratios = _concentrations(seqs, half_bandwidth * n)

    # deterministic sign: first element of appreciable magnitude positive
    for row in seqs:
        nz = np.flatnonzero(np.abs(row) > 1e-12 * np.abs(row).max())
        if row[nz[0]] < 0:
            row *= -1.0

    return DpssSet(
        n=n,
        half_bandwidth=half_bandwidth,
        sequences=seqs,
        eigenvalues=np.asarray(ratios, dtype=float),
    )


@functools.lru_cache(maxsize=_TAPER_CACHE_SIZE)
def _tapers(m: int, nw: float, k: int) -> np.ndarray:
    """The k most concentrated length-m DPSS for time-bandwidth nw, shape (k, m), read-only.

    The eigenvectors of the Percival-Walden tridiagonal with diagonal
    ((m - 1 - 2t)/2)^2 cos(2 pi W), W = nw/m, and off-diagonal t(m - t)/2,
    most concentrated first.  Symmetric tapers (k = 0, 2, ...) have a positive
    sum, antisymmetric ones begin with a positive lobe: the first point with
    v^2 > max(1e-7, 1/m), or the first point if none is (m = 2), is positive.
    The same arithmetic as ``scipy.signal.windows.dpss(m, nw, Kmax=k, sym=True,
    norm=2)``, which raises IndexError at m = 2.  Solved once per (m, nw, k)
    while the key stays among the last ``_TAPER_CACHE_SIZE``; copy before writing.
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
        if taper[np.argmax(taper * taper > threshold)] < 0:
            taper *= -1
    tapers.flags.writeable = False
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
    n, half_bandwidth = _integer(n, "n", 1), _real(half_bandwidth, "half_bandwidth")
    idx = np.arange(n)
    diff = idx[:, None] - idx[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sin(2.0 * np.pi * half_bandwidth * diff) / (np.pi * diff)
    a[diff == 0] = 2.0 * half_bandwidth
    return a
