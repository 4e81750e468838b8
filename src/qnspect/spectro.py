"""Linear inversion of amplitude-noise measurements into a spectrum estimate.

Discretizing the overlap integral <Delta a1^2> = (1/pi) int F_Omega S dw
into L bands of width delta_omega turns one tomographic measurement per
modulation frequency into a row of the linear system F . S = P.  Band
integrals use the actual filter functions, exactly: one
``filterfn.amplitude_ff_integral`` call on the stacked probe samples gives
int_0^e F_Omega dw at every upper band edge e, and each band is a
difference of two of them.  The first band is widened to
[0, 1.5*delta_omega] so it encloses the filter peak sitting at
lambda = delta_omega, and the system is solved by non-negative least squares
(``scipy.optimize.nnls``, the Lawson-Hanson active-set method).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, ParameterError, _integer
from .filterfn import amplitude_ff_integral

__all__ = ["OverlapMatrix", "ReconstructionResult", "overlap_matrix", "nnls", "reconstruct"]


@dataclass(frozen=True)
class OverlapMatrix:
    """Band-integrated amplitude filter functions, one row per probe waveform."""

    matrix: np.ndarray          # (R, L), units s (rad^2 s^2 integrated over rad/s / pi)
    delta_omega: float
    band_centers: np.ndarray    # (L,) = (1..L) * delta_omega


@dataclass(frozen=True)
class ReconstructionResult:
    frequencies: np.ndarray
    estimates: np.ndarray
    residual_norm: float
    condition_number: float
    true_spectrum: np.ndarray | None = None
    relative_errors: np.ndarray | None = None


def overlap_matrix(waveforms, num_bands: int, delta_omega: float) -> OverlapMatrix:
    """Assemble the band-integral matrix [F]_rl = (1/pi) int_band_l F_Omega_r dw.

    Bands: l = 1 integrates [0, 1.5*delta_omega]; l > 1 integrates
    [(l - 1/2)*delta_omega, (l + 1/2)*delta_omega].  The integrals from 0 to
    every upper edge (l + 1/2)*delta_omega come from one exact
    ``amplitude_ff_integral`` call on the stacked samples, and each band is
    the difference of two consecutive ones.

    Parameters
    ----------
    waveforms : sequence of PiecewiseConstantWaveform
        All on one grid: the same sample count n and step dt.
    num_bands : int
        L >= 1, the number of spectral estimation bands.
    delta_omega : float
        Band width in rad/s, positive and finite; L*delta_omega must not
        exceed the waveform Nyquist frequency pi/dt.
    """
    waveforms = list(waveforms)
    if not waveforms:
        raise ParameterError("need at least one probe waveform")
    n, dt = waveforms[0].n, waveforms[0].dt
    for wf in waveforms:
        if wf.n != n or abs(wf.dt - dt) > 1e-12 * dt:
            raise ParameterError("all probe waveforms must share one grid (n and dt)")
    num_bands = _integer(num_bands, "num_bands", 1)
    if not 0.0 < delta_omega < np.inf:
        raise ParameterError(f"delta_omega must be positive and finite, got {delta_omega}")
    if num_bands * delta_omega > np.pi / dt * (1 + 1e-12):
        raise ParameterError("num_bands * delta_omega exceeds the Nyquist frequency")

    edges = (np.arange(1, num_bands + 1) + 0.5) * delta_omega
    cumulative = amplitude_ff_integral(np.stack([wf.samples for wf in waveforms]), dt, edges)
    return OverlapMatrix(
        matrix=np.diff(cumulative, axis=1, prepend=0.0) / np.pi,
        delta_omega=delta_omega,
        band_centers=np.arange(1, num_bands + 1) * delta_omega,
    )


def nnls(matrix: np.ndarray, y: np.ndarray) -> np.ndarray:
    """min ||A x - y|| subject to x >= 0, by ``scipy.optimize.nnls``.

    Raises
    ------
    NonConvergenceError
        If scipy's active-set iteration cap is reached.
    """
    import scipy.optimize  # deferred: keeps scipy.optimize out of a cold start

    a = np.asarray(matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    if a.ndim != 2 or y.shape != (a.shape[0],):
        raise ParameterError("matrix and measurement vector dimensions disagree")
    try:
        x, _ = scipy.optimize.nnls(a, y)
    except RuntimeError as exc:
        raise NonConvergenceError(f"NNLS iteration cap reached: {exc}") from exc
    return x


def reconstruct(measurements, matrix: OverlapMatrix, true_spectrum=None) -> ReconstructionResult:
    """Invert per-modulation-frequency estimator values into a spectrum.

    Parameters
    ----------
    measurements : array, one tomographic estimator value per matrix row.
    matrix : OverlapMatrix
    true_spectrum : optional array of S(l * delta_omega) for error reporting.

    Raises
    ------
    ParameterError
        If a measurement is not finite, or a shape disagrees.
    """
    y = np.asarray(measurements, dtype=float)
    a = matrix.matrix
    if y.shape != (a.shape[0],):
        raise ParameterError("need exactly one measurement per matrix row")
    if not np.all(np.isfinite(y)):
        raise ParameterError("measurements must be finite")

    estimates = nnls(a, y)
    residual = float(np.linalg.norm(a @ estimates - y))
    cond = float(np.linalg.cond(a))
    rel = None
    truth = None
    if true_spectrum is not None:
        truth = np.asarray(true_spectrum, dtype=float)
        if truth.shape != estimates.shape:
            raise ParameterError("true spectrum must have one value per band")
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(truth != 0.0, (estimates - truth) / truth, np.nan)
    return ReconstructionResult(
        frequencies=matrix.band_centers,
        estimates=estimates,
        residual_norm=residual,
        condition_number=cond,
        true_spectrum=truth,
        relative_errors=rel,
    )
