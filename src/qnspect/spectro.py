"""Linear inversion of amplitude-noise measurements into a spectrum estimate.

Discretizing the overlap integral <Delta a1^2> = (1/pi) int F_Omega S dw
into L bands of width delta_omega turns one tomographic measurement per
modulation frequency into a row of the linear system F . S = P.  Band
integrals use the actual filter functions: each probe's F_Omega is evaluated
once, on one even grid from 0 to (L + 1/2)*delta_omega that resolves the
2*pi/T linewidth and has every band edge as a node, and each band is a
difference of one cumulative trapezoid sum.  The first band is widened to
[0, 1.5*delta_omega] so it encloses the filter peak sitting at
lambda = delta_omega, and the system is solved by non-negative least squares
(``scipy.optimize.nnls``, the Lawson-Hanson active-set method).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize
from scipy.integrate import cumulative_trapezoid

from .errors import NonConvergenceError, ParameterError
from .filterfn import amplitude_ff

__all__ = ["OverlapMatrix", "ReconstructionResult", "overlap_matrix", "nnls", "reconstruct"]

# band quadrature resolution, in trapezoid points per 2*pi/T linewidth
_POINTS_PER_LINEWIDTH = 8


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
    [(l - 1/2)*delta_omega, (l + 1/2)*delta_omega].  Each waveform's F_Omega
    is evaluated once, on the even grid of ``(2L + 1)*per_half + 1`` nodes
    from 0 to (L + 1/2)*delta_omega, with ``per_half`` trapezoid intervals
    per half band; band l > 1 spans nodes [(2l - 1), (2l + 1)]*per_half and
    band 1 spans [0, 3*per_half].  The resolution is fixed at 8 points per
    2*pi/T linewidth, and every band gets at least 8 intervals.

    Parameters
    ----------
    waveforms : sequence of PiecewiseConstantWaveform
        All sharing the same total time.
    num_bands : int
        L >= 1, the number of spectral estimation bands.
    delta_omega : float
        Band width in rad/s, positive and finite; L*delta_omega must not
        exceed the waveform Nyquist frequency pi/dt.
    """
    waveforms = list(waveforms)
    if not waveforms:
        raise ParameterError("need at least one probe waveform")
    total_time = waveforms[0].total_time
    for wf in waveforms:
        if abs(wf.total_time - total_time) > 1e-12 * total_time:
            raise ParameterError("all probe waveforms must share the total time")
    if num_bands < 1:
        raise ParameterError(f"need num_bands >= 1, got {num_bands}")
    if not 0.0 < delta_omega < np.inf:
        raise ParameterError(f"delta_omega must be positive and finite, got {delta_omega}")
    if num_bands * delta_omega > np.pi / waveforms[0].dt * (1 + 1e-12):
        raise ParameterError("num_bands * delta_omega exceeds the Nyquist frequency")

    linewidth = 2.0 * np.pi / total_time
    per_half = max(4, int(np.ceil(0.5 * delta_omega / linewidth * _POINTS_PER_LINEWIDTH)))
    grid = np.linspace(0.0, (num_bands + 0.5) * delta_omega, (2 * num_bands + 1) * per_half + 1)
    hi = (2 * np.arange(1, num_bands + 1) + 1) * per_half
    lo = hi - 2 * per_half
    lo[0] = 0

    values = np.array([amplitude_ff(wf, grid).values for wf in waveforms])
    cumulative = cumulative_trapezoid(values, grid, initial=0.0)
    return OverlapMatrix(
        matrix=(cumulative[:, hi] - cumulative[:, lo]) / np.pi,
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
    a = np.asarray(matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    if a.ndim != 2 or y.shape != (a.shape[0],):
        raise ParameterError("matrix and measurement vector dimensions disagree")
    try:
        x, _ = scipy.optimize.nnls(a, y)
    except RuntimeError as exc:
        raise NonConvergenceError(f"NNLS iteration cap reached: {exc}") from exc
    return x


def reconstruct(measurements, matrix: OverlapMatrix, true_spectrum=None,
                weights=None) -> ReconstructionResult:
    """Invert per-modulation-frequency estimator values into a spectrum.

    Parameters
    ----------
    measurements : array, one tomographic estimator value per matrix row.
    matrix : OverlapMatrix
    true_spectrum : optional array of S(l * delta_omega) for error reporting.
    weights : optional per-row nonnegative weights applied to rows and
        measurements before the (otherwise unweighted) regression.

    Raises
    ------
    ParameterError
        If a measurement or weight is not finite, or a shape disagrees.
    """
    y = np.asarray(measurements, dtype=float)
    a = matrix.matrix
    if y.shape != (a.shape[0],):
        raise ParameterError("need exactly one measurement per matrix row")
    if not np.all(np.isfinite(y)):
        raise ParameterError("measurements must be finite")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != y.shape or not np.all(np.isfinite(weights) & (weights >= 0)):
            raise ParameterError("weights must be one finite nonnegative value per row")
        a = a * weights[:, None]
        y = y * weights

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
