"""Spectrum models and stationary Gaussian noise synthesis.

A SpectrumModel describes the one-sided power spectral density S(w) of a
stationary process plus a static mean.  Realizations are synthesized by
harmonic superposition on the DFT grid w_j = j * 2*pi/(N*dt), j >= 1:

    beta(t) = mean + sum_j sqrt(2 S(w_j) dw / (2 pi)) [A_j cos(w_j t) + B_j sin(w_j t)]

with A_j, B_j independent standard normals.  The synthesis hits the target
PSD exactly on the grid (no windowing bias) and keeps the DC component
deterministic: detuning lives in ``mean`` only, never in the stochastic sum.
Because every w_j is a DFT frequency, each realization is one inverse real
FFT of the spectrum a_j (A_j - i B_j)/2 at bin j (a_j A_j at the Nyquist bin
of an even N, whose sine term vanishes on the grid).
The lag-0 autocovariance is (1/pi) * integral_0^inf S(w) dw, which ties the
amplitude convention to the filter-function overlap integrals round-trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "SpectrumModel",
    "NoiseRealization",
    "psd_eval",
    "sample_process",
    "sample_many",
    "free_induction_chi",
    "t2_estimate",
    "spectrum_model_from_json",
]

FLAT_CUTOFF = "flat_cutoff"
ONE_OVER_F = "one_over_f"
DC_DELTA = "dc_delta"
_KINDS = (FLAT_CUTOFF, ONE_OVER_F, DC_DELTA)


@dataclass(frozen=True)
class SpectrumModel:
    """Tagged one-sided PSD with a static mean.

    kind = "flat_cutoff":  S(w) = a_omega for w <= omega_h, else 0.
    kind = "one_over_f":   S(w) = c*a_z/omega_l below omega_l,
                           c*a_z/w between the cutoffs, 0 above omega_h.
    kind = "dc_delta":     S identically 0; the process is the constant
                           ``mean`` (static detuning).
    """

    kind: str
    a_omega: float = 0.0
    c: float = 0.0
    a_z: float = 0.0
    omega_l: float = 0.0
    omega_h: float = 0.0
    mean: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown spectrum kind {self.kind!r}")
        values = (self.a_omega, self.c, self.a_z, self.omega_l, self.omega_h, self.mean)
        if not all(math.isfinite(v) for v in values):
            raise ParameterError(f"spectrum parameters must be finite, got {self}")
        if self.kind == FLAT_CUTOFF:
            if self.a_omega < 0 or self.omega_h <= 0:
                raise ParameterError("flat_cutoff needs a_omega >= 0 and omega_h > 0")
        elif self.kind == ONE_OVER_F:
            if self.c < 0 or self.a_z < 0:
                raise ParameterError("one_over_f needs c >= 0 and a_z >= 0")
            if not 0 < self.omega_l < self.omega_h:
                raise ParameterError("one_over_f needs 0 < omega_l < omega_h")

    @classmethod
    def flat_cutoff(cls, a_omega: float, omega_h: float, mean: float = 0.0):
        return cls(kind=FLAT_CUTOFF, a_omega=a_omega, omega_h=omega_h, mean=mean)

    @classmethod
    def one_over_f(cls, c: float, a_z: float, omega_l: float, omega_h: float,
                   mean: float = 0.0):
        return cls(kind=ONE_OVER_F, c=c, a_z=a_z, omega_l=omega_l, omega_h=omega_h,
                   mean=mean)

    @classmethod
    def dc_delta(cls, mu_z: float):
        return cls(kind=DC_DELTA, mean=mu_z)

    @property
    def cutoff(self) -> float:
        """Highest frequency with nonzero stochastic power (0 for dc_delta)."""
        return 0.0 if self.kind == DC_DELTA else self.omega_h


@dataclass(frozen=True)
class NoiseRealization:
    """One synthesized trajectory on the waveform time grid."""

    samples: np.ndarray
    mean: float
    seed: int
    index: int

    @property
    def n(self) -> int:
        return self.samples.size


def psd_eval(model: SpectrumModel, omega) -> np.ndarray:
    """One-sided PSD S(w) of the stochastic part, for w >= 0."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise ParameterError("psd_eval expects omega >= 0 (the PSD is one-sided)")
    if model.kind == DC_DELTA:
        return np.zeros_like(omega)
    if model.kind == FLAT_CUTOFF:
        return np.where(omega <= model.omega_h, model.a_omega, 0.0)
    s = np.empty_like(omega)
    low = omega <= model.omega_l
    mid = (omega > model.omega_l) & (omega <= model.omega_h)
    s[low] = model.c * model.a_z / model.omega_l
    with np.errstate(divide="ignore"):
        s[mid] = model.c * model.a_z / omega[mid]
    s[omega > model.omega_h] = 0.0
    return s


def _harmonic_amplitudes(model: SpectrumModel, n: int, dt: float):
    """Bins j in 1..N//2 with nonzero amplitude sqrt(2 S(w_j) dw / 2 pi), and the amplitudes."""
    if model.cutoff > np.pi / dt * (1.0 + 1e-12):
        raise ParameterError(
            f"Nyquist frequency {np.pi / dt:.3e} rad/s cannot carry the spectrum "
            f"cutoff {model.cutoff:.3e} rad/s"
        )
    domega = 2.0 * np.pi / (n * dt)
    j = np.arange(1, n // 2 + 1)
    amps = np.sqrt(2.0 * psd_eval(model, j * domega) * domega / (2.0 * np.pi))
    keep = amps > 0.0
    return j[keep], amps[keep]


def sample_process(model: SpectrumModel, n: int, dt: float, seed: int,
                   index: int = 0) -> NoiseRealization:
    """One realization of the process on the length-``n`` time grid.

    Deterministic in (seed, index); realizations with different indices are
    independent streams of the same seed.
    """
    samples = sample_many(model, n, dt, seed, [index])[0]
    return NoiseRealization(samples=samples, mean=model.mean, seed=seed, index=index)


def sample_many(model: SpectrumModel, n: int, dt: float, seed: int,
                indices) -> np.ndarray:
    """Stacked realizations, row r identical to ``sample_process(..., indices[r])``."""
    indices = list(indices)
    if n < 1 or dt <= 0:
        raise ParameterError("need n >= 1 and dt > 0")
    out = np.full((len(indices), n), float(model.mean))
    if model.kind == DC_DELTA:
        return out
    bins, amps = _harmonic_amplitudes(model, n, dt)
    # irfft sums X_0 + 2 Re sum_j X_j e^{2 pi i j m/n}, except that the
    # Nyquist bin of an even n enters once
    half = np.where(2 * bins == n, 1.0, 0.5) * amps
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    # one inverse transform per realization: identical results whether a
    # trajectory is drawn alone or as part of a batch
    for r, index in enumerate(indices):
        rng = np.random.default_rng([int(seed), int(index)])
        coeff_a = rng.standard_normal(bins.size)
        coeff_b = rng.standard_normal(bins.size)
        spectrum[bins] = half * (coeff_a - 1j * coeff_b)
        out[r] += np.fft.irfft(spectrum, n, norm="forward")
    return out


def free_induction_chi(model: SpectrumModel, t: float) -> float:
    """Attenuation exponent chi(t) = (1/pi) int_0^inf S(w) 4 sin^2(wt/2)/w^2 dw.

    Quadrature on a grid resolving both the spectrum's cutoffs and the
    sin^2 oscillation (>= 16 points per 2*pi/t period).
    """
    if model.kind == DC_DELTA:
        raise TypeError("free-induction decay needs a stochastic dephasing spectrum")
    if t <= 0:
        return 0.0
    hi = model.omega_h
    per_osc = 16
    n_osc = max(64, min(4_000_000, int(per_osc * hi * t / (2.0 * np.pi)) + 1))
    grid = np.linspace(0.0, hi, n_osc)
    if model.omega_l > 0:
        grid = np.union1d(grid, np.geomspace(model.omega_l / 100.0, hi, 2000))
        grid = np.union1d(grid, [model.omega_l])
    s = psd_eval(model, grid)
    filt = np.empty_like(grid)
    small = grid * t < 1e-6
    filt[small] = t * t * (1.0 - (grid[small] * t) ** 2 / 12.0)
    gb = grid[~small]
    filt[~small] = 4.0 * np.sin(gb * t / 2.0) ** 2 / gb**2
    return float(np.trapezoid(s * filt, grid) / np.pi)


def t2_estimate(model: SpectrumModel, t_max: float = 1e-2) -> float:
    """Free-induction coherence time of a dephasing spectrum.

    The smallest T with chi(T) = 1/2, solved by bisection; ``math.inf``
    when chi(t_max) < 1/2.  The threshold reflects the sigma_z convention of
    the noise Hamiltonian: a fluctuation beta_z rotates the Bloch vector at
    2*beta_z, so the free-induction coherence decays as exp(-2*chi) and the
    1/e point sits at chi = 1/2.  (This choice reproduces the 4 us and
    100 us decay times quoted for the scale factors 299.1 and 3.18 of the
    reference one-over-f model to within a few percent.)
    """
    if model.kind == DC_DELTA:
        raise TypeError("t2_estimate needs a stochastic dephasing spectrum")
    if free_induction_chi(model, t_max) < 0.5:
        return math.inf
    lo, hi = 0.0, t_max
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if free_induction_chi(model, mid) < 0.5:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9 * t_max:
            break
    return 0.5 * (lo + hi)


def spectrum_model_from_json(payload: dict) -> SpectrumModel:
    """Build a model from the JSON configuration schema.

    Keys: ``kind`` plus ``a_omega`` (rad^2/Hz), ``c``, ``a_z`` (Hz^2),
    ``omega_l_mhz``, ``omega_h_mhz``, ``mu_z_mhz``; frequencies are ordinary
    frequencies in MHz and are converted to rad/s here.
    """
    to_rad = lambda mhz: 2.0 * np.pi * 1e6 * float(mhz)
    kind = payload.get("kind")
    if kind == FLAT_CUTOFF:
        return SpectrumModel.flat_cutoff(
            a_omega=float(payload["a_omega"]),
            omega_h=to_rad(payload["omega_h_mhz"]),
            mean=to_rad(payload.get("mu_z_mhz", 0.0)),
        )
    if kind == ONE_OVER_F:
        return SpectrumModel.one_over_f(
            c=float(payload["c"]),
            a_z=float(payload["a_z"]),
            omega_l=to_rad(payload["omega_l_mhz"]),
            omega_h=to_rad(payload["omega_h_mhz"]),
            mean=to_rad(payload.get("mu_z_mhz", 0.0)),
        )
    if kind == DC_DELTA:
        return SpectrumModel.dc_delta(mu_z=to_rad(payload["mu_z_mhz"]))
    raise ParameterError(f"unknown spectrum kind {kind!r} in config")
