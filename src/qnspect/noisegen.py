"""Spectrum models and stationary Gaussian noise synthesis.

A SpectrumModel describes the one-sided power spectral density S(w) of a
stationary process plus a static mean.  Realizations are synthesized by
harmonic superposition on the DFT grid w_j = j * 2*pi/(N*dt), j >= 1:

    beta(t) = mean + sum_j sqrt(2 S(w_j) dw / (2 pi)) [A_j cos(w_j t) + B_j sin(w_j t)]

with A_j, B_j independent standard normals.  The synthesis hits the target
PSD exactly on the grid (no windowing bias) and keeps the DC component
deterministic: detuning lives in ``mean`` only, never in the stochastic sum.
Because every w_j is a DFT frequency, each realization is the inverse real
FFT of the spectrum a_j (A_j - i B_j)/2 at bin j (a_j A_j at the Nyquist bin
of an even N, whose sine term vanishes on the grid).  Each realization draws
its A_j, B_j from its own PCG64 stream, the stream of
``default_rng([seed, index])``: the four state words that
``SeedSequence([seed, index])`` would hash are computed for all indices at
once in uint32 array arithmetic (``_seed_words``), and each row's generator
starts from its words.  A batch of realizations is one inverse transform
along the last axis, so a row has the same bits alone or in any batch.
The lag-0 autocovariance is (1/pi) * integral_0^inf S(w) dw, which ties the
amplitude convention to the filter-function overlap integrals round-trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, ParameterError, _finite, _integer, _positive, _real

__all__ = [
    "SpectrumModel",
    "psd_eval",
    "sample_many",
    "free_induction_chi",
    "t2_estimate",
    "spectrum_model_from_json",
]

FLAT_CUTOFF = "flat_cutoff"
ONE_OVER_F = "one_over_f"
DC_DELTA = "dc_delta"
_KINDS = (FLAT_CUTOFF, ONE_OVER_F, DC_DELTA)
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


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
        for name in ("a_omega", "c", "a_z", "omega_l", "omega_h", "mean"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
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


def psd_eval(model: SpectrumModel, omega) -> np.ndarray:
    """One-sided PSD S(w) of the stochastic part, for w >= 0."""
    omega = _finite(omega, "omega")
    if not np.all(omega >= 0):
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


# numpy's SeedSequence hash (pool of 4 uint32 words) and its constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value: np.ndarray, const: int, mult: int):
    """SeedSequence's hashmix of a uint32 array; returns it and the next hash constant."""
    value = value ^ np.uint32(const)
    const = const * mult & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> 16), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> 16)


def _uint32_words(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence makes of a non-negative int."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_words(seed: int, indices) -> np.ndarray:
    """``SeedSequence([seed, index]).generate_state(4, np.uint64)`` for each index, as (R, 4).

    ``indices`` is a sequence of non-negative ints, such as a list or a range.
    The entropy of an index below 2^32 is the seed's words and one index
    word, so the hash runs on columns of a (words, R) uint32 array; its
    constants do not depend on the data.  A larger index falls back to
    numpy's SeedSequence.
    """
    small = np.fromiter((index <= _MASK32 for index in indices), bool, len(indices))
    entropy = np.empty((len(_uint32_words(seed)) + 1, np.count_nonzero(small)), dtype=np.uint32)
    entropy[:-1] = np.array(_uint32_words(seed), dtype=np.uint32)[:, None]
    entropy[-1] = np.fromiter((index for index in indices if index <= _MASK32), np.uint32,
                              entropy.shape[1])
    # mix_entropy: hash the first 4 words into the pool, mix every pool word
    # into every other, then mix in any words beyond the pool
    const, pool = _INIT_A, []
    for word in range(4):
        source = entropy[word] if word < len(entropy) else np.zeros_like(entropy[0])
        value, const = _hashmix(source, const, _MULT_A)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for src in range(4, len(entropy)):
        for dst in range(4):
            value, const = _hashmix(entropy[src], const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    # generate_state: 8 uint32 words cycling over the pool, read as 4
    # little-endian uint64 words
    const, state = _INIT_B, np.empty((entropy.shape[1], 8), dtype=np.uint32)
    for word in range(8):
        state[:, word], const = _hashmix(pool[word % 4], const, _MULT_B)
    state = state.view("<u8").astype(np.uint64, copy=False)
    if small.all():
        return state
    words = np.empty((len(indices), 4), dtype=np.uint64)
    words[small] = state
    for row in np.flatnonzero(~small):
        words[row] = np.random.SeedSequence([seed, indices[row]]).generate_state(4, np.uint64)
    return words


class _StateWords(np.random.bit_generator.ISeedSequence):
    """Hands a bit generator the state words its SeedSequence would have generated."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class _Synthesis:
    """The rows of ``sample_many`` for one (model, n, dt), drawn into buffers the caller owns.

    The harmonic bins and amplitudes are computed once; ``draw`` fills
    ``out`` with the rows of given seed words and uses a flat complex
    ``scratch`` of at least ``scratch_size(rows)`` elements for the
    coefficients and the spectrum.
    """

    def __init__(self, model: SpectrumModel, n: int, dt: float):
        n, dt = _integer(n, "n", 1), _positive(dt, "dt")
        self.n, self.mean, self.bins = n, model.mean, None
        if model.kind != DC_DELTA:
            self.bins, amps = _harmonic_amplitudes(model, n, dt)
            # irfft sums X_0 + 2 Re sum_j X_j e^{2 pi i j m/n}, except that
            # the Nyquist bin of an even n enters once
            self.half = np.where(2 * self.bins == n, 1.0, 0.5) * amps

    def scratch_size(self, rows: int) -> int:
        return 0 if self.bins is None else rows * (self.n // 2 + 1 + self.bins.size)

    def draw(self, words: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        if self.bins is None:
            out.fill(self.mean)
            return out
        rows, width = len(words), self.n // 2 + 1
        spectrum = scratch[:rows * width].reshape(rows, width)
        coeffs = scratch[rows * width:rows * (width + self.bins.size)]
        coeffs = coeffs.view(float).reshape(rows, 2, self.bins.size)
        for row, state in zip(coeffs, words):
            np.random.Generator(np.random.PCG64(_StateWords(state))).standard_normal(out=row)
        spectrum.fill(0.0)
        spectrum[:, self.bins] = self.half * (coeffs[:, 0] - 1j * coeffs[:, 1])
        np.fft.irfft(spectrum, self.n, axis=-1, norm="forward", out=out)
        out += self.mean
        return out


def sample_many(model: SpectrumModel, n: int, dt: float, seed: int,
                indices) -> np.ndarray:
    """Realizations on the length-``n`` time grid, one row per entry of ``indices``.

    Row r is deterministic in (seed, indices[r]); different indices are
    independent streams of the same seed.  Each row draws its coefficients
    from its own generator, and the whole batch is one inverse transform, so a
    row has the same bits whether it is drawn alone or in a batch.  The seed
    and the indices must be non-negative integers.
    """
    seed = _integer(seed, "seed", 0)
    indices = [_integer(index, "a realization index", 0) for index in indices]
    synthesis = _Synthesis(model, n, dt)
    return synthesis.draw(_seed_words(seed, indices), np.empty((len(indices), n)),
                          np.empty(synthesis.scratch_size(len(indices)), dtype=complex))


def _panel_overlap(model: SpectrumModel, filt, width: float) -> float:
    """(1/pi) int_0^inf filt(w) S(w) dw by Gauss-Legendre panels of 8 nodes.

    Each piece of S between its breakpoints (0, omega_l, omega_h) takes equal
    panels no wider than ``width`` or omega_l.  Node k of the panels of a piece
    forms one even grid, the argument of one ``filt`` call, so a filter
    function keeps its chirp-z path.  More than 4e6 nodes raise GridError.
    """
    if model.kind == DC_DELTA:
        return 0.0
    edges = [0.0, model.omega_h]
    if model.kind == ONE_OVER_F:
        edges, width = [0.0, model.omega_l, model.omega_h], min(width, model.omega_l)
    counts = [max(1, math.ceil((hi - lo) / width)) for lo, hi in zip(edges, edges[1:])]
    if _GAUSS_NODES.size * sum(counts) > 4_000_000:
        raise GridError("overlap panels would need more than 4e6 nodes; the spectrum's "
                        "low-frequency structure is too fine for this duration")
    total = 0.0
    for lo, hi, count in zip(edges, edges[1:], counts):
        h = (hi - lo) / count
        for x, weight in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
            omegas = lo + h * (np.arange(count) + 0.5 * (x + 1.0))
            total += 0.5 * h * weight * np.sum(filt(omegas) * psd_eval(model, omegas))
    return float(total / np.pi)


def free_induction_chi(model: SpectrumModel, t: float) -> float:
    """Attenuation exponent chi(t) = (1/pi) int_0^inf S(w) 4 sin^2(wt/2)/w^2 dw.

    The filter is (t sinc(wt/2 pi))^2, integrated by the panel rule with
    panels no wider than its 2*pi/t period.  A t that is not a finite number
    raises ParameterError.
    """
    if model.kind == DC_DELTA:
        raise TypeError("free-induction decay needs a stochastic dephasing spectrum")
    t = _real(t, "free-induction time")
    if t <= 0:
        return 0.0
    return _panel_overlap(model, lambda w: (t * np.sinc(w * t / (2.0 * np.pi))) ** 2,
                          2.0 * np.pi / t)


def t2_estimate(model: SpectrumModel, t_max: float = 1e-2) -> float:
    """Free-induction coherence time of a dephasing spectrum.

    The T with chi(T) = 1/2, found by Brent's method; ``math.inf``
    when chi(t_max) < 1/2.  The threshold reflects the sigma_z convention of
    the noise Hamiltonian: a fluctuation beta_z rotates the Bloch vector at
    2*beta_z, so the free-induction coherence decays as exp(-2*chi) and the
    1/e point sits at chi = 1/2.  (This choice reproduces the 4 us and
    100 us decay times quoted for the scale factors 299.1 and 3.18 of the
    reference one-over-f model to within a few percent.)  A t_max that is not
    a positive finite number raises ParameterError.
    """
    from scipy.optimize import brentq  # deferred: keeps scipy.optimize out of a cold start

    if model.kind == DC_DELTA:
        raise TypeError("t2_estimate needs a stochastic dephasing spectrum")
    t_max = _positive(t_max, "t2_estimate horizon")
    if free_induction_chi(model, t_max) < 0.5:
        return math.inf
    return brentq(lambda t: free_induction_chi(model, t) - 0.5, 0.0, t_max,
                  xtol=1e-9 * t_max)


def spectrum_model_from_json(payload: dict) -> SpectrumModel:
    """Build a model from the JSON configuration schema.

    Keys: ``kind`` plus ``a_omega`` (rad^2/Hz), ``c``, ``a_z`` (Hz^2),
    ``omega_l_mhz``, ``omega_h_mhz``, ``mu_z_mhz``; frequencies are ordinary
    frequencies in MHz and are converted to rad/s here.
    """
    if not isinstance(payload, dict):
        raise ParameterError(f"a spectrum model must be a JSON object, got {payload!r}")

    def number(key, default=None, scale=1.0):
        value = payload[key] if default is None else payload.get(key, default)
        return scale * _real(value, key)

    mhz = 2.0 * np.pi * 1e6
    kind = payload.get("kind")
    if kind == FLAT_CUTOFF:
        return SpectrumModel.flat_cutoff(
            a_omega=number("a_omega"),
            omega_h=number("omega_h_mhz", scale=mhz),
            mean=number("mu_z_mhz", 0.0, mhz),
        )
    if kind == ONE_OVER_F:
        return SpectrumModel.one_over_f(
            c=number("c"),
            a_z=number("a_z"),
            omega_l=number("omega_l_mhz", scale=mhz),
            omega_h=number("omega_h_mhz", scale=mhz),
            mean=number("mu_z_mhz", 0.0, mhz),
        )
    if kind == DC_DELTA:
        return SpectrumModel.dc_delta(mu_z=number("mu_z_mhz", scale=mhz))
    raise ParameterError(f"unknown spectrum kind {kind!r} in config")
