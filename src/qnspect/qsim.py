"""Single-qubit propagation under control plus noise, and derived estimators.

Each segment applies the exact 2x2 unitary

    exp(-i dt [ (1+beta_Omega) Omega/2 sigma_x + beta_z sigma_z ])
      = cos(theta) I - i sin(theta) n . sigma,

with theta = dt * sqrt(((1+beta_Omega) Omega/2)^2 + beta_z^2), so the noise
enters non-perturbatively; the Magnus/filter-function quantities computed
alongside are diagnostics of the perturbative theory, not inputs to the
dynamics.  The quaternion U = u0 I - i (ux sigma_x + uy sigma_y + uz sigma_z)
makes the three survival probabilities p_i = u0^2 + u_i^2 and the
tomographic estimator of a single realization simply ux^2.  Propagation
carries U as its Cayley-Klein pair a = u0 - i uz, b = uy - i ux, with
U = [[a, -conj(b)], [b, conj(a)]], so a step is one tan of its half angle and
a product is four complex multiplications.  Only the total propagator is
kept, so the time-ordered product is a tree reduction: every step of a block
of rows is built at once and adjacent pairs are multiplied in about log2(N)
vectorized levels.  One constant, _BLOCK_SAMPLES, sizes every block:
survival_probabilities draws both noise channels for a block of
realizations, propagates it and keeps only its (rows, 3) probabilities, so
no (R, N) noise array is ever held.  It hashes the seed words of all its
realizations once (noisegen._seed_words) and runs every block in one
_Workspace allocated per call: the noise is synthesized into it and the
steps and tree levels are views of it, so no block allocates (rows, N)
arrays.  The bits are those of sample_many and propagate row by row.
bias_breakdown draws nothing: its overlaps are exact or Gauss-Legendre
panel sums, and <a1^(2)^2> is a closed form (Isserlis' theorem) over (N,
columns) blocks of the same size.
Noise trajectories are plain float arrays on the waveform grid; the
diagnostics take one (N,) trajectory or an (R, N) batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _integer
from .filterfn import (_exp_theta_segments, _ordered_sines, amplitude_ff, amplitude_ff_integral,
                       dephasing_ff, dephasing_ff_dc)
from .noisegen import (SpectrumModel, _harmonic_amplitudes, _panel_overlap, _seed_words,
                       _Synthesis)
from .waveform import PiecewiseConstantWaveform, rotation_angle

__all__ = [
    "QubitPropagator",
    "SurvivalTriple",
    "EstimatorValue",
    "BiasBreakdown",
    "propagate",
    "survival_probabilities",
    "tomographic_estimator",
    "error_vector_first_order",
    "magnus_second_order_a1",
    "overlap_amplitude",
    "overlap_dephasing",
    "bias_breakdown",
]

# Monte-Carlo rows, and the columns of bias_breakdown's closed form, are
# handled in blocks of about this many samples (16 at N = 2000, 256 KiB of
# float64 per (rows, N) array)
_BLOCK_SAMPLES = 1 << 15


@dataclass(frozen=True)
class QubitPropagator:
    """Total propagator over [0, T] for one noise realization, as its unit quaternion.

    ``quaternion`` is (u0, ux, uy, uz) with U = u0 I - i (ux sigma_x + uy sigma_y + uz sigma_z).
    """

    quaternion: np.ndarray

    def survival(self, axis: int) -> float:
        """|<up_axis| U |up_axis>|^2 = u0^2 + u_axis^2 for axis in {1, 2, 3}."""
        if axis not in (1, 2, 3):
            raise ParameterError("axis must be 1, 2 or 3")
        u = self.quaternion
        return float(u[0] ** 2 + u[axis] ** 2)


@dataclass(frozen=True)
class SurvivalTriple:
    """Ensemble-averaged survival probabilities and their standard errors."""

    p1: float
    p2: float
    p3: float
    err1: float
    err2: float
    err3: float
    n_realizations: int


@dataclass(frozen=True)
class EstimatorValue:
    value: float
    stderr: float


@dataclass(frozen=True)
class BiasBreakdown:
    """Fourth-order decomposition of the tomographic estimator.

    predicted = i_omega - i_omega^2 - i_omega*i_z/3 + a12_sq, the estimator
    value the perturbative theory assigns to the survival-probability
    combination.
    """

    i_omega: float
    i_z: float
    a12_sq: float
    predicted: float

    @property
    def multiplicative_term(self) -> float:
        return self.i_omega * self.i_z / 3.0


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------


def _compose(later, earlier, out, scratch):
    """Products later * earlier of Cayley-Klein pairs, each given as two equal-shape arrays.

    [[a, -conj(b)], [b, conj(a)]] products give a = a_L a_E - conj(b_L) b_E
    and b = b_L a_E + conj(a_L) b_E.  The pair goes to ``out``, and the two
    arrays of ``scratch`` hold a conjugate and a product; none of them may
    overlap an input.
    """
    a_l, b_l = later
    a_e, b_e = earlier
    a, b = out
    conj, product = scratch
    # every product goes to a separate array: an in-place complex product may
    # take a loop whose rounding depends on the memory layout, and so on the block
    np.multiply(a_l, a_e, out=a)
    np.multiply(np.conjugate(b_l, out=conj), b_e, out=product)
    a -= product
    np.multiply(b_l, a_e, out=b)
    np.multiply(np.conjugate(a_l, out=conj), b_e, out=product)
    b += product


class _Workspace:
    """Buffers to propagate blocks of up to ``rows`` realizations on ``n`` segments.

    One workspace serves every block of a call, so no block allocates (rows,
    n) arrays or touches fresh pages.  One allocation holds two flat buffers
    of four slots of rows n floats each, viewed as contiguous (block rows, m)
    arrays:

    - ``even``: the steps a (slots 0-1) and b (slots 2-3), and every even
      tree level.  b is written last, so until then its slots hold -sin and
      the mask of _step_pairs.  Between blocks survival_probabilities
      synthesizes its noise here.
    - ``odd``: norm, t, the amplitude noise (turned into ax in place) and
      the dephasing noise; then every odd tree level with its product
      temporaries.
    """

    def __init__(self, rows: int, n: int):
        self.n, self.slot = n, rows * n
        self.even, self.odd = np.empty((2, 2 * self.slot), dtype=complex)
        self.carry = np.empty((4, rows), dtype=complex)

    def floats(self, slot: int, rows: int) -> np.ndarray:
        """Slot ``slot`` of ``odd`` as a (rows, n) float array."""
        start = slot * self.slot
        return self.odd.view(float)[start:start + rows * self.n].reshape(rows, self.n)

    def noise(self, rows: int):
        """The amplitude and dephasing noise of a block, to be filled before ``propagate``."""
        return self.floats(2, rows), self.floats(3, rows)

    def propagate(self, samples: np.ndarray, dt: float, rows: int) -> np.ndarray:
        """Time-ordered products of a block; rows of the (rows, 4) result are (u0, ux, uy, uz).

        Adjacent pairs are multiplied later step times earlier, and an odd
        last factor joins its level's last pair.  Each element sees the same
        operations in any block, so a row's bits do not depend on the other rows.
        """
        a, b = _step_pairs(self, samples, dt, rows)
        source, target = self.even, self.odd
        while a.shape[1] > 1:
            m, half = a.shape[1], a.shape[1] // 2
            pa, pb, conj, product = target[:4 * rows * half].reshape(4, rows, half)
            _compose((a[:, 1::2], b[:, 1::2]), (a[:, 0:m - 1:2], b[:, 0:m - 1:2]),
                     (pa, pb), (conj, product))
            if m % 2:
                carry = self.carry[:, :rows]
                _compose((a[:, -1], b[:, -1]), (pa[:, -1], pb[:, -1]), carry[:2], carry[2:])
                pa[:, -1], pb[:, -1] = carry[:2]
            a, b = pa, pb
            source, target = target, source
        return np.stack([a[:, 0].real, -b[:, 0].imag, b[:, 0].real, -a[:, 0].imag], axis=1)


def _step_pairs(work: _Workspace, samples: np.ndarray, dt: float, rows: int):
    """Each segment's step a = cos(theta) - i sn bz, b = -i sn ax as two complex (rows, N) views.

    theta = dt norm with norm = sqrt(ax^2 + bz^2), and sn = sin(theta)/norm,
    whose limit at norm = 0 is dt.  One tan of the half angle gives both: with
    t = tan(theta/2), sin(theta) = 2t/(1 + t^2) and cos(theta) = 1 - t sin(theta).
    Every array is a view of ``work`` (see _Workspace).
    """
    norm, t, ax, beta_z = (work.floats(slot, rows) for slot in range(4))
    a, b = work.even[:2 * norm.size].reshape(2, *norm.shape)
    scratch = b.reshape(-1).view(float)
    neg_sin = scratch[:norm.size].reshape(norm.shape)
    mask = scratch[norm.size:].view(bool)[:norm.size].reshape(norm.shape)
    np.add(1.0, ax, out=ax)
    ax *= 0.5 * samples
    np.multiply(beta_z, beta_z, out=norm)
    norm += np.multiply(ax, ax, out=neg_sin)
    np.sqrt(norm, out=norm)
    np.multiply(norm, 0.5 * dt, out=t)
    np.tan(t, out=t)
    np.multiply(t, t, out=neg_sin)
    neg_sin += 1.0
    np.divide(t, neg_sin, out=neg_sin)
    neg_sin *= -2.0
    np.multiply(t, neg_sin, out=a.real)
    np.add(a.real, 1.0, out=a.real)
    # t becomes -sn
    np.divide(neg_sin, norm, out=t, where=np.greater(norm, 0.0, out=mask))
    t[np.equal(norm, 0.0, out=mask)] = -dt
    np.multiply(t, beta_z, out=a.imag)
    b.real = 0.0
    np.multiply(t, ax, out=b.imag)
    return a, b


def propagate(waveform: PiecewiseConstantWaveform, amp_noise: np.ndarray,
              deph_noise: np.ndarray) -> QubitPropagator:
    """Exact propagator for one pair of (N,) noise trajectories.

    The amplitude noise acts multiplicatively on the drive; the dephasing
    trajectory (including its static mean) adds a sigma_z term.  Noise is
    held constant across each segment (zero-order hold).  The pair runs as a
    one-row _Workspace block: the bits of that row in survival_probabilities.
    """
    if np.shape(amp_noise) != (waveform.n,) or np.shape(deph_noise) != (waveform.n,):
        raise ParameterError("propagate takes one trajectory per channel on the waveform grid")
    _check_grid(waveform, amp_noise, deph_noise)
    work = _Workspace(1, waveform.n)
    amp, deph = work.noise(1)
    amp[0], deph[0] = amp_noise, deph_noise
    return QubitPropagator(quaternion=work.propagate(waveform.samples, waveform.dt, 1)[0])


def survival_probabilities(waveform: PiecewiseConstantWaveform, amp_model: SpectrumModel,
                           deph_model: SpectrumModel, n_realizations: int, seed: int,
                           shots: int | None = None) -> SurvivalTriple:
    """Monte-Carlo survival probabilities for the three cardinal initial states.

    Averages |<up_i|U|up_i>|^2 over independent (amplitude, dephasing)
    realization pairs.  ``shots`` adds an optional binomial sampling layer on
    top of each realization's probability; by default the ensemble average of
    the exact probabilities is returned.
    """
    n_realizations = _integer(n_realizations, "n_realizations", 1)
    seed = _integer(seed, "seed", 0)
    if shots is not None:
        shots = _integer(shots, "shots", 1)
    n, dt = waveform.n, waveform.dt
    rows = min(n_realizations, max(1, _BLOCK_SAMPLES // n))
    channels = (_Synthesis(amp_model, n, dt), _Synthesis(deph_model, n, dt))
    # disjoint deterministic seeds for the amplitude / dephasing channels
    words = [_seed_words(2 * seed + k, range(n_realizations)) for k in (0, 1)]
    work = _Workspace(rows, n)
    probs = np.empty((n_realizations, 3))
    for start in range(0, n_realizations, rows):
        stop = min(start + rows, n_realizations)
        for channel, w, out in zip(channels, words, work.noise(stop - start)):
            channel.draw(w[start:stop], out, work.even)
        u = work.propagate(waveform.samples, dt, stop - start)
        probs[start:stop] = u[:, :1] ** 2 + u[:, 1:] ** 2
    if shots is not None:
        rng = np.random.default_rng([seed, 0xB10])
        probs = rng.binomial(shots, np.clip(probs, 0.0, 1.0)) / float(shots)
    mean = probs.mean(axis=0)
    err = probs.std(axis=0, ddof=1) / np.sqrt(n_realizations) if n_realizations > 1 \
        else np.zeros(3)
    return SurvivalTriple(
        p1=float(mean[0]), p2=float(mean[1]), p3=float(mean[2]),
        err1=float(err[0]), err2=float(err[1]), err3=float(err[2]),
        n_realizations=n_realizations,
    )


def tomographic_estimator(triple: SurvivalTriple) -> EstimatorValue:
    """P = (1 + p1 - p2 - p3)/2 with the propagated standard error."""
    value = 0.5 * (1.0 + triple.p1 - triple.p2 - triple.p3)
    stderr = 0.5 * float(np.sqrt(triple.err1**2 + triple.err2**2 + triple.err3**2))
    return EstimatorValue(value=value, stderr=stderr)


# ---------------------------------------------------------------------------
# Error-vector diagnostics (perturbative quantities)
# ---------------------------------------------------------------------------


def _check_grid(waveform: PiecewiseConstantWaveform, *trajectories) -> None:
    if any(np.shape(b)[-1:] != (waveform.n,) for b in trajectories):
        raise ParameterError("noise trajectories must match the waveform grid")
    if not all(np.all(np.isfinite(b)) for b in trajectories):
        raise ParameterError("noise trajectories must be finite")


def error_vector_first_order(waveform: PiecewiseConstantWaveform, amp_noise: np.ndarray,
                             deph_noise: np.ndarray) -> np.ndarray:
    """Leading-order error vector (a1, a2, a3), along the last axis of the result.

    a1 = (1/2) int Omega beta_Omega, a2 = int sin(Theta) beta_z,
    a3 = int cos(Theta) beta_z.  With beta constant per segment and Theta
    piecewise linear, every segment integral is closed-form.  Each noise
    argument is one (N,) trajectory or an (R, N) batch; a batch row gives the
    same bits as a call on that row alone.
    """
    _check_grid(waveform, amp_noise, deph_noise)
    dt = waveform.dt
    omega = waveform.samples
    a1 = 0.5 * dt * np.sum(omega * amp_noise, axis=-1)
    # per-segment integrals of e^{i Theta}: Im is int sin(Theta), Re is int cos(Theta)
    seg, = _exp_theta_segments(rotation_angle(waveform)[:-1], omega, dt, order=0)
    a2 = np.sum(seg.imag * deph_noise, axis=-1)
    a3 = np.sum(seg.real * deph_noise, axis=-1)
    return np.stack(np.broadcast_arrays(a1, a2, a3), axis=-1)


def magnus_second_order_a1(waveform: PiecewiseConstantWaveform,
                           deph_noise: np.ndarray) -> float | np.ndarray:
    """Second-order Magnus x-component from the dephasing channel.

    a1^(2) = int_0^T dt1 int_0^t1 dt2 sin[Theta(t1) - Theta(t2)] beta_z(t1) beta_z(t2),
    in the left-endpoint Riemann convention shared with the higher-order
    filter function, evaluated with prefix sums in O(N) by the G_Z kernel
    filterfn._ordered_sines.  A scalar for one (N,) trajectory, shape (R,)
    for an (R, N) batch.
    """
    _check_grid(waveform, deph_noise)
    dt = waveform.dt
    theta = rotation_angle(waveform)[:-1]
    # diagonal j2 = j1 contributes sin(0) = 0, so the full prefix is safe
    ordered = _ordered_sines(np.sin(theta), np.cos(theta), deph_noise)
    return dt * dt * np.sum(deph_noise * ordered, axis=-1)


# ---------------------------------------------------------------------------
# Overlap integrals and the bias decomposition
# ---------------------------------------------------------------------------


def overlap_amplitude(waveform: PiecewiseConstantWaveform, model: SpectrumModel) -> float:
    """I_Omega = (1/pi) int_0^inf F_Omega(w) S_Omega(w) dw.

    One amplitude_ff_integral for a flat S, noisegen._panel_overlap otherwise.
    """
    if model.kind == "flat_cutoff":
        integral = amplitude_ff_integral(waveform.samples, waveform.dt, model.omega_h)[0]
        return float(model.a_omega * integral / np.pi)
    return _panel_overlap(model, lambda w: amplitude_ff(waveform, w).values,
                          2.0 * np.pi / waveform.total_time)


def overlap_dephasing(waveform: PiecewiseConstantWaveform, model: SpectrumModel) -> float:
    """I_Z = (1/pi) int_0^inf F_Z S_z dw + mean^2 * F_Z(0), by noisegen._panel_overlap.

    The second term is the static (delta-at-DC) part carried by the model mean.
    """
    return model.mean**2 * dephasing_ff_dc(waveform) + _panel_overlap(
        model, lambda w: dephasing_ff(waveform, w).values, 2.0 * np.pi / waveform.total_time)


def _magnus_variance(waveform: PiecewiseConstantWaveform, model: SpectrumModel) -> float:
    """<a1^(2)^2> over the dephasing beta = mean + F z of sample_many, exactly.

    F holds the scaled cos and sin columns of the harmonics, z is standard
    normal, and a1^(2) = beta^T M beta with M[i, l] = M[l, i] =
    (dt^2/2) sin(Th_i - Th_l) for i >= l, the symmetric part of the
    magnus_second_order_a1 kernel.  With K = B^T M B for B = [mean 1, F],
    Q = K[1:, 1:] and g = K[0, 1:], Isserlis' theorem gives
    <a^2> = (K[0, 0] + tr Q)^2 + 2 tr(Q^2) + 4 |g|^2.  M B is prefix and suffix
    sums over blocks of columns of about _BLOCK_SAMPLES cells.
    """
    n, dt = waveform.n, waveform.dt
    bins, amps = _harmonic_amplitudes(model, n, dt)
    phase = (2.0 * np.pi / n) * (np.outer(np.arange(n), bins) % n)
    basis = np.hstack([np.full((n, 1), model.mean), amps * np.cos(phase), amps * np.sin(phase)])
    rot = np.exp(1j * rotation_angle(waveform)[:-1, None])
    k = np.empty((basis.shape[1],) * 2)
    step = max(1, _BLOCK_SAMPLES // n)
    for start in range(0, basis.shape[1], step):
        # Im e^{i Th_i} (sums over l <= i minus l >= i of e^{-i Th_l} B_l) = (M B)_i / (dt^2/2)
        y = np.conj(rot) * basis[:, start:start + step]
        y = rot * (np.cumsum(y, axis=0) - np.cumsum(y[::-1], axis=0)[::-1])
        k[:, start:start + step] = basis.T @ y.imag
    k *= 0.5 * dt * dt
    q = k[1:, 1:]
    return float((k[0, 0] + np.trace(q)) ** 2 + 2.0 * np.sum(q * q.T)
                 + 4.0 * np.sum(k[0, 1:] ** 2))


def bias_breakdown(waveform: PiecewiseConstantWaveform, amp_model: SpectrumModel,
                   deph_model: SpectrumModel) -> BiasBreakdown:
    """Fourth-order prediction of the tomographic estimator.

    I_Omega and I_Z come from filter-function overlaps, and the second-order
    Magnus variance <a1^(2)^2> is exact over the synthesized dephasing
    (mean^4/3 * G_Z(0,0) for a static model), so every call gives the same
    bits.
    """
    i_om = overlap_amplitude(waveform, amp_model)
    i_z = overlap_dephasing(waveform, deph_model)
    a12_sq = _magnus_variance(waveform, deph_model)
    predicted = i_om - i_om**2 - i_om * i_z / 3.0 + a12_sq
    return BiasBreakdown(i_omega=i_om, i_z=i_z, a12_sq=a12_sq, predicted=predicted)
