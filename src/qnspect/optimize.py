"""Constrained design of dephasing-suppressing amplitude waveforms.

The search space is the 2K-dimensional coefficient vector of cosine/sine
modulated DPSS.  The objective is the regularized low-frequency weight of
the dephasing filter,

    I_Z(x) = (1/pi) int_0^Nyquist F_Z(w, x) / (w + delta_omega) dw,

minimized subject to (i) the amplitude bound |Omega_m(x)| <= max_rate on
every sample, (ii) the linear net-identity constraint, and (iii) the
nonlinear DC null F_Z(0, x) = 0.  Structure of the solver:

* the identity constraint is linear and homogeneous, so it is eliminated
  exactly by parametrizing x on the null space of its coefficient vector;
* F_Z(0) = |int e^{i Theta}|^2 is split into its real and imaginary parts,
  two smooth equality constraints driven to zero by an augmented-Lagrangian
  outer loop;
* the amplitude bound is read from the samples the objective already
  computes: a log barrier on the band max_rate/(1 + eps) < |Omega_m| < max_rate;
  a trial step that reaches max_rate gets value inf and the line search halves it;
* the inner minimizer is damped Newton (``_newton``) on the exact gradient
  and the exact (2K-1) x (2K-1) Hessian: samples and Theta are linear in the
  coefficients and read through their real Jacobians; the objective's
  gradient in Theta is one FFT convolution and its Hessian, read through
  the Theta Jacobian, 2(2K-1) more; the DC-null, barrier and proximal terms
  differentiate twice in closed form.  The gradients in Theta and in the
  samples are summed as two real N-vectors, one product with each Jacobian.
  Each step solves H p = -g by Cholesky, with Levenberg damping where H is
  not positive definite, and backtracks to an Armijo decrease;
* the DC null (``_dc_residual``, read by both the Lagrangian and the exit
  check) sums filterfn's segment integrals of e^{i Theta} and their first
  and second derivatives in Omega_m (filterfn._exp_theta_segments).

F_Z in the objective is the plain left-endpoint Riemann sum, which is
indistinguishable from the segment-exact transform everywhere the integrand
carries weight.  In that convention F_Z(w) = dt^2 sum_{|k|<N} c_k cos(w k dt)
with c_k = sum_m cos(Theta_{m+k} - Theta_m), so I_Z = dt^2 sum_k c_k K_|k|
exactly, where K_k = (1/pi) int_0^{pi/dt} cos(w k dt)/(w + delta_omega) dw
has a closed form in the sine and cosine integrals.  The kernel is built once
per problem (``DesignProblem.objective``) and shared by solve_design and
objective_Iz; each evaluation is one zero-padded FFT convolution.  The solve
always starts from the projection of the first-root dephasing-robust
sinusoid; one modulation frequency is one problem, so a sweep is a loop of
solve_design calls.  delta_omega and the solver's limits are fixed module
constants (``_DELTA_OMEGA``, ``_MAX_OUTER``, ``_INNER_MAXITER``, ``_FZ_TOL``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import sici

from .errors import NonConvergenceError, ParameterError, _integer, _positive, _real
from .filterfn import _exp_theta_segments
from .lp_reduce import AffineConstraintSet
from .slepian import DpssSet, dpss
from .waveform import (
    PiecewiseConstantWaveform,
    WaveformCoefficients,
    bessel_j0_roots,
    modulation_basis,
    synthesize,
)

__all__ = [
    "DesignProblem",
    "build_design_problem",
    "amplitude_constraints",
    "identity_vector",
    "objective_Iz",
    "project_dephasing_robust",
    "solve_design",
    "design_waveform",
]

# the objective's delta_omega (rad/s); the solver's outer steps, Newton steps
# per outer step, and DC-null target F_Z(0) <= _FZ_TOL T^2
_DELTA_OMEGA = 2.0 * np.pi * 1e3
_MAX_OUTER = 14
_INNER_MAXITER = 80
_FZ_TOL = 1e-9


@dataclass(frozen=True)
class DesignProblem:
    """Everything solve_design needs for one modulation frequency."""

    dpss_set: DpssSet
    omega0: float
    dt: float
    n: int
    num_orders: int
    max_rate: float
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "omega0", _real(self.omega0, "omega0"))
        for name in ("dt", "max_rate", "eps"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))

    @property
    def total_time(self) -> float:
        return self.n * self.dt

    @cached_property
    def basis(self) -> np.ndarray:
        return modulation_basis(self.dpss_set, self.omega0, self.dt, self.num_orders)

    @cached_property
    def objective(self):
        """I_Z as a function of the rotation-angle trajectory Theta.

        With g_k = K_|k| (module docstring), I_Z = dt^2 sum_{j,m} g_{j-m}
        cos(Theta_j - Theta_m).  Splitting off g_0 = K_0 leaves the
        convolutions of h = g with h_0 = 0 against cos Theta and sin Theta,
        one zero-padded rfft/irfft pair:

            I_Z = dt^2 (N K_0 + sum_j [cos Th_j (h*cos Th)_j + sin Th_j (h*sin Th)_j]).

        The kernel (:func:`_lag_kernel`) and its spectrum are built on first
        use and shared by every later evaluation on this problem.

        Given a Jacobian J = dTheta/du of shape (N, P), the call returns
        (I_Z, dI_Z/dTheta, J^T (d^2 I_Z/dTheta^2) J).  The gradient is read
        from the same convolutions: 2 dt^2 (cos Th_j (h*sin Th)_j - sin Th_j
        (h*cos Th)_j), and

            d^2 I_Z/dTheta^2 = 2 dt^2 [C H C + S H S - diag(cos Th (h*cos Th) + sin Th (h*sin Th))],

        C = diag(cos Th), S = diag(sin Th) and H the convolution by h: 2P more
        convolutions, one batched rfft/irfft pair.
        """
        n, dt = self.n, self.dt
        kernel = _lag_kernel(n, dt, _DELTA_OMEGA)
        # h circularly on 2n points: h_0 = 0 and h_{-k} = h_k at 2n - k
        spectrum = np.fft.rfft(np.concatenate(([0.0], kernel[1:], [0.0], kernel[:0:-1]))).real
        diagonal = n * kernel[0]

        def convolve(rows):
            return np.fft.irfft(np.fft.rfft(rows, 2 * n) * spectrum, 2 * n)[..., :n]

        def evaluate(theta: np.ndarray, jacobian=None):
            trig = np.stack([np.cos(theta), np.sin(theta)])
            conv = convolve(trig)
            value = dt * dt * (diagonal + float(np.sum(trig * conv)))
            if jacobian is None:
                return value
            grad = 2.0 * dt * dt * (trig[0] * conv[1] - trig[1] * conv[0])
            rows = trig[:, None, :] * jacobian.T  # (2, P, N): cos Th J and sin Th J
            rows_conv = convolve(rows)
            weight = np.sum(trig * conv, axis=0)
            curvature = (rows[0] @ rows_conv[0].T + rows[1] @ rows_conv[1].T
                         - jacobian.T @ (weight[:, None] * jacobian))
            return value, grad, 2.0 * dt * dt * curvature

        return evaluate


def amplitude_constraints(dpss_set: DpssSet, omega0: float, dt: float,
                          max_rate: float, num_orders: int) -> AffineConstraintSet:
    """The full 2N-row family |Omega_m(x)| <= max_rate in standard form."""
    basis = modulation_basis(dpss_set, omega0, dt, num_orders)
    coeffs = np.vstack([basis, -basis])
    return AffineConstraintSet.from_inequalities(coeffs, np.full(2 * dpss_set.n, max_rate))


def identity_vector(dpss_set: DpssSet, omega0: float, dt: float,
                    num_orders: int) -> np.ndarray:
    """Coefficients (c_c, c_s) of the net-identity constraint e . x = 0.

    e[k] sums cos(omega0 m dt) v_m^(k), e[K + k] the sine-modulated sums;
    dt * (e . x) is the waveform's net rotation.
    """
    return modulation_basis(dpss_set, omega0, dt, num_orders).sum(axis=0)


def _lag_kernel(n: int, dt: float, delta_omega: float) -> np.ndarray:
    """K_k = (1/pi) int_0^{pi/dt} cos(w k dt)/(w + delta_omega) dw for 0 <= k < n.

    K_0 = ln(1 + pi/(dt delta_omega))/pi.  For k >= 1, with a = k dt (pi/dt +
    delta_omega) and b = k dt delta_omega, substituting x = k dt (w + delta_omega)
    gives K_k = [cos b (Ci(a) - Ci(b)) + sin b (Si(a) - Si(b))]/pi.
    """
    lag = np.arange(1, n) * dt
    si, ci = sici(lag * np.array([[np.pi / dt + delta_omega], [delta_omega]]))
    shift = lag * delta_omega
    tail = np.cos(shift) * (ci[0] - ci[1]) + np.sin(shift) * (si[0] - si[1])
    return np.concatenate(([np.log1p(np.pi / (dt * delta_omega))], tail)) / np.pi


def build_design_problem(omega0: float, n: int, dt: float, max_rate: float,
                         time_bandwidth: float = 1.0, num_orders: int = 3,
                         eps: float = 0.1, seed: int = 0) -> DesignProblem:
    """Assemble the DPSS basis (no LP); the objective kernel follows from (n, dt).

    ``seed`` is unused (nothing here is random); it stays while existing
    callers pass it.
    """
    if _integer(n, "n") < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    dpss_set = dpss(n, _real(time_bandwidth, "time_bandwidth") / n, num_orders)
    return DesignProblem(
        dpss_set=dpss_set, omega0=omega0, dt=dt, n=n, num_orders=num_orders,
        max_rate=max_rate, eps=eps,
    )


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------


def _theta(samples: np.ndarray, dt: float) -> np.ndarray:
    """Rotation angle at the start of each segment, along axis 0."""
    start = np.zeros((1,) + samples.shape[1:])
    return np.concatenate((start, np.cumsum(samples * dt, axis=0)))[:-1]


def objective_Iz(coeffs: WaveformCoefficients, problem: DesignProblem) -> float:
    """(1/pi) int_0^{pi/dt} F_Z(w)/(w + delta_omega) dw, exactly, for the Riemann F_Z."""
    if coeffs.num_orders != problem.num_orders:
        raise ParameterError("coefficient order count does not match the problem")
    return problem.objective(_theta(problem.basis @ coeffs.as_vector(), problem.dt))


def _dc_residual(theta: np.ndarray, samples: np.ndarray, dt: float, total_time: float,
                 gradient: bool = False):
    """(Re, Im) of int_0^T e^{i Theta(t)} dt / T with segment-exact integrals.

    With ``gradient`` the call returns (residual, d/dTheta_m, d/dOmega_m,
    d^2/dOmega_m^2), the derivatives as complex arrays of the integral.  The
    other second derivatives follow from these: d^2/dTheta_m^2 = i d/dTheta_m
    and d^2/dTheta_m dOmega_m = i d/dOmega_m.  The Lagrangian and the exit
    check of solve_design both call it, so they see the same phi.
    """
    terms, *d_terms = _exp_theta_segments(theta, samples, dt, 2 if gradient else 0)
    integral = np.sum(terms) / total_time
    residual = np.array([integral.real, integral.imag])
    if not gradient:
        return residual
    return (residual, 1j * terms / total_time, *(d / total_time for d in d_terms))


# ---------------------------------------------------------------------------
# Initialization and solve
# ---------------------------------------------------------------------------


def project_dephasing_robust(problem: DesignProblem) -> WaveformCoefficients:
    """Least-squares projection of the dephasing-robust sinusoid onto the basis.

    The target is Omega_0 sin(omega0 t) with Omega_0 = omega0 * j_{0,1}, the
    first root of J0.  It is not shrunk into the amplitude bound; solve_design
    scales its own start (the projection onto the identity null space).
    """
    omega0 = problem.omega0
    amp = omega0 * bessel_j0_roots(1)[0]
    m = np.arange(problem.n)
    target = amp * np.sin(omega0 * m * problem.dt)
    x, *_ = np.linalg.lstsq(problem.basis, target, rcond=None)
    return WaveformCoefficients.from_vector(omega0, x)


def solve_design(problem: DesignProblem, seed: int = 0) -> WaveformCoefficients:
    """Minimize the dephasing objective under the amplitude bound.

    The descent starts from project_dephasing_robust(problem) on the identity
    null space, scaled down (if necessary) to a peak of at most c max_rate,
    c = 1/(1 + eps).  The bound is a log barrier on all N samples of the
    iterate that acts only above c max_rate: ``eps`` sets that band, not a
    margin the solution keeps, and no iterate reaches max_rate.  At most
    ``_MAX_OUTER`` augmented-Lagrangian outer steps run, each of at most
    ``_INNER_MAXITER`` Newton steps.  ``seed`` is unused (the solve is
    deterministic); it stays while existing callers pass it.  Returns
    coefficients satisfying that bound, the identity constraint (exactly, by
    construction) and F_Z(0) <= ``_FZ_TOL`` T^2, locally minimal in the objective.

    Raises
    ------
    NonConvergenceError
        When the DC-null residual or the amplitude bound cannot be met;
        ``best`` carries the best iterate, which holds the bound.
    """
    basis = problem.basis
    dt = problem.dt
    e = basis.sum(axis=0)  # net-identity coefficients, as identity_vector
    onset = problem.max_rate / (1.0 + problem.eps)  # where the amplitude barrier starts

    # null-space parametrization x = Z u (u in units of max_rate)
    _, _, vt = np.linalg.svd(e[None, :])
    z = vt[1:].T  # (2K, 2K-1)
    scale = problem.max_rate
    # samples and Theta are linear in u: their Jacobians, built once
    d_samples = basis @ z * scale
    d_theta = _theta(d_samples, dt)

    u0 = (z.T @ project_dephasing_robust(problem).as_vector()) / scale
    u0 /= max(1.0, np.abs(d_samples @ u0).max() * (1.0 + 1e-9) / onset)  # peak <= onset

    total_time = problem.total_time
    objective = problem.objective
    f_scale = max(abs(objective(d_theta @ u0)), 1e-300)

    mu, width = 1e-5, problem.max_rate - onset  # the barrier is -mu sum log(1 - y_m^2)
    # proximal damping: the objective valley is nearly flat along the
    # carrier-phase direction, so an undamped inner minimizer can drift far
    # from the initialization at negligible objective gain.  The proximal
    # term vanishes at the outer fixed point, leaving the original KKT
    # conditions intact.
    prox_mu = 0.05

    def make_lagrangian(lam, rho, u_ref):
        def fun(u):
            """The Lagrangian, its gradient and its Hessian in u; past the barrier
            (some |Omega_m| >= max_rate) the value is inf, before the objective is computed."""
            samples, theta = d_samples @ u, d_theta @ u
            y = np.maximum(np.abs(samples) - onset, 0.0) / width
            if y.max() >= 1.0:
                return np.inf, None, None
            f, df_dtheta, f_curvature = objective(theta, d_theta)
            h, dc_theta, dc_samples, dc_curvature = _dc_residual(
                theta, samples, dt, total_time, gradient=True)
            du = u - u_ref
            value = f / f_scale + lam @ h + 0.5 * rho * (h @ h) + 0.5 * prox_mu * (du @ du)
            mult = lam + rho * h
            # dL/dTheta and dL/dOmega as real N-vectors, one product with each Jacobian
            g_theta = df_dtheta / f_scale + mult[0] * dc_theta.real + mult[1] * dc_theta.imag
            g_samples = mult[0] * dc_samples.real + mult[1] * dc_samples.imag
            # the DC null's second derivatives are diagonal in m: mult . (Re, Im)
            # of i dc_theta (Theta Theta), i dc_samples (Theta Omega) and dc_curvature (Omega Omega)
            w_tt = mult[1] * dc_theta.real - mult[0] * dc_theta.imag
            w_ts = mult[1] * dc_samples.real - mult[0] * dc_samples.imag
            w_ss = mult[0] * dc_curvature.real + mult[1] * dc_curvature.imag
            if y.any():  # the barrier and its derivatives in Omega_m, all zero below the onset
                slack = 1.0 - y * y
                value -= mu * np.sum(np.log(slack))
                g_samples += (2.0 * mu / width) * y / slack * np.sign(samples)
                w_ss += (2.0 * mu / width ** 2) * (1.0 + y * y) / (slack * slack) * (y > 0.0)
            grad = g_theta @ d_theta + g_samples @ d_samples + prox_mu * du
            cross = d_theta.T @ (w_ts[:, None] * d_samples)
            jac = (np.stack([dc_theta.real, dc_theta.imag]) @ d_theta
                   + np.stack([dc_samples.real, dc_samples.imag]) @ d_samples)
            hess = (f_curvature / f_scale + d_theta.T @ (w_tt[:, None] * d_theta)
                    + cross + cross.T + d_samples.T @ (w_ss[:, None] * d_samples)
                    + rho * (jac.T @ jac) + prox_mu * np.eye(u.size))
            return value, grad, hess
        return fun

    lam = np.zeros(2)
    rho = 10.0
    u = best_u = u0  # no step changes an iterate in place
    best_norm = np.inf
    target_norm = np.sqrt(_FZ_TOL) * 0.95

    for _ in range(_MAX_OUTER):
        u = _newton(make_lagrangian(lam, rho, u), u, _INNER_MAXITER)
        h = _dc_residual(d_theta @ u, d_samples @ u, dt, total_time)
        hnorm = float(np.linalg.norm(h))
        if hnorm < best_norm:
            best_norm, best_u = hnorm, u.copy()
        if hnorm <= target_norm:
            break
        lam = lam + rho * h
        rho = min(rho * 8.0, 1e12)
    else:
        best = WaveformCoefficients.from_vector(problem.omega0, z @ (best_u * scale))
        raise NonConvergenceError(
            f"DC-null residual {best_norm:.3e} above target {target_norm:.3e}", best=best)

    coeffs = WaveformCoefficients.from_vector(problem.omega0, z @ (u * scale))
    ratio = float(np.max(np.abs(d_samples @ u))) / problem.max_rate
    if ratio > 1.0 + 1e-9:
        raise NonConvergenceError(
            f"amplitude bound not met: max|Omega|/Omega_max = {ratio:.6f}", best=coeffs)
    return coeffs


def _newton_step(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve (H + tau I) p = -g by Cholesky, with the smallest tau in 0, then
    1e-3 max|H_ii| times powers of 10, that makes the matrix positive definite
    (Levenberg damping).  Returns a zero step when none does (a non-finite H)."""
    eye = np.eye(grad.size)
    base = 1e-3 * float(np.max(np.abs(np.diag(hess))))
    for tau in (0.0, *(base * 10.0 ** k for k in range(12))):
        try:
            factor = np.linalg.cholesky(hess + tau * eye)
        except np.linalg.LinAlgError:
            continue
        return -np.linalg.solve(factor.T, np.linalg.solve(factor, grad))
    return np.zeros_like(grad)


def _newton(fun, u: np.ndarray, maxiter: int) -> np.ndarray:
    """Damped Newton descent on fun(u) -> (value, gradient, Hessian).

    Each step is _newton_step's, shortened by halving until the value falls
    by at least 1e-4 of the predicted decrease (Armijo).  Stops when the
    Newton decrement -g.p is at most 1e-14 |L|, when 30 halvings find no
    decrease, or after ``maxiter`` steps; returns the last accepted point.
    """
    value, grad, hess = fun(u)
    for _ in range(maxiter):
        step = _newton_step(hess, grad)
        decrement = -float(grad @ step)
        if decrement <= 1e-14 * abs(value):
            break
        for halving in range(30):
            t = 0.5 ** halving
            trial = u + t * step
            trial_value, trial_grad, trial_hess = fun(trial)
            if trial_value <= value - 1e-4 * t * decrement:
                break
        else:
            break
        u, value, grad, hess = trial, trial_value, trial_grad, trial_hess
    return u


def design_waveform(coeffs: WaveformCoefficients,
                    problem: DesignProblem) -> PiecewiseConstantWaveform:
    """Synthesize the waveform a coefficient vector denotes for this problem."""
    return synthesize(coeffs, problem.dpss_set, problem.dt)
