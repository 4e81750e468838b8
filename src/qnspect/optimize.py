"""Constrained design of dephasing-suppressing amplitude waveforms.

The search space is the 2K-dimensional coefficient vector of cosine/sine
modulated DPSS.  The objective is the regularized low-frequency weight of
the dephasing filter,

    I_Z(x) = (1/pi) int_0^Nyquist F_Z(w, x) / (w + delta_omega) dw,

minimized subject to (i) the LP-reduced amplitude constraints, (ii) the
linear net-identity constraint, and (iii) the nonlinear DC null
F_Z(0, x) = 0.  Structure of the solver:

* the identity constraint is linear and homogeneous, so it is eliminated
  exactly by parametrizing x on the null space of its coefficient vector;
* F_Z(0) = |int e^{i Theta}|^2 is split into its real and imaginary parts,
  two smooth equality constraints driven to zero by an augmented-Lagrangian
  outer loop;
* the reduced linear rows enter as a quadratic hinge penalty, which is exact
  because the minimizer sits strictly inside the amplitude polytope;
* the inner minimizer is quasi-Newton (L-BFGS) with central-difference
  gradients over the handful of coefficients.

Objective quadrature runs in the plain Riemann convention for F_Z, which is
indistinguishable from the segment-exact transform everywhere the integrand
carries weight but lets a zero-padded FFT evaluate the whole uniform part of
the grid at once.  The default grid refines near DC (spacing well below
delta_omega) and continues at 2*pi/(8T) up to Nyquist; the refinement is
required for the quadrature to track adaptive integration of the smooth
closed forms to 0.1%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import NonConvergenceError, ParameterError
from .filterfn import _segment_integral
from .lp_reduce import AffineConstraintSet, prune_constraints
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
    "default_objective_grid",
    "objective_Iz",
    "project_dephasing_robust",
    "solve_design",
    "solve_many",
    "design_waveform",
]


@dataclass(frozen=True)
class DesignProblem:
    """Everything solve_design needs for one modulation frequency."""

    dpss_set: DpssSet
    omega0: float
    dt: float
    n: int
    num_orders: int
    max_rate: float
    reduced_constraints: AffineConstraintSet
    delta_omega: float
    objective_grid: np.ndarray

    def __post_init__(self):
        if self.delta_omega <= 0:
            raise ParameterError("delta_omega must be positive")
        grid = np.asarray(self.objective_grid, dtype=float)
        object.__setattr__(self, "objective_grid", grid)
        nyquist = np.pi / self.dt
        if grid[-1] < nyquist * (1 - 1e-9):
            raise ParameterError("objective grid must reach the Nyquist frequency")

    @property
    def total_time(self) -> float:
        return self.n * self.dt

    @property
    def basis(self) -> np.ndarray:
        return modulation_basis(self.dpss_set, self.omega0, self.dt, self.num_orders)


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


def default_objective_grid(n: int, dt: float, delta_omega: float) -> np.ndarray:
    """Uniform 2*pi/(8T) spacing up to Nyquist plus a fine patch near DC.

    The patch (spacing ~ delta_omega/32 below 8*delta_omega) resolves the
    1/(w + delta_omega) weight, which the uniform spacing cannot once
    delta_omega < 2*pi/(8T); eight points per 2*pi/T linewidth keep the
    trapezoid rule on the oscillatory filter below the 0.1% level.
    """
    total_time = n * dt
    base = 2.0 * np.pi / (8.0 * total_time)
    uniform = np.arange(0, 4 * n + 1) * base  # reaches pi/dt exactly
    head = np.linspace(0.0, 8.0 * delta_omega, 129)
    turnover = np.linspace(0.0, 16.0 * np.pi / total_time, 321)
    return np.union1d(np.union1d(uniform, head), turnover)


def build_design_problem(omega0: float, n: int, dt: float, max_rate: float,
                         time_bandwidth: float = 1.0, num_orders: int = 3,
                         eps: float = 0.1, seed: int = 0,
                         delta_omega: float = 2.0 * np.pi * 1e3,
                         objective_grid=None) -> DesignProblem:
    """Assemble DPSS basis, pruned constraints and quadrature grid."""
    dpss_set = dpss(n, time_bandwidth / n, num_orders)
    full = amplitude_constraints(dpss_set, omega0, dt, max_rate, num_orders)
    reduced = prune_constraints(full, eps=eps, rng_seed=seed)
    if objective_grid is None:
        objective_grid = default_objective_grid(n, dt, delta_omega)
    return DesignProblem(
        dpss_set=dpss_set, omega0=omega0, dt=dt, n=n, num_orders=num_orders,
        max_rate=max_rate, reduced_constraints=reduced, delta_omega=delta_omega,
        objective_grid=np.asarray(objective_grid, dtype=float),
    )


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

_PAD = 8


def _make_objective(problem: DesignProblem):
    """Closure evaluating I_Z from a rotation-angle trajectory.

    F_Z is evaluated in the left-endpoint Riemann convention: grid points on
    the pad-8 DFT bins come from two FFTs, the remaining refinement points
    from one precomputed phase matrix.  (The Riemann and segment-exact
    conventions differ only by O((w dt)^2), invisible under the 1/(w + dw)
    weight.)
    """
    n = problem.n
    dt = problem.dt
    grid = problem.objective_grid
    base = 2.0 * np.pi / (_PAD * n * dt)
    idx = grid / base
    nearest = np.round(idx)
    aligned = (np.abs(idx - nearest) < 1e-9 * np.maximum(1.0, idx)) & (nearest <= _PAD * n // 2)
    bins = nearest[aligned].astype(int)
    stray = np.flatnonzero(~aligned)
    t = np.arange(n) * dt
    stray_phase = np.exp(1j * np.outer(grid[stray], t)) if stray.size else None
    weight = 1.0 / (grid + problem.delta_omega)

    def evaluate(theta: np.ndarray) -> float:
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        fz = np.empty(grid.size)
        cos_sp = np.fft.rfft(cos_t, n=_PAD * n)
        sin_sp = np.fft.rfft(sin_t, n=_PAD * n)
        fz[aligned] = dt * dt * (np.abs(cos_sp[bins]) ** 2 + np.abs(sin_sp[bins]) ** 2)
        if stray.size:
            fz[stray] = dt * dt * (
                np.abs(stray_phase @ cos_t) ** 2 + np.abs(stray_phase @ sin_t) ** 2
            )
        return float(np.trapezoid(fz * weight, grid) / np.pi)

    return evaluate


def _theta_of(x: np.ndarray, problem: DesignProblem) -> np.ndarray:
    samples = problem.basis @ x
    return np.concatenate(([0.0], np.cumsum(samples * problem.dt)))[:-1]


def objective_Iz(coeffs: WaveformCoefficients, problem: DesignProblem) -> float:
    """(1/pi) int F_Z(w)/(w + delta_omega) dw on the problem's grid."""
    if coeffs.num_orders != problem.num_orders:
        raise ParameterError("coefficient order count does not match the problem")
    return _make_objective(problem)(_theta_of(coeffs.as_vector(), problem))


def _dc_residual(theta: np.ndarray, samples: np.ndarray, dt: float,
                 total_time: float) -> np.ndarray:
    """(Re, Im) of int_0^T e^{i Theta(t)} dt / T with segment-exact integrals."""
    integral = np.sum(np.exp(1j * theta) * _segment_integral(samples, dt)) / total_time
    return np.array([integral.real, integral.imag])


# ---------------------------------------------------------------------------
# Initialization and solve
# ---------------------------------------------------------------------------


def project_dephasing_robust(problem: DesignProblem,
                             root_index: int = 1) -> WaveformCoefficients:
    """Least-squares projection of the dephasing-robust sinusoid onto the basis.

    The target is Omega_0 sin(omega0 t) with Omega_0 = omega0 * j_{0,root};
    the projected coefficients are then shrunk (if necessary) into the
    reduced feasible region.
    """
    omega0 = problem.omega0
    amp = omega0 * bessel_j0_roots(root_index)[-1]
    m = np.arange(problem.n)
    target = amp * np.sin(omega0 * m * problem.dt)
    x, *_ = np.linalg.lstsq(problem.basis, target, rcond=None)
    x = _shrink_into_region(x, problem.reduced_constraints)
    return WaveformCoefficients.from_vector(omega0, x)


def _shrink_into_region(x: np.ndarray, constraints: AffineConstraintSet) -> np.ndarray:
    worst = float(np.max(constraints.rows @ x)) if constraints.num_rows else 0.0
    if worst > 1.0:
        x = x / (worst * (1.0 + 1e-9))
    return x


def solve_design(problem: DesignProblem, init: WaveformCoefficients | None = None,
                 seed: int = 0, max_outer: int = 14, inner_maxiter: int = 80,
                 fz_tol: float = 1e-9) -> WaveformCoefficients:
    """Minimize the dephasing objective over the reduced feasible region.

    Returns coefficients satisfying the reduced linear rows, the identity
    constraint (exactly, by construction) and F_Z(0) <= fz_tol * T^2, locally
    minimal in the objective.

    Raises
    ------
    NonConvergenceError
        When the DC-null residual cannot be met; ``best`` carries the best
        iterate.
    """
    if init is None:
        init = project_dephasing_robust(problem)
    if init.num_orders != problem.num_orders:
        raise ParameterError("init order count does not match the problem")

    basis = problem.basis
    rows = problem.reduced_constraints.rows
    e = identity_vector(problem.dpss_set, problem.omega0, problem.dt, problem.num_orders)

    # null-space parametrization x = Z u (u in units of max_rate)
    _, _, vt = np.linalg.svd(e[None, :])
    z = vt[1:].T  # (2K, 2K-1)
    scale = problem.max_rate

    x0 = _shrink_into_region(init.as_vector(), problem.reduced_constraints)
    u0 = (z.T @ x0) / scale

    total_time = problem.total_time
    objective = _make_objective(problem)
    f_scale = max(abs(objective(_theta_of(z @ (u0 * scale), problem))), 1e-300)

    def pieces(u):
        x = z @ (u * scale)
        samples = basis @ x
        theta = np.concatenate(([0.0], np.cumsum(samples * problem.dt)))[:-1]
        f = objective(theta) / f_scale
        h = _dc_residual(theta, samples, problem.dt, total_time)
        slack = rows @ x - 1.0 if rows.size else np.zeros(0)
        return f, h, slack

    rho_in = 1e4
    # proximal damping: the objective valley is nearly flat along the
    # carrier-phase direction, so an undamped inner minimizer can drift far
    # from the initialization at negligible objective gain.  The proximal
    # term vanishes at the outer fixed point, leaving the original KKT
    # conditions intact.
    prox_mu = 0.05

    def make_lagrangian(lam, rho, u_ref):
        def fun(u):
            f, h, slack = pieces(u)
            pen = np.maximum(slack, 0.0)
            du = u - u_ref
            return (f + lam @ h + 0.5 * rho * (h @ h) + rho_in * (pen @ pen)
                    + 0.5 * prox_mu * (du @ du))
        return fun

    def gradient(fun, u, step=1e-7):
        g = np.empty(u.size)
        for j in range(u.size):
            up, um = u.copy(), u.copy()
            up[j] += step
            um[j] -= step
            g[j] = (fun(up) - fun(um)) / (2.0 * step)
        return g

    lam = np.zeros(2)
    rho = 10.0
    u = u0.copy()
    best_u = u0.copy()
    best_norm = np.inf
    target_norm = np.sqrt(fz_tol) * 0.95

    for _ in range(max_outer):
        fun = make_lagrangian(lam, rho, u)
        res = minimize(fun, u, jac=lambda v: gradient(fun, v), method="L-BFGS-B",
                       options={"maxiter": inner_maxiter, "ftol": 1e-14, "gtol": 1e-12})
        u = res.x
        _, h, _ = pieces(u)
        hnorm = float(np.linalg.norm(h))
        if hnorm < best_norm:
            best_norm, best_u = hnorm, u.copy()
        if hnorm <= target_norm:
            break
        lam = lam + rho * h
        rho = min(rho * 8.0, 1e12)
    else:
        u = best_u
        _, h, _ = pieces(u)
        if float(np.linalg.norm(h)) > target_norm:
            best = WaveformCoefficients.from_vector(problem.omega0, z @ (best_u * scale))
            raise NonConvergenceError(
                f"DC-null residual {best_norm:.3e} above target {target_norm:.3e}",
                best=best,
            )

    x = z @ (u * scale)
    return WaveformCoefficients.from_vector(problem.omega0, x)


def design_waveform(coeffs: WaveformCoefficients,
                    problem: DesignProblem) -> PiecewiseConstantWaveform:
    """Synthesize the waveform a coefficient vector denotes for this problem."""
    return synthesize(coeffs, problem.dpss_set, problem.dt)


def _solve_one(job):
    problem, seed = job
    return solve_design(problem, seed=seed)


def solve_many(problems, seed: int = 0, processes: int | None = None):
    """Solve independent design problems (one per modulation frequency).

    Each solve is single-threaded and deterministic given the seed; the
    batch is dispatched to a process pool and collected in input order, so
    the result list does not depend on scheduling.
    """
    jobs = [(problem, seed) for problem in problems]
    if processes == 1 or len(jobs) == 1:
        return [_solve_one(job) for job in jobs]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(_solve_one, jobs))
