import numpy as np
import pytest
from scipy.integrate import quad

from qnspect import WaveformCoefficients, dephasing_robust, dephasing_ff_dc
from qnspect.errors import ParameterError
from qnspect.optimize import (
    amplitude_constraints,
    build_design_problem,
    default_objective_grid,
    design_waveform,
    identity_vector,
    objective_Iz,
    project_dephasing_robust,
    solve_design,
)

MHZ = 2 * np.pi * 1e6


@pytest.fixture(scope="module")
def small_problem():
    # reduced-scale instance: same T and modulation as the reference design,
    # coarser time grid so the whole solve runs in seconds
    return build_design_problem(
        omega0=0.1 * MHZ, n=2000, dt=50e-9, max_rate=5 * MHZ,
        time_bandwidth=1.0, num_orders=3, eps=0.1, seed=0,
    )


def objective_oracle(total_time, delta_omega, nyquist):
    """Adaptive quadrature of the free-evolution objective, split per
    filter oscillation so the oscillatory tail cannot silently misconverge."""
    def g(w):
        fz = 4 * np.sin(w * total_time / 2) ** 2 / w**2 if w * total_time > 1e-6 \
            else total_time**2
        return fz / (w + delta_omega) / np.pi

    period = 2 * np.pi / total_time
    total = quad(g, 0, delta_omega, limit=200)[0]
    total += quad(g, delta_omega, period, limit=200)[0]
    for k in range(1, 400):
        total += quad(g, k * period, (k + 1) * period, limit=200)[0]
    # averaged tail: sin^2 -> 1/2
    total += quad(lambda w: 2 / (w * w * (w + delta_omega)) / np.pi,
                  400 * period, nyquist, limit=200)[0]
    return total


class TestObjective:
    def test_free_evolution_matches_quadrature(self, small_problem):
        zero = WaveformCoefficients(small_problem.omega0, np.zeros(3), np.zeros(3))
        got = objective_Iz(zero, small_problem)
        want = objective_oracle(small_problem.total_time, small_problem.delta_omega,
                                np.pi / small_problem.dt)
        assert abs(got / want - 1) < 1e-3

    def test_time_reversal_invariance(self, small_problem):
        # |Fourier magnitude| of sin/cos(Theta) is unchanged by reversal, so
        # I_Z is; compare a coefficient vector against its reversed waveform
        from qnspect.optimize import _make_objective, _theta_of

        rng = np.random.default_rng(6)
        x = rng.normal(0, 0.3 * MHZ, 6)
        evaluate = _make_objective(small_problem)
        theta = _theta_of(x, small_problem)
        samples = small_problem.basis @ x
        rev = samples[::-1]
        theta_rev = np.concatenate(([0.0], np.cumsum(rev * small_problem.dt)))[:-1]
        a = evaluate(theta)
        b = evaluate(theta_rev)
        # exactly invariant in the continuum; the Riemann convention leaves
        # a one-sample boundary term of order dt/T
        assert abs(a / b - 1) < 10 * small_problem.dt / small_problem.total_time

    def test_order_mismatch_rejected(self, small_problem):
        bad = WaveformCoefficients(small_problem.omega0, np.zeros(2), np.zeros(2))
        with pytest.raises(ParameterError):
            objective_Iz(bad, small_problem)


def dense_riemann_objective(problem, theta):
    """(1/pi) trapz F_Z/(w + delta_omega) on the default grid, with the
    left-endpoint F_Z = dt^2 (|S[cos Theta]|^2 + |S[sin Theta]|^2) written as
    a dense (M, N) phase matrix."""
    grid = default_objective_grid(problem.n, problem.dt, problem.delta_omega)
    t = np.arange(problem.n) * problem.dt
    phase = np.exp(1j * np.outer(grid, t))
    fz = problem.dt**2 * (np.abs(phase @ np.cos(theta)) ** 2 + np.abs(phase @ np.sin(theta)) ** 2)
    return np.trapezoid(fz / (grid + problem.delta_omega), grid) / np.pi


@pytest.mark.parametrize("n", [400, 401])
def test_objective_matches_dense_riemann_sum(n):
    from qnspect.optimize import _make_objective, _theta_of

    problem = build_design_problem(0.1 * MHZ, n, 100e-6 / n, 5 * MHZ, eps=0.1, seed=0)
    evaluate = _make_objective(problem)
    rng = np.random.default_rng(n)
    for _ in range(3):
        theta = _theta_of(rng.normal(0, 0.5 * MHZ, 6), problem)
        want = dense_riemann_objective(problem, theta)
        assert abs(evaluate(theta) / want - 1) < 1e-12


@pytest.mark.parametrize("n, dt", [(400, 250e-9), (2000, 50e-9), (20_000, 5e-9)])
def test_objective_pieces_are_even_grids(n, dt):
    from qnspect.filterfn import _is_even_grid
    from qnspect.optimize import _objective_pieces

    pieces = _objective_pieces(n, dt, 2 * np.pi * 1e3)
    assert len(pieces) == 3
    for piece in pieces:
        assert _is_even_grid(piece, n * dt)
    grid = default_objective_grid(n, dt, 2 * np.pi * 1e3)
    assert np.array_equal(np.union1d(np.union1d(*pieces[:2]), pieces[2]), grid)


class TestProblemAssembly:
    def test_grid_reaches_nyquist(self, small_problem):
        assert small_problem.objective_grid[-1] >= np.pi / small_problem.dt * (1 - 1e-12)

    def test_constraint_family_shape(self):
        from qnspect import dpss

        ds = dpss(500, 1.0 / 500, 2)
        full = amplitude_constraints(ds, 0.1 * MHZ, 50e-9, 5 * MHZ, 2)
        assert full.rows.shape == (1000, 4)
        # each row evaluates the waveform sample bound at one time step
        x = np.array([0.1 * MHZ, 0.0, 0.0, 0.0])
        from qnspect.waveform import modulation_basis

        samples = modulation_basis(ds, 0.1 * MHZ, 50e-9, 2) @ x
        lhs = full.rows @ x
        assert abs(lhs[:500] - samples / (5 * MHZ)).max() < 1e-15

    def test_identity_vector_matches_net_rotation(self, small_problem):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 0.2 * MHZ, 6)
        e = identity_vector(small_problem.dpss_set, small_problem.omega0,
                            small_problem.dt, 3)
        wf = design_waveform(WaveformCoefficients.from_vector(small_problem.omega0, x),
                             small_problem)
        assert abs(wf.net_rotation - small_problem.dt * (e @ x)) < 1e-9 * abs(wf.net_rotation) + 1e-12


class TestSolve:
    def test_recovers_dephasing_robust(self, small_problem):
        solution = solve_design(small_problem, seed=0)
        wf = design_waveform(solution, small_problem)
        t = small_problem.total_time
        reference = dephasing_robust(t, 10, 1, small_problem.n)
        distance = np.linalg.norm(wf.samples - reference.samples) \
            / np.linalg.norm(reference.samples)
        assert distance < 0.1
        # all three constraint classes
        full = amplitude_constraints(small_problem.dpss_set, small_problem.omega0,
                                     small_problem.dt, small_problem.max_rate, 3)
        assert np.all(full.rows @ solution.as_vector() <= 1 + 1e-9)
        assert abs(wf.net_rotation) < 1e-9 * small_problem.max_rate * t
        assert dephasing_ff_dc(wf) < 1e-9 * t * t

    def test_descent_from_projected_init(self, small_problem):
        init = project_dephasing_robust(small_problem)
        solution = solve_design(small_problem, init=init, seed=0)
        assert objective_Iz(solution, small_problem) <= objective_Iz(init, small_problem) * (1 + 1e-9)

    def test_batch_of_modulation_frequencies(self):
        # a coarse sweep in batch mode: every design problem solves, stays
        # feasible, and the parallel dispatch returns in input order
        from qnspect.optimize import solve_many

        n, dt = 1000, 100e-9
        t = n * dt
        problems = [build_design_problem(2 * np.pi * k / t, n, dt, 5 * MHZ,
                                         eps=0.1, seed=1) for k in (5, 10, 20)]
        solutions = solve_many(problems, seed=1, processes=2)
        serial = solve_many(problems, seed=1, processes=1)
        for problem, solution, ref in zip(problems, solutions, serial):
            assert np.array_equal(solution.as_vector(), ref.as_vector())
            wf = design_waveform(solution, problem)
            assert np.abs(wf.samples).max() <= 5 * MHZ * (1 + 1e-9)
            assert dephasing_ff_dc(wf) < 1e-9 * t * t

    def test_nonconvergence_carries_best_iterate(self, small_problem):
        from qnspect.errors import NonConvergenceError

        with pytest.raises(NonConvergenceError) as err:
            solve_design(small_problem, seed=0, max_outer=2, inner_maxiter=2,
                         fz_tol=1e-32)
        assert err.value.best is not None
        assert err.value.best.num_orders == 3


def short_pulse_problem(omega0_mhz, max_rate_mhz):
    # T = 20 us and omega0/2pi near 1 MHz: the DC null needs amplitudes of the
    # order of max_rate, so the amplitude bound shapes the solution
    return build_design_problem(omega0_mhz * MHZ, 400, 20e-6 / 400, max_rate_mhz * MHZ,
                                num_orders=3, eps=0.1, seed=1)


class TestAmplitudeBound:
    def test_binding_bound_is_met(self):
        problem = short_pulse_problem(1.9, 5.0)
        solution = solve_design(problem, seed=1)
        wf = design_waveform(solution, problem)
        ratio = np.abs(wf.samples).max() / problem.max_rate
        assert 0.9 < ratio <= 1 + 1e-9
        assert dephasing_ff_dc(wf) < 1e-9 * problem.total_time**2

    def test_unmeetable_bound_raises_with_best_iterate(self):
        from qnspect.errors import NonConvergenceError

        problem = short_pulse_problem(1.0, 2.0)
        with pytest.raises(NonConvergenceError) as err:
            solve_design(problem, seed=1)
        best = err.value.best
        assert best is not None and best.num_orders == 3
        assert np.abs(design_waveform(best, problem).samples).max() > problem.max_rate

    def test_design_path_runs_no_lp(self, monkeypatch):
        from qnspect import lp_reduce

        def refuse(*args, **kwargs):
            raise AssertionError("LP on the design path")

        monkeypatch.setattr(lp_reduce, "_simplex_max", refuse)
        problem = build_design_problem(0.2 * MHZ, 400, 100e-6 / 400, 5 * MHZ,
                                       eps=0.1, seed=3)
        solution = solve_design(problem, seed=3)
        assert np.abs(design_waveform(solution, problem).samples).max() <= problem.max_rate

    @pytest.mark.parametrize("max_rate, eps", [(0.0, 0.1), (-5 * MHZ, 0.1), (np.inf, 0.1),
                                               (np.nan, 0.1), (5 * MHZ, 0.0), (5 * MHZ, np.inf)])
    def test_bound_must_be_positive_and_finite(self, max_rate, eps):
        with pytest.raises(ParameterError):
            build_design_problem(0.1 * MHZ, 400, 250e-9, max_rate, eps=eps)


def test_default_grid_structure():
    grid = default_objective_grid(1000, 1e-8, 2 * np.pi * 1e3)
    assert grid[0] == 0.0
    assert np.all(np.diff(grid) > 0)
    assert abs(grid[-1] - np.pi / 1e-8) < 1e-3
