import numpy as np
import pytest
from scipy.integrate import quad

from qnspect import WaveformCoefficients, dephasing_robust, dephasing_ff_dc
from qnspect.errors import ParameterError
from qnspect.optimize import (
    amplitude_constraints,
    build_design_problem,
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
        from qnspect import optimize

        zero = WaveformCoefficients(small_problem.omega0, np.zeros(3), np.zeros(3))
        got = objective_Iz(zero, small_problem)
        want = objective_oracle(small_problem.total_time, optimize._DELTA_OMEGA,
                                np.pi / small_problem.dt)
        assert abs(got / want - 1) < 1e-3

    def test_time_reversal_invariance(self, small_problem):
        # |Fourier magnitude| of sin/cos(Theta) is unchanged by reversal, so
        # I_Z is; compare a coefficient vector against its reversed waveform
        from qnspect.optimize import _theta

        rng = np.random.default_rng(6)
        x = rng.normal(0, 0.3 * MHZ, 6)
        evaluate = small_problem.objective
        samples = small_problem.basis @ x
        theta = _theta(samples, small_problem.dt)
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


def riemann_objective_quadrature(problem, theta):
    """(1/pi) int_0^{pi/dt} F_Z/(w + delta_omega) dw by adaptive quadrature,
    one filter oscillation 2*pi/T at a time, of the left-endpoint
    F_Z = dt^2 (|S[cos Theta]|^2 + |S[sin Theta]|^2) summed densely."""
    from qnspect import optimize

    dt, t = problem.dt, np.arange(problem.n) * problem.dt
    trig = np.stack([np.cos(theta), np.sin(theta)])

    def integrand(w):
        fz = dt * dt * np.sum(np.abs(trig @ np.exp(1j * w * t)) ** 2)
        return fz / (w + optimize._DELTA_OMEGA) / np.pi

    nyquist = np.pi / dt
    edges = np.append(np.arange(0.0, nyquist, 2 * np.pi / problem.total_time), nyquist)
    return sum(quad(integrand, a, b, limit=200, epsabs=0.0, epsrel=1e-13)[0]
               for a, b in zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("n", [16, 33, 64])
def test_objective_matches_adaptive_quadrature(n):
    from qnspect.optimize import _theta

    problem = build_design_problem(0.1 * MHZ, n, 100e-6 / n, 5 * MHZ)
    evaluate = problem.objective
    rng = np.random.default_rng(n)
    for _ in range(3):
        theta = _theta(problem.basis @ rng.normal(0, 0.5 * MHZ, 6), problem.dt)
        want = riemann_objective_quadrature(problem, theta)
        assert abs(evaluate(theta) / want - 1) < 1e-12


def test_lag_kernel_matches_quadrature():
    # K_k = (1/pi) int_0^{pi/dt} cos(w k dt)/(w + delta_omega) dw, against
    # QUADPACK's cosine-weighted rule at the criterion-5 shape
    from qnspect.optimize import _lag_kernel

    n, dt, delta_omega = 20_000, 5e-9, 2 * np.pi * 1e3
    kernel = _lag_kernel(n, dt, delta_omega)
    assert kernel.shape == (n,)
    for k in (0, 1, n // 2, n - 1):
        weight = {"weight": "cos", "wvar": k * dt} if k else {}
        want = quad(lambda w: 1 / (w + delta_omega), 0, np.pi / dt, limit=500,
                    **weight)[0] / np.pi
        assert abs(kernel[k] / want - 1) < 1e-12


def test_objective_gradient_matches_central_differences():
    from qnspect.optimize import _theta

    problem = build_design_problem(0.2 * MHZ, 64, 100e-6 / 64, 5 * MHZ)
    theta = _theta(problem.basis @ np.random.default_rng(3).normal(0, 0.5 * MHZ, 6), problem.dt)
    _, grad, _ = problem.objective(theta, np.eye(problem.n))
    step = 1e-5
    want = np.array([(problem.objective(theta + step * unit)
                      - problem.objective(theta - step * unit)) / (2 * step)
                     for unit in np.eye(problem.n)])
    assert np.linalg.norm(grad - want) <= 1e-7 * np.linalg.norm(want)


class TestProblemAssembly:
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
        solution = solve_design(small_problem, seed=0)
        assert objective_Iz(solution, small_problem) <= objective_Iz(init, small_problem) * (1 + 1e-9)

    def test_batch_of_modulation_frequencies(self):
        # a coarse sweep, one solve per modulation frequency: every design
        # problem solves and stays feasible
        n, dt = 1000, 100e-9
        t = n * dt
        for k in (5, 10, 20):
            problem = build_design_problem(2 * np.pi * k / t, n, dt, 5 * MHZ, eps=0.1, seed=1)
            wf = design_waveform(solve_design(problem, seed=1), problem)
            assert np.abs(wf.samples).max() <= 5 * MHZ * (1 + 1e-9)
            assert dephasing_ff_dc(wf) < 1e-9 * t * t

    def test_objective_kernel_built_once_per_problem(self, monkeypatch):
        # solve_design and objective_Iz share one lag kernel per problem
        from qnspect import optimize

        sici = optimize.sici
        calls = []

        def counting_sici(x):
            calls.append(x.shape)
            return sici(x)

        monkeypatch.setattr(optimize, "sici", counting_sici)
        problem = build_design_problem(0.2 * MHZ, 400, 100e-6 / 400, 5 * MHZ, eps=0.1)
        solution = solve_design(problem)
        values = [objective_Iz(solution, problem) for _ in range(2)]
        assert len(calls) == 1
        assert values[0] == values[1]

    def test_nonconvergence_carries_best_iterate(self, small_problem, monkeypatch):
        from qnspect import optimize
        from qnspect.errors import NonConvergenceError

        monkeypatch.setattr(optimize, "_MAX_OUTER", 2)
        monkeypatch.setattr(optimize, "_INNER_MAXITER", 2)
        monkeypatch.setattr(optimize, "_FZ_TOL", 1e-32)
        with pytest.raises(NonConvergenceError) as err:
            solve_design(small_problem, seed=0)
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

        monkeypatch.setattr(lp_reduce, "_highs_max", refuse)
        problem = build_design_problem(0.2 * MHZ, 400, 100e-6 / 400, 5 * MHZ,
                                       eps=0.1, seed=3)
        solution = solve_design(problem, seed=3)
        assert np.abs(design_waveform(solution, problem).samples).max() <= problem.max_rate

    @pytest.mark.parametrize("max_rate, eps", [(0.0, 0.1), (-5 * MHZ, 0.1), (np.inf, 0.1),
                                               (np.nan, 0.1), (5 * MHZ, 0.0), (5 * MHZ, np.inf)])
    def test_bound_must_be_positive_and_finite(self, max_rate, eps):
        with pytest.raises(ParameterError):
            build_design_problem(0.1 * MHZ, 400, 250e-9, max_rate, eps=eps)

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_too_few_samples_is_a_parameter_error(self, n):
        # checked before the half-bandwidth NW/n is formed
        with pytest.raises(ParameterError, match="n >= 2"):
            build_design_problem(0.1 * MHZ, n, 250e-9, 5 * MHZ)


def captured_lagrangians(problem, monkeypatch):
    """Solve the problem and return every (Lagrangian, start point) that
    solve_design handed to its inner Newton solve, one per outer iteration."""
    from qnspect import optimize

    newton = optimize._newton
    calls = []

    def recording(fun, x0, maxiter):
        calls.append((fun, np.array(x0)))
        return newton(fun, x0, maxiter)

    monkeypatch.setattr(optimize, "_newton", recording)
    solve_design(problem)
    return calls


def central_difference(fun, u, step):
    grad = np.empty(u.size)
    for j in range(u.size):
        up, um = u.copy(), u.copy()
        up[j] += step
        um[j] -= step
        grad[j] = (fun(up)[0] - fun(um)[0]) / (2.0 * step)
    return grad


def gradient_test_problem(case):
    # the design-workload shape, and a short pulse whose hinge is active
    # at 1.2 times the start point (the start sits on the tightened bound)
    if case == "design":
        return build_design_problem(0.2 * MHZ, 400, 100e-6 / 400, 5 * MHZ, eps=0.1)
    problem = short_pulse_problem(1.9, 5.0)
    start = project_dephasing_robust(problem).as_vector()
    worst = np.abs(problem.basis @ start).max() * (1 + problem.eps) / problem.max_rate
    assert 1.2 * worst > 1.1
    return problem


class TestGradient:
    @pytest.mark.parametrize("case", ["design", "binding"])
    def test_lagrangian_gradient_matches_central_differences(self, case, monkeypatch):
        problem = gradient_test_problem(case)
        calls = captured_lagrangians(problem, monkeypatch)
        assert len(calls) >= 2
        rng = np.random.default_rng(11)
        # the first Lagrangian has no multiplier, the last the largest penalty
        for fun, u0 in (calls[0], calls[-1]):
            for _ in range(3):
                u = 1.2 * u0 + rng.normal(0.0, 0.05, u0.size) * np.abs(u0).max()
                _, grad, _ = fun(u)
                want = central_difference(fun, u, 1e-6 * np.abs(u).max())
                assert np.linalg.norm(grad - want) <= 1e-6 * np.linalg.norm(want)

    @pytest.mark.parametrize("case", ["design", "binding"])
    def test_lagrangian_hessian_matches_central_differences(self, case, monkeypatch):
        # the Newton Hessian, column by column, against central differences of
        # the exact gradient, at the points of the gradient test
        problem = gradient_test_problem(case)
        calls = captured_lagrangians(problem, monkeypatch)
        rng = np.random.default_rng(11)
        for fun, u0 in (calls[0], calls[-1]):
            for _ in range(3):
                u = 1.2 * u0 + rng.normal(0.0, 0.05, u0.size) * np.abs(u0).max()
                _, grad, hess = fun(u)
                step = 1e-6 * np.abs(u).max()
                want = np.empty((u.size, u.size))
                for j in range(u.size):
                    up, um = u.copy(), u.copy()
                    up[j] += step
                    um[j] -= step
                    want[:, j] = (fun(up)[1] - fun(um)[1]) / (2.0 * step)
                assert np.linalg.norm(hess - want) <= 1e-6 * np.linalg.norm(want)

    def test_dc_residual_is_the_lagrangians_dc_term(self, monkeypatch):
        # the exit check and the Lagrangian read the DC null through one call:
        # at every point where a solve checks the residual, the Lagrangian saw
        # the same (Re, Im) bits, and the derivative it used in Omega_m is the
        # partial derivative of that residual
        from qnspect import optimize

        real = optimize._dc_residual
        calls = []

        def recording(theta, samples, dt, total_time, gradient=False):
            out = real(theta, samples, dt, total_time, gradient)
            calls.append((theta.copy(), samples.copy(), gradient, out))
            return out

        monkeypatch.setattr(optimize, "_dc_residual", recording)
        problem = build_design_problem(0.2 * MHZ, 400, 100e-6 / 400, 5 * MHZ, eps=0.1)
        solve_design(problem)
        dt, total_time = problem.dt, problem.total_time
        seen = [(theta, samples, out) for theta, samples, gradient, out in calls if gradient]
        checks = [(theta, samples, out) for theta, samples, gradient, out in calls if not gradient]
        assert len(seen) > len(checks) >= 2
        for theta, samples, residual in checks:
            matches = [out for th, om, out in seen
                       if np.array_equal(th, theta) and np.array_equal(om, samples)]
            assert matches and all(np.array_equal(out[0], residual) for out in matches)
        theta, samples, (residual, _, d_samples, *_) = seen[-1]
        for m in (0, 137, 399):
            step = 1e-6 * np.abs(samples).max()
            up, down = samples.copy(), samples.copy()
            up[m] += step
            down[m] -= step
            want = (real(theta, up, dt, total_time) - real(theta, down, dt, total_time)) / (2 * step)
            assert abs(complex(*want) - d_samples[m]) <= 1e-6 * abs(d_samples[m])

    def test_segment_integral_derivative_matches_mpmath(self):
        # d/du int_0^dt e^{ius} ds = i int_0^dt s e^{ius} ds by adaptive
        # quadrature at 30 digits, over the x = u dt the design solves reach
        import mpmath

        from qnspect.filterfn import _segment_factor

        dt = 250e-9
        xs = np.concatenate([[0.0, 1e-12, 1e-8, 1e-4, 1e-2], np.linspace(0.05, 8.0, 160),
                             -np.array([1e-8, 0.3, 2.5, 7.9])])
        _, got = _segment_factor(xs / dt, dt)
        for x, value in zip(xs, got):
            with mpmath.workdps(30):
                u = mpmath.mpf(x) / dt
                want = complex(1j * mpmath.quad(lambda s: s * mpmath.expj(u * s), [0, dt]))
            assert abs(value - want) <= 2e-15 * abs(want)

    def test_segment_integral_second_derivative_matches_mpmath(self):
        # d^2/du^2 int_0^dt e^{ius} ds = -int_0^dt s^2 e^{ius} ds on the same x
        # grid, across the series cut at x = 2
        import mpmath

        from qnspect.filterfn import _J1_SERIES_CUT, _segment_factor

        dt = 250e-9
        xs = np.concatenate([[0.0, 1e-12, 1e-8, 1e-4, 1e-2], np.linspace(0.05, 8.0, 160),
                             -np.array([1e-8, 0.3, 2.5, 7.9])])
        assert xs.min() < 2 * _J1_SERIES_CUT < xs.max()
        phi, dphi, got = _segment_factor(xs / dt, dt, order=2)
        assert np.array_equal((phi, dphi), _segment_factor(xs / dt, dt))
        for x, value in zip(xs, got):
            with mpmath.workdps(30):
                u = mpmath.mpf(x) / dt
                want = complex(-mpmath.quad(lambda s: s * s * mpmath.expj(u * s), [0, dt]))
            assert abs(value - want) <= 2e-15 * abs(want)


# coefficients of the L-BFGS-B inner solve that the Newton loop replaced, at
# the design-workload shape (N = 400, T = 100 us, K = 3, Omega_max = 5 MHz,
# eps = 0.1), one BLAS thread
GOLDEN_COEFFICIENTS = {
    0.1: [-8567304.017802743, 18919.310131536917, 3777048.06578402, 26732050.09799611,
          -550986.3007827302, 10608665.793155389],
    0.2: [-10199380.5101881, -128640.35049208264, 11872503.189312762, 55053227.93509488,
          -554326.141773102, 20181862.41027554],
    0.3: [-7300247.614834588, -78991.01728492878, 22562433.395943426, 83646580.28390066,
          -584241.5509611777, 28558947.022469666],
}


@pytest.mark.parametrize("omega0_mhz", sorted(GOLDEN_COEFFICIENTS))
def test_design_coefficients_match_golden(omega0_mhz):
    problem = build_design_problem(omega0_mhz * MHZ, 400, 100e-6 / 400, 5 * MHZ, eps=0.1)
    got = solve_design(problem).as_vector()
    want = np.array(GOLDEN_COEFFICIENTS[omega0_mhz])
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
