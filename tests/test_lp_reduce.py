import itertools
import math

import numpy as np
import pytest
import scipy.optimize

from qnspect import dpss, lp_max, lp_reduce, max_violation, prune_constraints
from qnspect.errors import NonConvergenceError, ParameterError
from qnspect.lp_reduce import AffineConstraintSet, constraints_from_csv, constraints_to_csv
from qnspect.optimize import amplitude_constraints


def vertex_enumeration_max(objective, rows):
    """Brute-force LP oracle in 2-D: check all constraint-pair intersections.

    Returns (value, unbounded).  Only valid when the optimum, if finite, is
    attained at an intersection of two constraints (generic position).
    """
    best = -math.inf
    m = rows.shape[0]
    for i, j in itertools.combinations(range(m), 2):
        a = np.array([rows[i], rows[j]])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, np.ones(2))
        if np.all(rows @ x <= 1 + 1e-9):
            best = max(best, objective @ x)
    # unboundedness: some direction with objective gain violating nothing
    for phi in np.linspace(0, 2 * np.pi, 721):
        d = np.array([np.cos(phi), np.sin(phi)])
        if objective @ d > 1e-9 and np.all(rows @ d <= 1e-12):
            return None, True
    return best, False


def box(limit=1.0):
    rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]) / limit
    return AffineConstraintSet(rows=rows, labels=np.arange(4))


class TestLpMax:
    def test_unit_box(self):
        out = lp_max(np.array([1.0, 1.0]), box())
        assert out.status == "optimal"
        assert abs(out.value - 2.0) < 1e-9
        assert np.allclose(out.argmax, [1.0, 1.0], atol=1e-9)

    def test_empty_unbounded(self):
        empty = AffineConstraintSet(rows=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
        assert lp_max(np.array([1.0, 0.0]), empty).status == "unbounded"

    def test_argmax_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rows = rng.normal(size=(12, 3))
            cs = AffineConstraintSet(rows=rows, labels=np.arange(12))
            out = lp_max(rng.normal(size=3), cs)
            if out.status == "optimal":
                assert np.all(rows @ out.argmax <= 1 + 1e-9)

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(30):
            rows = rng.normal(size=(20, 2))
            c = rng.normal(size=2)
            cs = AffineConstraintSet(rows=rows, labels=np.arange(20))
            out = lp_max(c, cs)
            oracle, unbounded = vertex_enumeration_max(c, rows)
            if unbounded or oracle is None or not np.isfinite(oracle):
                continue
            assert out.status == "optimal"
            assert abs(out.value - oracle) < 1e-8 * max(1.0, abs(oracle))
            checked += 1
        assert checked >= 20

    def test_solver_failure_is_non_convergence(self, monkeypatch):
        def failing(*args, **kwargs):
            return scipy.optimize.OptimizeResult(status=4, message="numerical difficulties")

        monkeypatch.setattr(scipy.optimize, "linprog", failing)
        with pytest.raises(NonConvergenceError):
            lp_max(np.array([1.0, 1.0]), box())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_objective_is_rejected_before_highs(self, bad, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("linprog ran on a non-finite objective")

        monkeypatch.setattr(scipy.optimize, "linprog", unreachable)
        with pytest.raises(ParameterError):
            lp_max(np.array([1.0, bad]), box())

    def test_physical_scale_invariance(self):
        # rows in 1/(rad/s): tolerances must not depend on units
        cs = box(limit=2 * np.pi * 5e6)
        out = lp_max(np.array([1.0, 1.0]), cs)
        assert out.status == "optimal"
        assert abs(out.value - 2 * (2 * np.pi * 5e6)) < 1e-3


class TestMaxViolation:
    def test_duplicate_row(self):
        rows = np.vstack([box().rows, [[1.0, 0.0]]])
        cs = AffineConstraintSet(rows=rows, labels=np.arange(5))
        assert abs(max_violation(4, cs)) < 1e-9

    def test_dominated_row(self):
        rows = np.vstack([box().rows, [[0.5, 0.0]]])
        cs = AffineConstraintSet(rows=rows, labels=np.arange(5))
        assert abs(max_violation(4, cs) + 0.5) < 1e-9
        assert max_violation(np.int64(4), cs) == max_violation(4, cs)

    @pytest.mark.parametrize("row_index", [True, 1.0, 4.0, -1, 5])
    def test_row_index_must_be_an_integer_in_range(self, row_index):
        # a bool would index numpy as a mask, not as row 1
        rows = np.vstack([box().rows, [[0.5, 0.0]]])
        cs = AffineConstraintSet(rows=rows, labels=np.arange(5))
        with pytest.raises(ParameterError):
            max_violation(row_index, cs)

    def test_orthogonal_direction_unbounded(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        cs = AffineConstraintSet(rows=rows, labels=np.arange(3))
        assert max_violation(2, cs) == math.inf


class TestConstraintSet:
    def test_rejects_zero_rows(self):
        with pytest.raises(ParameterError):
            AffineConstraintSet(rows=np.array([[0.0, 0.0]]), labels=np.array([0]))

    def test_rejects_nonpositive_rhs(self):
        with pytest.raises(ParameterError):
            AffineConstraintSet.from_inequalities(np.eye(2), np.array([1.0, 0.0]))
        with pytest.raises(ParameterError):
            AffineConstraintSet.from_inequalities(np.eye(2), np.array([1.0, -2.0]))

    def test_normalization(self):
        cs = AffineConstraintSet.from_inequalities(np.array([[2.0, 0.0]]), np.array([4.0]))
        assert np.allclose(cs.rows, [[0.5, 0.0]])

    def test_csv_round_trip(self, tmp_path):
        cs = box()
        constraints_to_csv(cs, tmp_path / "c.csv")
        back = constraints_from_csv(tmp_path / "c.csv")
        assert np.array_equal(back.rows, cs.rows)

    @pytest.mark.parametrize("body", [None, "", "a_0,a_1\n1,0\n0,1,7\n", "a_0,a_1\n1,x\n"],
                             ids=["missing", "empty", "ragged", "non-numeric"])
    def test_malformed_csv_is_a_parameter_error(self, tmp_path, body):
        path = tmp_path / "c.csv"
        if body is not None:
            path.write_text(body)
        with pytest.raises(ParameterError):
            constraints_from_csv(path)


def sample_region(rows, count, rng):
    """Boundary-biased interior samples of {x : rows.x <= 1} (which holds 0)."""
    d = rows.shape[1]
    dirs = rng.normal(size=(count, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    gains = dirs @ rows.T
    with np.errstate(divide="ignore"):
        reach = np.where(gains > 0, 1.0 / gains, np.inf).min(axis=1)
    reach[~np.isfinite(reach)] = 1.0
    return dirs * (reach * rng.uniform(0.0, 1.0, count))[:, None]


@pytest.fixture(scope="module")
def waveform_family():
    n, num_orders = 3000, 2
    ds = dpss(n, 1.0 / n, num_orders)
    full = amplitude_constraints(ds, 2 * np.pi * 0.1e6, 20e-9,
                                 2 * np.pi * 5e6, num_orders)
    red = prune_constraints(full, eps=0.1, rng_seed=0)
    return full, red


class TestPrune:
    def test_octagon_keeps_only_facets(self):
        angles = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        facets = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        rows = np.vstack([facets, 0.7 * facets, 0.4 * facets])
        cs = AffineConstraintSet(rows=rows, labels=np.arange(24))
        red = prune_constraints(cs, eps=1e-9, rng_seed=3)
        assert red.num_rows == 8
        # already-minimal set passes through up to the (1+eps) tightening
        minimal = AffineConstraintSet(rows=facets, labels=np.arange(8))
        red2 = prune_constraints(minimal, eps=1e-9, rng_seed=5)
        assert red2.num_rows == 8
        assert np.allclose(np.sort(red2.rows, axis=0),
                           np.sort(facets * (1 + 1e-9), axis=0), rtol=1e-12)

    def test_requires_positive_eps(self):
        with pytest.raises(ParameterError):
            prune_constraints(box(), eps=0.0)

    def test_soundness(self, waveform_family):
        # no sampled point of the reduced region violates any original row
        full, red = waveform_family
        pts = sample_region(red.rows, 10000, np.random.default_rng(17))
        assert np.all(pts @ full.rows.T <= 1 + 1e-9)

    def test_eps_closeness(self, waveform_family):
        # any point of the true region, shrunk by (1+eps), is in the reduced one
        full, red = waveform_family
        pts = sample_region(full.rows, 10000, np.random.default_rng(23))
        assert np.all((pts / 1.1) @ red.rows.T <= 1 + 1e-9)

    def test_retained_count_stable_in_row_count(self):
        # continuously parameterized family: the active set size should not
        # scale with the number of input rows
        counts = []
        for n in (1500, 6000):
            ds = dpss(n, 1.0 / n, 1)
            full = amplitude_constraints(ds, 2 * np.pi * 0.1e6, 60e-9 * 1500 / n,
                                         2 * np.pi * 5e6, 1)
            red = prune_constraints(full, eps=0.1, rng_seed=0)
            counts.append(red.num_rows)
        assert abs(counts[1] - counts[0]) <= 0.5 * max(counts)

    def test_deterministic_in_seed(self):
        angles = np.linspace(0, 2 * np.pi, 40, endpoint=False)
        rows = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        rows = rows * np.linspace(0.9, 1.1, 40)[:, None]
        cs = AffineConstraintSet(rows=rows, labels=np.arange(40))
        a = prune_constraints(cs, eps=0.05, rng_seed=9)
        b = prune_constraints(cs, eps=0.05, rng_seed=9)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.labels, b.labels)


def plain_prune(full, eps, rng_seed):
    """Labels kept by both pruning passes with one LP per row and no vertex cache."""

    def violation(row, others):
        cs = AffineConstraintSet(rows=others, labels=np.arange(others.shape[0]))
        out = lp_max(row, cs)
        return math.inf if out.status == "unbounded" else out.value - 1.0

    rng = np.random.default_rng(rng_seed)
    active = []
    for idx in rng.permutation(full.num_rows):
        if not active or violation(full.rows[idx], full.rows[active]) > eps:
            active.append(idx)
    tightened = full.rows[active] * (1.0 + eps)
    keep = np.ones(len(active), dtype=bool)
    for j in rng.permutation(len(active)):
        mask = keep.copy()
        mask[j] = False
        if violation(tightened[j], tightened[mask]) <= 0.0:
            keep[j] = False
    return full.labels[active][keep]


def octagon_with_redundant_rows(eps):
    """Octagon facets, rows that touch or miss it, and (1 + eps) times a row
    whose maximum over the octagon is 1 at one vertex: that last row's
    violation is eps to rounding."""
    angles = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    facets = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    corners = (facets + np.roll(facets, -1, axis=0)) / 2
    rows = np.vstack([facets, 0.7 * corners, 0.4 * facets, (1.0 + eps) * corners[:1]])
    return AffineConstraintSet(rows=rows, labels=np.arange(rows.shape[0]))


def spy_on_lps(monkeypatch):
    """The objective of every LP solved from here on, in order."""
    objectives = []
    solve = lp_reduce._highs_max

    def spy(objective, rows):
        objectives.append(objective.copy())
        return solve(objective, rows)

    monkeypatch.setattr(lp_reduce, "_highs_max", spy)
    return objectives


class TestCertifiedPass:
    """The vertex cache only skips LPs: the kept labels are the plain pass's."""

    def test_waveform_family_matches_plain_pass(self, waveform_family, monkeypatch):
        full, _ = waveform_family
        expected = plain_prune(full, 0.1, 0)
        lps = spy_on_lps(monkeypatch)
        assert np.array_equal(prune_constraints(full, eps=0.1, rng_seed=0).labels, expected)
        assert len(lps) < full.num_rows / 10

    def test_single_order_family_matches_plain_pass(self, monkeypatch):
        n = 800
        full = amplitude_constraints(dpss(n, 1.0 / n, 1), 2 * np.pi * 0.1e6, 90e-6 / n,
                                     2 * np.pi * 5e6, 1)
        expected = plain_prune(full, 0.1, 4)
        lps = spy_on_lps(monkeypatch)
        assert np.array_equal(prune_constraints(full, eps=0.1, rng_seed=4).labels, expected)
        assert len(lps) < full.num_rows / 10

    def test_octagon_matches_plain_pass(self):
        cs = octagon_with_redundant_rows(0.05)
        for seed in range(4):
            red = prune_constraints(cs, eps=0.05, rng_seed=seed)
            assert np.array_equal(red.labels, plain_prune(cs, 0.05, seed))

    def test_violation_at_eps_goes_to_the_lp(self, monkeypatch):
        eps, seed = 0.1, 3
        cs = octagon_with_redundant_rows(eps)
        expected = plain_prune(cs, eps, seed)
        # the row comes last, when a cached vertex certifies it (lambda > 0)
        assert np.random.default_rng(seed).permutation(cs.num_rows)[-1] == cs.num_rows - 1
        lps = spy_on_lps(monkeypatch)
        red = prune_constraints(cs, eps=eps, rng_seed=seed)
        assert any(np.array_equal(objective, cs.rows[-1]) for objective in lps)
        assert np.array_equal(red.labels, expected)
