"""Dense linear programming and approximate-redundancy constraint pruning.

The waveform amplitude bound |Omega_m| <= Omega_max generates 2N affine
constraints over the 2K basis coefficients, almost all of which are
(approximately) redundant because neighbouring time samples give nearly
identical rows.  The pruning pass keeps a constraint only when a small LP
shows it can be violated by more than eps while all previously kept rows
hold; a second pass tightens the survivors by (1 + eps) and drops anything
exactly redundant.  The result is a polytope that is a subset of the
original feasible region yet within a factor (1 + eps) of it.  It serves
the ``prune`` command; the design solver bounds the samples directly.

The LP itself is a dense primal simplex over free variables (split into
positive/negative parts plus slacks).  Every instance here has the origin
feasible (all right-hand sides are 1), so no phase-1 is needed.  Pivoting is
Dantzig's rule with deterministic tie-breaking, falling back to Bland's rule
after a long degenerate streak so cycling is impossible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "AffineConstraintSet",
    "LpOutcome",
    "lp_max",
    "max_violation",
    "prune_constraints",
    "constraints_to_csv",
    "constraints_from_csv",
]

_COST_TOL = 1e-9
_PIVOT_TOL = 1e-11
_BLAND_AFTER = 300


@dataclass(frozen=True)
class AffineConstraintSet:
    """Rows a_m with implicit right-hand side 1: the region {x : a_m . x <= 1}."""

    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if rows.size == 0:
            rows = rows.reshape(0, 0)
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)
        if rows.shape[0] != labels.shape[0]:
            raise ParameterError("one label per constraint row required")
        if rows.shape[0] and not np.all(np.any(rows != 0.0, axis=1)):
            raise ParameterError("all-zero constraint rows are not allowed")
        if rows.size and not np.all(np.isfinite(rows)):
            raise ParameterError("constraint rows must be finite")

    @classmethod
    def from_inequalities(cls, coefficients, rhs) -> "AffineConstraintSet":
        """Normalize a_m . x <= rhs_m to standard form (rhs = 1).

        Rows with nonpositive constant term have no natural violation scale
        and are rejected.
        """
        coefficients = np.atleast_2d(np.asarray(coefficients, dtype=float))
        rhs = np.asarray(rhs, dtype=float)
        if np.any(rhs <= 0.0):
            raise ParameterError("constraints must have a positive constant term")
        rows = coefficients / rhs[:, None]
        return cls(rows=rows, labels=np.arange(rows.shape[0]))

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def dimension(self) -> int:
        return self.rows.shape[1]

    def contains(self, points: np.ndarray, slack: float = 1e-12) -> np.ndarray:
        """Vectorized membership test for an (R, d) array of points."""
        points = np.atleast_2d(points)
        return np.all(points @ self.rows.T <= 1.0 + slack, axis=1)


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" or "unbounded"
    value: float = math.nan
    argmax: np.ndarray | None = None


def _simplex_max(objective: np.ndarray, rows: np.ndarray) -> LpOutcome:
    """Maximize c.x subject to rows.x <= 1 with x free."""
    m, d = rows.shape if rows.size else (0, objective.size)
    if m == 0:
        if np.all(np.abs(objective) == 0.0):
            return LpOutcome(status="optimal", value=0.0, argmax=np.zeros(d))
        return LpOutcome(status="unbounded")

    # column equilibration: tolerances below assume O(1) tableau entries,
    # while raw rows can carry arbitrary physical units
    col_scale = np.abs(rows).max(axis=0)
    col_scale[col_scale == 0.0] = 1.0
    rows = rows / col_scale
    objective = objective / col_scale

    # columns: x+ (d), x- (d), slacks (m); rhs kept separately
    tableau = np.hstack([rows, -rows, np.eye(m)])
    rhs = np.ones(m)
    cost = np.concatenate([objective, -objective, np.zeros(m)])
    value = 0.0
    basis = 2 * d + np.arange(m)

    degenerate_streak = 0
    for iteration in range(20000):
        use_bland = degenerate_streak > _BLAND_AFTER
        eligible = np.flatnonzero(cost > _COST_TOL)
        if eligible.size == 0:
            x = np.zeros(d)
            for i, b in enumerate(basis):
                if b < d:
                    x[b] += rhs[i]
                elif b < 2 * d:
                    x[b - d] -= rhs[i]
            return LpOutcome(status="optimal", value=value, argmax=x / col_scale)
        if use_bland:
            enter = int(eligible[0])
        else:
            enter = int(eligible[np.argmax(cost[eligible])])

        col = tableau[:, enter]
        positive = col > _PIVOT_TOL
        if not np.any(positive):
            return LpOutcome(status="unbounded")
        ratios = np.full(m, np.inf)
        ratios[positive] = np.maximum(rhs[positive], 0.0) / col[positive]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + 1e-9 * (1.0 + abs(best)))
        leave = int(ties[np.argmin(basis[ties])])  # Bland-style leaving choice

        degenerate_streak = degenerate_streak + 1 if best < 1e-12 else 0

        pivot = tableau[leave, enter]
        tableau[leave] /= pivot
        rhs[leave] /= pivot
        factors = tableau[:, enter].copy()
        factors[leave] = 0.0
        tableau -= np.outer(factors, tableau[leave])
        rhs -= factors * rhs[leave]
        value += cost[enter] * rhs[leave]
        cost = cost - cost[enter] * tableau[leave]
        basis[leave] = enter
    raise RuntimeError("simplex did not terminate within the iteration cap")


def lp_max(objective, constraints: AffineConstraintSet) -> LpOutcome:
    """Maximize ``objective . x`` over the constraint region.

    Infeasibility cannot occur (x = 0 always satisfies a.x <= 1); the
    outcome is either optimal or unbounded.
    """
    objective = np.asarray(objective, dtype=float)
    if constraints.num_rows and objective.size != constraints.dimension:
        raise ParameterError("objective dimension does not match the constraints")
    return _simplex_max(objective, constraints.rows)


def _violation(row: np.ndarray, other_rows: np.ndarray) -> float:
    outcome = _simplex_max(row, other_rows)
    if outcome.status == "unbounded":
        return math.inf
    return outcome.value - 1.0


def max_violation(row_index: int, constraints: AffineConstraintSet) -> float:
    """Largest violation of one row achievable while satisfying all others.

    Returns max(a_r . x - 1) subject to every other row, or +inf when that
    program is unbounded.  v <= 0 certifies the row is redundant; v > 0
    certifies it genuinely cuts the region.
    """
    if not 0 <= row_index < constraints.num_rows:
        raise ParameterError(f"row_index {row_index} out of range")
    mask = np.ones(constraints.num_rows, dtype=bool)
    mask[row_index] = False
    return _violation(constraints.rows[row_index], constraints.rows[mask])


def prune_constraints(full: AffineConstraintSet, eps: float,
                      rng_seed: int = 0) -> AffineConstraintSet:
    """Prune approximately redundant rows, then tighten by (1 + eps).

    Greedy first pass over a shuffled row order: a row joins the active set
    only if its max violation against the current active set exceeds eps
    (unbounded counts as violated).  The survivors are tightened by the
    factor (1 + eps) -- row vectors scaled up, right-hand sides renormalized
    to 1 -- and a second shuffled pass removes rows that became exactly
    redundant.  The returned region is a subset of the input region.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ParameterError(f"eps must be positive and finite, got {eps}")
    rng = np.random.default_rng(rng_seed)
    rows = full.rows

    order = rng.permutation(full.num_rows)
    active: list[int] = []
    for idx in order:
        if not active:
            v = math.inf
        else:
            v = _violation(rows[idx], rows[active])
        if v > eps:
            active.append(int(idx))

    tightened = rows[active] * (1.0 + eps)
    labels = full.labels[active]

    keep = np.ones(len(active), dtype=bool)
    for j in rng.permutation(len(active)):
        mask = keep.copy()
        mask[j] = False
        v = _violation(tightened[j], tightened[mask])
        if v <= 0.0:
            keep[j] = False

    return AffineConstraintSet(rows=tightened[keep], labels=labels[keep])


def constraints_to_csv(constraints: AffineConstraintSet, path):
    """One row per constraint, columns a_0 ... a_{d-1} (rhs implicitly 1)."""
    header = ",".join(f"a_{j}" for j in range(constraints.dimension))
    np.savetxt(path, constraints.rows, fmt="%.17g", delimiter=",", header=header, comments="")


def constraints_from_csv(path) -> AffineConstraintSet:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("a_"):
                continue
            rows.append([float(tok) for tok in line.split(",")])
    rows = np.asarray(rows)
    return AffineConstraintSet(rows=rows, labels=np.arange(rows.shape[0]))
