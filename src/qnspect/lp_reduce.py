"""Linear programming and approximate-redundancy constraint pruning.

The waveform amplitude bound |Omega_m| <= Omega_max generates 2N affine
constraints over the 2K basis coefficients, almost all of which are
(approximately) redundant because neighbouring time samples give nearly
identical rows.  The pruning pass keeps a constraint only when a small LP
shows it can be violated by more than eps while all previously kept rows
hold; a second pass tightens the survivors by (1 + eps) and drops anything
exactly redundant.  The result is a polytope that is a subset of the
original feasible region yet within a factor (1 + eps) of it.  It serves
the ``prune`` command; the design solver bounds the samples directly.

Every LP, max c.x subject to A x <= 1 with x free (the origin is feasible),
goes to HiGHS (``scipy.optimize.linprog``; Huangfu & Hall, Math. Prog. Comp.
2018) on column-scaled rows.  The first pruning pass caches each LP's vertex
v = B^-1 1 (B: the d rows tight there) with B^-T.  A cached v with
a.v - 1 > eps witnesses a violation; one with lambda = B^-T a >= 0 certifies
by weak duality that a.v - 1 is the LP value (a.x = lambda.(B x) <= sum(lambda)
= a.v).  A row gets an LP only when neither decides it or its value lies
within 1e-12 of eps, so the kept rows are those of the plain one-LP-per-row pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._table import read_table, write_table
from .errors import NonConvergenceError, ParameterError, _finite, _integer, _positive

__all__ = [
    "AffineConstraintSet",
    "LpOutcome",
    "lp_max",
    "max_violation",
    "prune_constraints",
    "constraints_to_csv",
    "constraints_from_csv",
]

_CERT_TOL = 1e-12  # cached decisions this close to eps go to the LP; vertex feasibility slack
_TIGHT_TOL = 1e-9  # rows this close to a.x = 1 at an LP's argmax are tight there


@dataclass(frozen=True)
class AffineConstraintSet:
    """Rows a_m with implicit right-hand side 1: the region {x : a_m . x <= 1}."""

    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        rows = np.atleast_2d(_finite(self.rows, "constraint rows"))
        if rows.size == 0:
            rows = rows.reshape(0, 0)
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)
        if rows.shape[0] != labels.shape[0]:
            raise ParameterError("one label per constraint row required")
        if rows.shape[0] and not np.all(np.any(rows != 0.0, axis=1)):
            raise ParameterError("all-zero constraint rows are not allowed")

    @classmethod
    def from_inequalities(cls, coefficients, rhs) -> "AffineConstraintSet":
        """Normalize a_m . x <= rhs_m to standard form (rhs = 1).

        Rows with nonpositive constant term have no natural violation scale
        and are rejected.
        """
        coefficients = np.atleast_2d(_finite(coefficients, "constraint coefficients"))
        rhs = _finite(rhs, "constraint right-hand sides")
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


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" or "unbounded"
    value: float = math.nan
    argmax: np.ndarray | None = None


def _highs_max(objective: np.ndarray, rows: np.ndarray) -> LpOutcome:
    """Maximize c.x subject to rows.x <= 1 with x free."""
    from scipy.optimize import linprog  # deferred: keeps scipy.optimize out of a cold start

    # decided here: HiGHS would read a tiny unscaled c as zero and call it optimal
    if rows.shape[0] == 0:
        if np.all(objective == 0.0):
            return LpOutcome(status="optimal", value=0.0, argmax=np.zeros(objective.size))
        return LpOutcome(status="unbounded")
    # column equilibration: raw rows can carry arbitrary physical units
    scale = np.abs(rows).max(axis=0)
    scale[scale == 0.0] = 1.0
    result = linprog(-objective / scale, A_ub=rows / scale, b_ub=np.ones(rows.shape[0]),
                     bounds=(None, None), method="highs")
    if result.status == 3:
        return LpOutcome(status="unbounded")
    if result.status != 0:
        raise NonConvergenceError(f"HiGHS LP failed (status {result.status}): {result.message}")
    return LpOutcome(status="optimal", value=-result.fun, argmax=result.x / scale)


def lp_max(objective, constraints: AffineConstraintSet) -> LpOutcome:
    """Maximize ``objective . x`` over the constraint region.

    Infeasibility cannot occur (x = 0 always satisfies a.x <= 1); the
    outcome is either optimal or unbounded.
    """
    objective = _finite(objective, "the objective")
    if constraints.num_rows and objective.size != constraints.dimension:
        raise ParameterError("objective dimension does not match the constraints")
    return _highs_max(objective, constraints.rows)


def _violation(row: np.ndarray, other_rows: np.ndarray) -> float:
    outcome = _highs_max(row, other_rows)
    if outcome.status == "unbounded":
        return math.inf
    return outcome.value - 1.0


def max_violation(row_index: int, constraints: AffineConstraintSet) -> float:
    """Largest violation of one row achievable while satisfying all others.

    Returns max(a_r . x - 1) subject to every other row, or +inf when that
    program is unbounded.  v <= 0 certifies the row is redundant; v > 0
    certifies it genuinely cuts the region.
    """
    if _integer(row_index, "row_index", 0) >= constraints.num_rows:
        raise ParameterError(f"row_index {row_index} out of range")
    mask = np.ones(constraints.num_rows, dtype=bool)
    mask[row_index] = False
    return _violation(constraints.rows[row_index], constraints.rows[mask])


def _vertex_rows(kept: np.ndarray, argmax: np.ndarray) -> np.ndarray:
    """Cache rows for the vertex at an LP's argmax: v = B^-1 1, then B^-T.

    Empty unless exactly d kept rows B are tight there, B has full rank and
    v (recomputed from B) meets every kept row.
    """
    d = kept.shape[1]
    basis = kept[np.abs(1.0 - kept @ argmax) <= _TIGHT_TOL]
    if basis.shape[0] == d and np.linalg.matrix_rank(basis) == d:
        inverse = np.linalg.inv(basis)
        vertex = inverse.sum(axis=1)
        if np.all(kept @ vertex <= 1.0 + _CERT_TOL):
            return np.vstack([vertex, inverse.T])
    return np.empty((0, d))


def _first_pass(rows: np.ndarray, order: np.ndarray, eps: float) -> list[int]:
    """Rows, in ``order``, whose violation against the rows kept before them exceeds eps.

    Each row is decided from the vertex cache when it can be (module
    docstring) and by an LP otherwise; unbounded counts as violated.
    """
    d = rows.shape[1]
    active: list[int] = []
    cache = np.empty((0, d))  # d + 1 rows per vertex (_vertex_rows), v feasible
    for idx in order:
        row = rows[idx]
        products = (cache @ row).reshape(-1, d + 1)
        gains = products[:, 0] - 1.0
        certified = (products[:, 1:] >= 0.0).all(axis=1)
        if not (gains > eps + _CERT_TOL).any():  # no cached vertex witnesses a violation
            if certified.any() and abs(gains[certified.argmax()] - eps) > _CERT_TOL:
                continue  # certified: the LP value is below eps
            kept = rows[active]
            outcome = _highs_max(row, kept)
            if outcome.status == "optimal" and outcome.value - 1.0 <= eps:
                cache = np.vstack([cache, _vertex_rows(kept, outcome.argmax)])
                continue
        active.append(int(idx))
        feasible = cache[::d + 1] @ row <= 1.0 + _CERT_TOL
        cache = cache[np.repeat(feasible, d + 1)]
    return active


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
    eps = _positive(eps, "eps")
    rng = np.random.default_rng(_integer(rng_seed, "rng_seed", 0))
    rows = full.rows

    active = _first_pass(rows, rng.permutation(full.num_rows), eps)
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
    write_table(path, header, constraints.rows)


def constraints_from_csv(path) -> AffineConstraintSet:
    """Read a constraint set written by :func:`constraints_to_csv`; labels are row numbers."""
    rows = read_table(path)[1]
    return AffineConstraintSet(rows=rows, labels=np.arange(rows.shape[0]))
