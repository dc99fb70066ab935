"""Restricted master problem: minimize theta over the feasible cube under a cut pool.

The objective at a selection y is ``max(0, max_k cut_k(y))``; the solver needs
its global minimum and the lexicographically smallest minimizer.  Because
theta is the only continuous variable and every cut is affine in y, a
termwise min-completion bound is a valid relaxation and no LP machinery is
needed: plain enumeration covers small instances and a depth-first branch
and bound covers the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cuts import Cut
from .errors import DimensionMismatch
from .instance import ConstraintSet, Row, Selection, enumerate_feasible

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

EXHAUSTIVE_MAX = 12  # above this, branch and bound takes over


@dataclass(frozen=True)
class MasterResult:
    status: str
    y: Selection | None
    theta: float
    nodes_explored: int


@dataclass(frozen=True, eq=False)
class FeasibleSet:
    """What the master minimizes over, built once per solve.  ``points`` holds the
    feasible selections in lexicographic order (read-only floats) up to
    EXHAUSTIVE_MAX fragile edges and is None beyond, where branch and bound
    works from the compiled ``rows``."""

    z_count: int
    rows: tuple[Row, ...]
    points: np.ndarray | None


def feasible_set(constraints: ConstraintSet, z_count: int) -> FeasibleSet:
    """Check the constraint rows and, up to EXHAUSTIVE_MAX fragile edges,
    enumerate the feasible selections once."""
    rows = constraints.compiled_rows(z_count)
    points = None
    if z_count <= EXHAUSTIVE_MAX:
        found = list(enumerate_feasible(constraints, z_count))
        points = np.array(found, dtype=float).reshape(len(found), z_count)
        points.setflags(write=False)
    return FeasibleSet(z_count=z_count, rows=rows, points=points)


def solve_master(cuts: Sequence[Cut], feasible: FeasibleSet) -> MasterResult:
    """Globally minimize ``max(0, max_k cut_k(y))`` over the feasible set.

    Deterministic: among equal-theta optima the lexicographically smallest
    selection is returned.
    """
    z_count = feasible.z_count
    for cut in cuts:
        if len(cut.coeffs) != z_count:
            raise DimensionMismatch(
                f"cut arity {len(cut.coeffs)} does not match {z_count} fragile edges"
            )
    if feasible.points is not None:
        return _solve_exhaustive(cuts, feasible.points)
    return _solve_branch_bound(cuts, feasible.rows, z_count)


def _solve_exhaustive(cuts: Sequence[Cut], points: np.ndarray) -> MasterResult:
    if len(points) == 0:
        return MasterResult(status=INFEASIBLE, y=None, theta=math.inf, nodes_explored=0)
    if cuts:
        A = np.array([cut.coeffs for cut in cuts], dtype=float)
        a0 = np.array([cut.constant for cut in cuts])
        theta = np.maximum((points @ A.T + a0).max(axis=1), 0.0)
    else:
        theta = np.zeros(len(points))
    best = int(np.argmin(theta))  # first minimum; enumeration order is lexicographic
    y = tuple(int(b) for b in points[best])
    return MasterResult(status=OPTIMAL, y=y, theta=float(theta[best]), nodes_explored=len(points))


def _solve_branch_bound(cuts, rows: Sequence[Row], z_count: int) -> MasterResult:
    m = len(cuts)
    coeffs = [cut.coeffs for cut in cuts]
    constants = [cut.constant for cut in cuts]

    # suffix completions: best possible contribution of the unfixed variables
    cut_suffix = [[0.0] * (z_count + 1) for _ in range(m)]
    for k in range(m):
        for d in range(z_count - 1, -1, -1):
            cut_suffix[k][d] = cut_suffix[k][d + 1] + min(coeffs[k][d], 0.0)
    row_lo = [[0] * (z_count + 1) for _ in rows]
    row_hi = [[0] * (z_count + 1) for _ in rows]
    for r, row in enumerate(rows):
        for d in range(z_count - 1, -1, -1):
            row_lo[r][d] = row_lo[r][d + 1] + min(row.coeffs[d], 0)
            row_hi[r][d] = row_hi[r][d + 1] + max(row.coeffs[d], 0)

    best_val = math.inf
    best_y: Selection | None = None
    nodes = 0
    assignment = [0] * z_count

    def window_feasible(depth, partial_lhs) -> bool:
        for r, row in enumerate(rows):
            lo = partial_lhs[r] + row_lo[r][depth]
            hi = partial_lhs[r] + row_hi[r][depth]
            if row.sense == "<=":
                if lo > row.rhs:
                    return False
            elif row.sense == ">=":
                if hi < row.rhs:
                    return False
            elif lo > row.rhs or hi < row.rhs:
                return False
        return True

    def bound(depth, partial_cut) -> float:
        b = 0.0
        for k in range(m):
            v = constants[k] + partial_cut[k] + cut_suffix[k][depth]
            if v > b:
                b = v
        return b

    def dfs(depth, partial_cut, partial_lhs) -> None:
        nonlocal best_val, best_y, nodes
        nodes += 1
        if not window_feasible(depth, partial_lhs):
            return
        value = bound(depth, partial_cut)
        if value > best_val:
            return
        if depth == z_count:
            # exploring ones first visits selections in descending lexicographic
            # order, so on ties the later (smaller) point wins
            if value <= best_val:
                best_val = value
                best_y = tuple(assignment)
            return
        for bit in (1, 0):
            assignment[depth] = bit
            if bit:
                next_cut = [partial_cut[k] + coeffs[k][depth] for k in range(m)]
                next_lhs = [partial_lhs[r] + rows[r].coeffs[depth] for r in range(len(rows))]
            else:
                next_cut = partial_cut
                next_lhs = partial_lhs
            dfs(depth + 1, next_cut, next_lhs)
        assignment[depth] = 0

    dfs(0, [0.0] * m, [0] * len(rows))
    if best_y is None:
        return MasterResult(status=INFEASIBLE, y=None, theta=math.inf, nodes_explored=nodes)
    return MasterResult(status=OPTIMAL, y=best_y, theta=best_val, nodes_explored=nodes)
