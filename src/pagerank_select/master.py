"""Restricted master problem: minimize theta over the feasible cube.

Theta at a selection is the largest lower bound on its return time found so
far, and at least zero.  Each such bound holds on a face of the cube: an
answered oracle query on its whole face, an evaluated incumbent's return
time at its own point.  So once ``feasible_set`` has listed the feasible
selections (once per solve, level by level in numpy), the master is a
running maximum over them (Kelley 1960; Laporte & Louveaux 1993):
``FeasibleSet.fold_faces`` raises it, and ``solve_master`` takes its
lexicographically smallest argmin.  An empty set raises Infeasible (CLI exit
2) and an enumeration whose candidates would take more than ``POINTS_MAX_BYTES``
raises TooLargeToEnumerate (CLI exit 3) before that level is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import Infeasible, TooLargeToEnumerate
from .instance import ConstraintSet, Selection, check_forced

# Largest enumeration level that feasible_set builds, at 8 bytes per fragile
# edge and per constraint row of each candidate: the enumeration's budget.
# The points it keeps take one byte per edge, an eighth of the edge part.
# 64 MiB admits the whole cube up to 18 fragile edges, whose points take
# 4.5 MiB; tracemalloc saw the enumeration peak at 14.5 MiB, and a face
# fixing all 18 edges folds into it in about 1 ms at a 2.75 MiB peak (2-CPU
# host, one BLAS thread).
POINTS_MAX_BYTES = 2**26


@dataclass(frozen=True)
class MasterResult:
    y: Selection
    theta: float
    nodes_explored: int  # feasible points scanned
    index: int  # the row of y in the feasible set's points and theta


@dataclass(eq=False)
class FeasibleSet:
    """What the master minimizes over, with its state across one solve's rounds.

    ``points`` holds the feasible selections in lexicographic order (read-only
    bools, at least one); ``theta`` holds, per point, the maximum of zero and
    every face bound folded in so far.  The solver also raises theta at an
    incumbent's own row to its return time, by the row that
    ``MasterResult.index`` names."""

    points: np.ndarray
    theta: np.ndarray

    def fold_faces(self, faces: Iterable[tuple[Iterable[int], Iterable[int], float]]) -> None:
        """Raise theta to ``bound`` on each face ``(on, off, bound)``: at the
        points with every edge in ``on`` at 1 and every edge in ``off`` at 0.

        An answered oracle query is such a bound, since its value is the
        least return time over its whole face, feasible or not (Laporte &
        Louveaux's optimality cut, stated on a face).  A running maximum through
        a mask, so a face folded again changes nothing.  Ids are checked by
        check_forced and a NaN bound raises ValueError, before its face folds."""
        for on, off, bound in faces:
            on, off = check_forced(self.points.shape[1], on, off)
            if math.isnan(bound):
                raise ValueError(f"face bound on {sorted(on)} off {sorted(off)} is not a number")
            face = self.points[:, list(on)].all(axis=1) & ~self.points[:, list(off)].any(axis=1)
            np.maximum(self.theta, bound, out=self.theta, where=face)


def feasible_set(constraints: ConstraintSet, z_count: int) -> FeasibleSet:
    """Enumerate the feasible selections once, under the coefficients and
    bounds of the rows that ``compiled_rows`` checks and returns.

    Each level extends every surviving prefix by bit 0, then bit 1, and drops
    the prefixes that no completion can bring inside some row's bounds, so
    the points come out in lexicographic order.  Raises Infeasible when no
    selection satisfies the rows, and TooLargeToEnumerate when a level's
    candidates would pass POINTS_MAX_BYTES."""
    compiled = constraints.compiled_rows(z_count)
    coeffs, lower, upper, rows = compiled.coeffs, compiled.lower, compiled.upper, compiled.rows
    # reach_lo[d] / reach_hi[d]: the least / most that bits d.. can add to each row
    reach_lo = np.zeros((z_count + 1, len(rows)), dtype=np.int64)
    reach_hi = np.zeros_like(reach_lo)
    reach_lo[:z_count] = np.cumsum(np.minimum(coeffs, 0)[::-1], axis=0)[::-1]
    reach_hi[:z_count] = np.cumsum(np.maximum(coeffs, 0)[::-1], axis=0)[::-1]

    def inside(lhs, depth):
        return ((lhs + reach_lo[depth] <= upper) & (lhs + reach_hi[depth] >= lower)).all(axis=1)

    candidate_bytes = 8 * (z_count + len(rows))
    lhs = np.zeros((1, len(rows)), dtype=np.int64)  # row sums of the surviving prefixes
    lhs = lhs[inside(lhs, 0)]
    kept = []  # per level, the surviving candidates: index 2 * prefix + bit
    for depth in range(z_count):
        if 2 * len(lhs) * candidate_bytes > POINTS_MAX_BYTES:
            raise TooLargeToEnumerate(
                f"{z_count} fragile edges: enumerating the feasible selections takes more than "
                f"{POINTS_MAX_BYTES // 2**20} MiB at edge {depth}"
            )
        lhs = np.repeat(lhs, 2, axis=0)
        lhs[1::2] += coeffs[depth]
        keep = np.flatnonzero(inside(lhs, depth + 1))
        kept.append(keep)
        lhs = lhs[keep]
    if not len(lhs):
        raise Infeasible("constraint set admits no selection")

    # Fortran order, so that each edge's column is contiguous for fold_faces
    points = np.empty((len(lhs), z_count), dtype=bool, order="F")
    index = np.arange(len(lhs))
    for depth in reversed(range(z_count)):
        candidate = kept[depth][index]
        points[:, depth] = candidate & 1
        index = candidate >> 1
    points.setflags(write=False)
    return FeasibleSet(points=points, theta=np.zeros(len(points)))


def solve_master(feasible: FeasibleSet) -> MasterResult:
    """Globally minimize the feasible set's running theta, the maximum of
    zero and every bound folded into it so far; the set is not changed.
    Deterministic: among equal-theta optima the lexicographically smallest
    selection is returned, with its row in ``points`` and ``theta``.
    """
    theta = feasible.theta
    best = int(theta.argmin())  # first minimum; the points are in lexicographic order
    y = tuple(feasible.points[best].view(np.uint8).tolist())
    return MasterResult(y=y, theta=float(theta[best]), nodes_explored=len(theta), index=best)
