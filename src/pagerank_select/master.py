"""Restricted master problem: minimize theta over the feasible cube under a cut pool.

The objective at a selection y is ``max(0, max_k cut_k(y))``; the solver needs
its global minimum and the lexicographically smallest minimizer.  Theta is
the only continuous variable and every cut is affine in y, so once the
feasible selections are listed the master is a running maximum over them
(Kelley 1960; Laporte & Louveaux 1993): ``feasible_set`` enumerates them once
per solve, level by level in numpy, and each ``solve_master`` call folds the
cuts it is given into a running theta.  ``FeasibleSet.fold_faces`` folds
bounds that hold on a whole face of the cube, such as answered oracle
queries, into the same theta.  An empty set raises Infeasible (CLI exit 2)
and an enumeration whose points would take more than ``POINTS_MAX_BYTES``
raises TooLargeToEnumerate (CLI exit 3) before that level is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cuts import Cut
from .errors import DimensionMismatch, Infeasible, TooLargeToEnumerate
from .instance import ConstraintSet, Selection, check_forced

# Largest enumeration level that feasible_set builds, at 8 bytes per fragile
# edge and per constraint row of each candidate.  64 MiB admits the whole
# cube up to 18 fragile edges (36 MiB of points).  On a 2-CPU host with one
# BLAS thread that cube enumerates in 60 ms and one cut folds into it in
# 12 ms.  A fold works through the points in blocks of FOLD_BLOCK_BYTES, so
# its temporaries stay within one block: ten folds into that cube raised
# peak RSS by 3.4 MiB, where one temporary as large as the points raised it
# by 38 MiB.
POINTS_MAX_BYTES = 2**26
# Largest product of points and cut coefficients one fold step allocates, at
# 8 bytes per fragile edge and point: 4 MiB, so the whole cube up to 15
# fragile edges folds in one block.
FOLD_BLOCK_BYTES = 2**22


@dataclass(frozen=True)
class MasterResult:
    y: Selection
    theta: float
    nodes_explored: int  # feasible points scanned


@dataclass(eq=False)
class FeasibleSet:
    """What the master minimizes over, with its state across one solve's rounds.

    ``points`` holds the feasible selections in lexicographic order (read-only
    floats, at least one); ``theta`` holds, per point, the maximum of zero and
    every cut and face bound folded in so far."""

    z_count: int
    points: np.ndarray
    theta: np.ndarray

    def fold_faces(self, faces: Iterable[tuple[Iterable[int], Iterable[int], float]]) -> None:
        """Raise theta to ``bound`` on each face ``(on, off, bound)``: at the
        points with every edge in ``on`` at 1 and every edge in ``off`` at 0.

        An answered oracle query is such a bound, since its value is the
        least return time over its whole face, feasible or not (Laporte &
        Louveaux's optimality cut, stated on a face).  The bound itself is
        written where it is larger, through a mask: the same bound as an
        affine cut can sum to an ulp above it.  A running maximum, so a face
        folded again changes nothing.  Ids are checked by check_forced."""
        for on, off, bound in faces:
            on, off = check_forced(self.z_count, on, off)
            face = (self.points[:, [*on, *off]] == [1] * len(on) + [0] * len(off)).all(axis=1)
            np.maximum(self.theta, bound, out=self.theta, where=face)


def feasible_set(constraints: ConstraintSet, z_count: int) -> FeasibleSet:
    """Enumerate the feasible selections once, under rows ``compiled_rows`` checked.

    Each level extends every surviving prefix by bit 0, then bit 1, and drops
    the prefixes that no completion can bring inside some row's bounds, so
    the points come out in lexicographic order.  Raises Infeasible when no
    selection satisfies the rows, and TooLargeToEnumerate when a level's
    candidates would pass POINTS_MAX_BYTES."""
    rows = constraints.compiled_rows(z_count)
    coeffs = np.array([row.coeffs for row in rows], dtype=np.int64).reshape(len(rows), z_count).T
    upper = np.array([math.inf if row.sense == ">=" else row.rhs for row in rows])
    lower = np.array([-math.inf if row.sense == "<=" else row.rhs for row in rows])
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

    # Fortran order, so that points.T is C-contiguous for solve_master
    points = np.empty((len(lhs), z_count), order="F")
    index = np.arange(len(lhs))
    for depth in reversed(range(z_count)):
        candidate = kept[depth][index]
        points[:, depth] = candidate & 1
        index = candidate >> 1
    points.setflags(write=False)
    return FeasibleSet(z_count=z_count, points=points, theta=np.zeros(len(points)))


def solve_master(cuts: Sequence[Cut], feasible: FeasibleSet) -> MasterResult:
    """Fold ``cuts`` into the feasible set's running theta and globally
    minimize ``max(0, max_k cut_k(y))`` over every cut folded so far.

    A running maximum is idempotent, so a cut passed again changes nothing;
    the solver passes each round's one new cut.  Every arity is checked
    before any fold.  Deterministic: among equal-theta optima the
    lexicographically smallest selection is returned.
    """
    for cut in cuts:
        if len(cut.coeffs) != feasible.z_count:
            raise DimensionMismatch(
                f"cut arity {len(cut.coeffs)} does not match {feasible.z_count} fragile edges"
            )
    columns, theta = feasible.points.T, feasible.theta
    block = max(1, FOLD_BLOCK_BYTES // (8 * max(feasible.z_count, 1)))
    for cut in cuts:
        coeffs = np.array(cut.coeffs, dtype=float)[:, None]
        for start in range(0, len(theta), block):
            _fold(columns[:, start : start + block], coeffs, cut.constant, theta[start : start + block])

    best = int(theta.argmin())  # first minimum; the points are in lexicographic order
    y = tuple(feasible.points[best].astype(np.intp).tolist())
    return MasterResult(y=y, theta=float(theta[best]), nodes_explored=len(theta))


def _fold(columns: np.ndarray, coeffs: np.ndarray, constant: float, theta: np.ndarray) -> None:
    """Raise ``theta`` (a view) to the cut at the points whose transposes are
    ``columns``.  Reducing over the leading axis of the C-contiguous product
    adds row after row, so each point's sum runs in edge order, as eval_cut
    sums it; a BLAS product regroups the terms and can move a tie by an ulp.
    A lone column is a one-dimensional run to numpy, which it sums pairwise,
    so a one-point block is reduced through a two-column view of itself."""
    if columns.shape[1] == 1:
        lhs = np.add.reduce(np.broadcast_to(columns, (len(columns), 2)) * coeffs, axis=0)[:1]
    else:
        lhs = np.add.reduce(columns * coeffs, axis=0)
    lhs += constant
    np.maximum(theta, lhs, out=theta)
