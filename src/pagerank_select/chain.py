"""Random-walk model of an instance: transition rows, hitting times, stationary law.

The walk follows the standard damped convention.  From a node with active
out-neighbor set O (fixed edges plus activated fragile edges) it moves to a
uniform member of O with probability c and teleports uniformly over all n
nodes with probability 1-c.  A node with no active out-edges teleports
uniformly.  All functions here are pure and safe for concurrent use.

Two hitting-time paths give the same answers to rounding.  ``hitting_times``
builds P and solves densely: the reference twin, the all-off base of the
factor, the fallback, and the only path at damping 1.  ``factor_walk``
factors the walk once, at the all-off selection and for damping < 1 only,
and ``low_rank_hitting_times`` then evaluates any selection by a low-rank
(Woodbury) update over the rows of its selected fragile edges' sources, in
time linear in n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DampingRangeError,
    DimensionMismatch,
    NodeIndexError,
    NoConvergence,
    SingularSystem,
    TooLargeForDense,
)
from .instance import Instance, Selection

STATIONARY_TOL = 1e-12
STATIONARY_MAX_ITERS = 10**6
# One float64 n-by-n array may take at most 128 MiB, so n <= 4096.  A dense
# solve holds about four such arrays at once (P, its (n-1)-square block,
# I - Q and LAPACK's LU copy), about 512 MiB at the limit.
DENSE_MAX_BYTES = 2**27
# Largest first-order bound on the rounding error of the low-rank update,
# relative to each hitting time, that low_rank_hitting_times accepts; above
# it the dense solve answers.  See that function.
UPDATE_RTOL = 1e-13
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class HittingProfile:
    """Expected steps to first reach the target from each node, and the
    expected first return time from the target itself.

    Invariants: ``h[target] == 0``, ``h[j] >= 1`` elsewhere, and
    ``fr == 1 + P[target] @ h >= 1``.
    """

    h: np.ndarray
    fr: float


def _check_selection(instance: Instance, y: Selection) -> None:
    if len(y) != instance.z_count:
        raise DimensionMismatch(f"selection length {len(y)} does not match |Z| = {instance.z_count}")


def _transition_rows(instance: Instance, y: Selection, nodes=None, fixed=None) -> np.ndarray:
    """Transition rows out of ``nodes`` (distinct, in range; every node in
    order when None) under a checked selection: the only builder of the
    walk.  Every other function here reads its rows.  ``fixed`` lists the
    fixed edges to count (all of them when None); it must hold every fixed
    edge out of ``nodes``."""
    n, c = instance.n, instance.damping
    fixed = instance.edge_array if fixed is None else fixed
    active = np.concatenate((fixed, instance.fragile_array[np.asarray(y, dtype=bool)]))
    src, dst = active[:, 0], active[:, 1]
    count = n
    if nodes is not None:
        count = len(nodes)
        row_of = np.full(n, -1, dtype=np.intp)
        row_of[nodes] = np.arange(count)
        src = row_of[src]
        keep = src >= 0
        src, dst = src[keep], dst[keep]
    deg = np.bincount(src, minlength=count)
    rows = np.full((count, n), (1.0 - c) / n)
    rows[src, dst] += c / deg[src]
    rows[deg == 0] = 1.0 / n
    return rows


def transition_matrix(instance: Instance, y: Selection) -> np.ndarray:
    """Full n-by-n transition matrix under the given selection.

    Raises TooLargeForDense, before allocating, when one float64 n-by-n
    array would take more than ``DENSE_MAX_BYTES`` (128 MiB, so n > 4096).
    """
    _check_selection(instance, y)
    n = instance.n
    if n * n * 8 > DENSE_MAX_BYTES:
        raise TooLargeForDense(
            f"n = {n}: one dense n-by-n array takes {n * n * 8 / 2**20:.0f} MiB, "
            f"above the {DENSE_MAX_BYTES // 2**20} MiB limit (n <= 4096)"
        )
    return _transition_rows(instance, y)


def transition_row(instance: Instance, y: Selection, node: int) -> np.ndarray:
    """Transition probabilities out of one node.

    Parameters
    ----------
    instance : Instance
        Validated problem data.
    y : Selection
        0/1 vector over the fragile edges.
    node : int
        Source node.

    Returns
    -------
    ndarray, shape (n,)
        Nonnegative row summing to 1.
    """
    _check_selection(instance, y)
    if not 0 <= node < instance.n:
        raise NodeIndexError(f"node {node} outside [0, {instance.n})")
    return _transition_rows(instance, y, [node])[0]


def _require_target_reachable(P: np.ndarray, v: int) -> None:
    """For damping 1 the hitting system is singular unless every node can
    reach the target.  At damping 1, ``P[i, j] > 0`` exactly when the walk can
    step from i to j (dangling rows are uniform, so they reach everything)."""
    moves = P > 0
    seen = np.arange(len(P)) == v
    frontier = seen.copy()
    while frontier.any():
        frontier = moves[:, frontier].any(axis=1) & ~seen
        seen |= frontier
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise SingularSystem(
            f"damping is 1 and target {v} is unreachable from node {missing}"
        )


def hitting_times(instance: Instance, y: Selection) -> HittingProfile:
    """Solve the first-passage system for the target node.

    ``h[j] = 1 + sum_{k != v} P[j, k] h[k]`` for ``j != v`` with ``h[v] = 0``,
    by a dense direct solve of the (n-1)-dimensional system excluding the
    target, then ``fr = 1 + P[v] @ h``.

    Raises
    ------
    SingularSystem
        When damping is 1 and the target is unreachable from some node.
    """
    P = transition_matrix(instance, y)
    n, v = instance.n, instance.target
    if instance.damping >= 1.0:
        _require_target_reachable(P, v)
    h = np.zeros(n)
    others = [j for j in range(n) if j != v]
    if others:
        sub = P[np.ix_(others, others)]
        A = np.eye(n - 1) - sub
        b = np.ones(n - 1)
        try:
            h[others] = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            raise SingularSystem(f"hitting-time system for target {v} is singular") from None
    fr = 1.0 + float(P[v] @ h)
    return HittingProfile(h=h, fr=fr)


@dataclass(frozen=True, eq=False)
class WalkFactor:
    """The walk of one instance factored once, at the all-off selection; it
    holds only what an evaluation reads, and no n-by-n array.

    With Q0 the all-off transition matrix less the target's row and column,
    and M = (I - Q0)^-1: ``h0`` and ``fr0`` are the all-off hitting times
    and return time, the dense ``hitting_times`` answer; ``fixed_edges`` the
    fixed edges out of the fragile sources, as an (m, 2) array in the
    iteration order of ``instance.edges``; ``sources`` the distinct fragile
    sources other than the target, ascending; ``columns[r]`` is M's column
    at ``sources[r]`` as a length-n vector that is zero at the target;
    ``base_rows[r]`` the all-off transition row out of ``sources[r]``; and
    ``target_row`` the all-off row out of the target.
    """

    instance: Instance
    h0: np.ndarray
    fr0: float
    fixed_edges: np.ndarray
    sources: np.ndarray
    columns: np.ndarray
    base_rows: np.ndarray
    target_row: np.ndarray


def factor_walk(instance: Instance) -> WalkFactor:
    """The all-off hitting times from the dense ``hitting_times``, and one
    LU of ``I - Q0`` for M's columns at the fragile sources; the n-by-n
    arrays are dropped on return.

    Taking ``h0`` from the reference twin, at the cost of a second dense
    solve, makes every evaluation that moves no row (the all-off selection,
    say) equal it bitwise, and keeps one ``chain.hitting_times`` call per
    solve where perfbench's tracer counts the chain layer.

    Raises DampingRangeError at damping 1, before any other work;
    TooLargeForDense for n > 4096; and SingularSystem when the system is
    singular.
    """
    if instance.damping >= 1.0:
        raise DampingRangeError("the factored walk requires damping < 1")
    from_fragile = {i for i, _ in instance.fragile}
    fixed_edges = np.array([e for e in instance.edges if e[0] in from_fragile], dtype=np.intp).reshape(-1, 2)
    fixed_edges.setflags(write=False)
    n, v = instance.n, instance.target
    off = (0,) * instance.z_count
    base = hitting_times(instance, off)
    P = transition_matrix(instance, off)
    sources = np.array(sorted(from_fragile - {v}), dtype=np.intp)
    others = np.flatnonzero(np.arange(n) != v)
    columns = np.zeros((n, len(sources)))
    if len(sources):
        A = -P[np.ix_(others, others)]
        A[np.diag_indices_from(A)] += 1.0
        units = np.zeros((n - 1, len(sources)))
        units[np.searchsorted(others, sources), np.arange(len(sources))] = 1.0
        try:
            columns[others] = np.linalg.solve(A, units)
        except np.linalg.LinAlgError:
            raise SingularSystem(f"hitting-time system for target {v} is singular") from None
    return WalkFactor(
        instance=instance,
        h0=base.h,
        fr0=base.fr,
        fixed_edges=fixed_edges,
        sources=sources,
        columns=columns.T.copy(),
        base_rows=P[sources],
        target_row=P[v].copy(),
    )


def low_rank_hitting_times(factor: WalkFactor, y: Selection) -> HittingProfile:
    """``hitting_times(factor.instance, y)`` from the factor, without the
    n-by-n ``P``.

    A selection changes only the rows out of the sources of its selected
    fragile edges.  With D the changes of those rows that lie in Q (the
    target's row and column dropped) and U the unit columns at their sources,
    Woodbury gives ``h = h0 + (M U) (I - D M U)^-1 D h0``; the rows come from
    the walk builder.  Then ``fr = 1 + P(y)[target] @ h``, with the target's
    row rebuilt when one of its fragile edges is selected.

    Check: with C = I - D M U and w = C^-1 D h0, rounding perturbs D h0 by
    up to eps |D| |h0| and C by up to eps |D| |M U|, so to first order w is
    off by at most ``dw = eps |C^-1| |D| (|h0| + |M U| |w|)`` and h by
    ``|M U| dw`` (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 7).  The bound is large when the update cancels, as it does near
    damping 1 when the selection moves the hitting times far from h0.  When
    it exceeds ``UPDATE_RTOL * h`` anywhere, or C is singular, the dense
    ``hitting_times`` answers instead.
    """
    instance = factor.instance
    _check_selection(instance, y)
    sources = {instance.fragile[k][0] for k, bit in enumerate(y) if bit}
    if not sources:
        return HittingProfile(h=factor.h0.copy(), fr=factor.fr0)
    picked = np.array(sorted(sources), dtype=np.intp)
    rows = _transition_rows(instance, y, picked, factor.fixed_edges)
    target_row = factor.target_row
    if instance.target in sources:
        moved = picked != instance.target
        target_row = rows[~moved][0]
        rows, picked = rows[moved], picked[moved]
    h = factor.h0.copy()
    if len(picked):
        at = np.searchsorted(factor.sources, picked)
        # h0 and M's columns are zero at the target, so D's target column
        # drops out of both products below.
        D = rows - factor.base_rows[at]
        MU = factor.columns[at]
        C = np.eye(len(picked)) - D @ MU.T
        try:
            C_inv = np.linalg.inv(C)
        except np.linalg.LinAlgError:
            return hitting_times(instance, y)
        w = C_inv @ (D @ factor.h0)
        abs_MU = np.abs(MU)
        dw = np.abs(C_inv) @ (np.abs(D) @ (factor.h0 + np.abs(w) @ abs_MU))
        h += w @ MU
        if not (EPS * (dw @ abs_MU) <= UPDATE_RTOL * h).all():
            return hitting_times(instance, y)
    return HittingProfile(h=h, fr=1.0 + float(target_row @ h))


def stationary(
    instance: Instance,
    y: Selection,
    tol: float = STATIONARY_TOL,
    max_iters: int = STATIONARY_MAX_ITERS,
) -> np.ndarray:
    """Stationary distribution by power iteration.

    Requires damping < 1 (teleportation makes the chain ergodic).  Iterates
    ``pi <- pi P`` until the L1 residual drops below ``tol``.

    Returns
    -------
    ndarray, shape (n,)
        Probability vector summing to 1.
    """
    _check_selection(instance, y)
    if instance.damping >= 1.0:
        raise DampingRangeError("stationary distribution requires damping < 1")
    P = transition_matrix(instance, y)
    pi = np.full(instance.n, 1.0 / instance.n)
    for _ in range(max_iters):
        nxt = pi @ P
        done = float(np.abs(nxt - pi).sum()) < tol
        pi = nxt
        if done:
            return pi / pi.sum()
    raise NoConvergence(f"power iteration residual above {tol} after {max_iters} iterations")
