"""Random-walk model of an instance: transition rows, hitting times, stationary law.

The walk follows the standard damped convention.  From a node with active
out-neighbor set O (fixed edges plus activated fragile edges) it moves to a
uniform member of O with probability c and teleports uniformly over all n
nodes with probability 1-c.  A node with no active out-edges teleports
uniformly.  All functions here are safe for concurrent use; the only state
is a factor's cache of row deltas, whose entries depend only on their key.

Two hitting-time paths give the same answers to rounding.  ``hitting_times``
builds P and solves densely: the reference twin, the all-off base of the
factor, the fallback, and the only path at damping 1.  ``factor_walk``
factors the walk once, at the all-off selection and for damping < 1 only,
and ``low_rank_hitting_times`` then evaluates any selection by a low-rank
(Woodbury) update over the rows of its selected fragile edges' sources, in
time linear in n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .errors import (
    DampingRangeError,
    NoConvergence,
    SingularSystem,
    TooLargeForDense,
)
from .instance import Instance, Selection, check_selection

STATIONARY_TOL = 1e-12
STATIONARY_MAX_ITERS = 10**6
# One float64 n-by-n array may take at most 128 MiB, so n <= 4096.  A dense
# solve holds about four such arrays at once (P, its (n-1)-square block,
# I - Q and LAPACK's LU copy), about 512 MiB at the limit.
DENSE_MAX_BYTES = 2**27
# Largest first-order bound on the rounding error of the low-rank update,
# relative to each hitting time, that low_rank_hitting_times accepts; above
# it the dense solve answers.  The bound covers the update's own rounding
# only, not the error h0 and M inherit from the dense solve that built the
# factor, so an accepted answer can sit slightly farther than this from the
# exact one.  See that function.
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
    y = check_selection(instance.z_count, y)
    n = instance.n
    if n * n * 8 > DENSE_MAX_BYTES:
        raise TooLargeForDense(
            f"n = {n}: one dense n-by-n array takes {n * n * 8 / 2**20:.0f} MiB, "
            f"above the {DENSE_MAX_BYTES // 2**20} MiB limit (n <= 4096)"
        )
    return _transition_rows(instance, y)


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


def _first_passage_matrix(P: np.ndarray, v: int) -> np.ndarray:
    """``I - Q`` for n > 1, with Q the transition matrix P less the target's
    row and column: each entry is ``0 - P[j, k]``, plus 1 on the diagonal,
    which is bitwise ``eye - Q`` (a zero entry of P stays +0).

    The four blocks of Q are copied by plain assignment and negated in one
    contiguous pass: with numpy 2.4, ``np.negative`` into a strided column
    view (``out=A[:k, j:j + 1]``) reads its input as if contiguous."""
    n = len(P)
    A = np.empty((n - 1, n - 1))
    for to_rows, rows in ((slice(None, v), slice(None, v)), (slice(v, None), slice(v + 1, None))):
        for to_cols, cols in ((slice(None, v), slice(None, v)), (slice(v, None), slice(v + 1, None))):
            A[to_rows, to_cols] = P[rows, cols]
    np.subtract(0.0, A, out=A)
    A[np.diag_indices_from(A)] += 1.0
    return A


def _solve_first_passage(P: np.ndarray, v: int, rhs: np.ndarray) -> np.ndarray:
    """``(I - Q)^-1 rhs`` by a dense solve (n > 1); SingularSystem when it is singular."""
    try:
        return np.linalg.solve(_first_passage_matrix(P, v), rhs)
    except np.linalg.LinAlgError:
        raise SingularSystem(f"hitting-time system for target {v} is singular") from None


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
    if n > 1:
        h[np.arange(n) != v] = _solve_first_passage(P, v, np.ones(n - 1))
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
    at ``sources[r]`` as a length-n vector that is zero at the target, and
    ``abs_columns`` its absolute value; ``base_rows[r]`` the all-off
    transition row out of ``sources[r]``; ``target_row`` the all-off row
    out of the target; and ``edge_places[k]`` the place in ``sources`` of
    fragile edge k's source, or -1 when that source is the target.

    ``deltas`` caches, per source and set of selected fragile edges out of
    it (keyed by those edge ids, which name the source), what the update
    reads of that source's row (``_row_delta``).  It fills as selections are
    evaluated, at most one entry per edge subset of each source.
    """

    instance: Instance
    h0: np.ndarray
    fr0: float
    fixed_edges: np.ndarray
    sources: np.ndarray
    columns: np.ndarray
    abs_columns: np.ndarray
    base_rows: np.ndarray
    target_row: np.ndarray
    edge_places: tuple[int, ...]
    deltas: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict, repr=False)


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
    others = np.arange(n) != v
    columns = np.zeros((n, len(sources)))
    if len(sources):
        units = np.zeros((n - 1, len(sources)))
        units[sources - (sources > v), np.arange(len(sources))] = 1.0
        columns[others] = _solve_first_passage(P, v, units)
    return WalkFactor(
        instance=instance,
        h0=base.h,
        fr0=base.fr,
        fixed_edges=fixed_edges,
        sources=sources,
        columns=columns.T.copy(),
        abs_columns=np.abs(columns.T),
        base_rows=P[sources],
        target_row=P[v].copy(),
        edge_places=tuple(-1 if i == v else int(np.searchsorted(sources, i)) for i, _ in instance.fragile),
    )


def _row_delta(factor: WalkFactor, edges: tuple[int, ...]) -> np.ndarray:
    """What the update reads of the row out of the source of ``edges`` (one
    source's fragile edge ids, ascending) when exactly those of its fragile
    edges are selected; built once per walk, by the walk builder.

    For the target, the row itself.  For another source, with d the change
    of its row from the all-off row and s fragile sources: ``d M`` and
    ``|d| |M|`` at the s sources, then ``d h0`` and ``|d| h0``, 2s + 2
    floats.  h0 and M's columns are zero at the target, so d's target
    entry drops out of every product.
    """
    entry = factor.deltas.get(edges)
    if entry is None:
        instance = factor.instance
        y = np.zeros(instance.z_count, dtype=bool)
        y[list(edges)] = True
        source = instance.fragile[edges[0]][0]
        row = _transition_rows(instance, y, [source], factor.fixed_edges)[0]
        if source == instance.target:
            entry = row
        else:
            d = row - factor.base_rows[factor.edge_places[edges[0]]]
            abs_d = np.abs(d)
            entry = np.concatenate(
                (factor.columns @ d, factor.abs_columns @ abs_d, [d @ factor.h0, abs_d @ factor.h0])
            )
        factor.deltas[edges] = entry
    return entry


def low_rank_hitting_times(factor: WalkFactor, y: Selection) -> HittingProfile:
    """``hitting_times(factor.instance, y)`` from the factor, without the
    n-by-n ``P``.

    A selection changes only the rows out of the sources of its selected
    fragile edges.  With D the changes of those rows that lie in Q (the
    target's row and column dropped) and U the unit columns at their sources,
    Woodbury gives ``h = h0 + (M U) (I - D M U)^-1 D h0``.  Each source's
    part of D M U and D h0 comes from ``_row_delta``, so past the first
    evaluation of a source's edge subset the update touches n-vectors only
    to form h, to check it, and for ``fr = 1 + P(y)[target] @ h``, with the
    target's own row cached the same way when one of its fragile edges is
    selected.

    Check: with C = I - D M U and w = C^-1 D h0, rounding perturbs D h0 by
    up to eps |D| |h0| and C by up to eps |D| |M U|, so to first order w is
    off by at most ``dw = eps |C^-1| (|D| |h0| + (|D| |M U|) |w|)`` and h by
    ``|M U| dw`` (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 7); this is ``eps |C^-1| |D| (|h0| + |M U| |w|)`` grouped so that
    only r-by-r pieces of it are formed.  The bound is large when the update
    cancels, as it does near damping 1 when the selection moves the hitting
    times far from h0.  When it exceeds ``UPDATE_RTOL * h`` anywhere, or C
    is singular, the dense ``hitting_times`` answers instead.

    The bound takes h0 and M as exact.  They come from a dense float64 solve
    and carry its rounding, which the update passes on; so an accepted h can
    differ from the exact hitting times, and from dense ``hitting_times``
    (itself off by as much), by somewhat more than ``UPDATE_RTOL``.  Against
    a reference refined in extended precision, on 5,400 evaluations of
    random instances (n 5-200, damping 0.85-0.999), accepted updates were
    within 1.33e-13 relative, and so was dense ``hitting_times``; run from
    refined h0 and M, the same updates were within 4.9e-14.
    """
    instance = factor.instance
    y = check_selection(instance.z_count, y)
    places = factor.edge_places
    picked: dict[int, list[int]] = {}  # selected edge ids by their source's place
    for k in compress(range(len(y)), y):
        picked.setdefault(places[k], []).append(k)
    if not picked:
        return HittingProfile(h=factor.h0.copy(), fr=factor.fr0)
    target_row = factor.target_row
    if -1 in picked:
        target_row = _row_delta(factor, tuple(picked.pop(-1)))
    h = factor.h0
    if picked:
        at = sorted(picked)
        r, s = len(at), len(factor.sources)
        parts = np.array([_row_delta(factor, tuple(picked[p])) for p in at])
        # r-by-(2r + 2): D M U, |D| |M U|, D h0 and |D| h0
        parts = parts[:, at + [s + p for p in at] + [2 * s, 2 * s + 1]]
        C = -parts[:, :r]
        C.flat[:: r + 1] += 1.0
        try:
            C_inv = np.linalg.inv(C)
        except np.linalg.LinAlgError:
            return hitting_times(instance, y)
        w = C_inv @ parts[:, 2 * r]
        dw = EPS * (np.abs(C_inv) @ (parts[:, 2 * r + 1] + parts[:, r : 2 * r] @ np.abs(w)))
        h = h + w @ factor.columns[at]
        if not (dw @ factor.abs_columns[at] <= UPDATE_RTOL * h).all():
            return hitting_times(instance, y)
    else:
        h = h.copy()
    return HittingProfile(h=h, fr=1.0 + float(target_row @ h))


def stationary(instance: Instance, y: Selection) -> np.ndarray:
    """Stationary distribution by power iteration.

    Requires damping < 1 (teleportation makes the chain ergodic).  Iterates
    ``pi <- pi P`` until the L1 residual drops below STATIONARY_TOL, at most
    STATIONARY_MAX_ITERS times (both read at call time).

    Returns
    -------
    ndarray, shape (n,)
        Probability vector summing to 1.
    """
    y = check_selection(instance.z_count, y)
    if instance.damping >= 1.0:
        raise DampingRangeError("stationary distribution requires damping < 1")
    P = transition_matrix(instance, y)
    pi = np.full(instance.n, 1.0 / instance.n)
    for _ in range(STATIONARY_MAX_ITERS):
        nxt = pi @ P
        done = float(np.abs(nxt - pi).sum()) < STATIONARY_TOL
        pi = nxt
        if done:
            return pi / pi.sum()
    raise NoConvergence(
        f"power iteration residual above {STATIONARY_TOL} after {STATIONARY_MAX_ITERS} iterations"
    )
