"""Random-walk model of an instance: transition rows, hitting times, stationary law.

The walk follows the standard damped convention.  From a node with active
out-neighbor set O (fixed edges plus activated fragile edges) it moves to a
uniform member of O with probability c and teleports uniformly over all n
nodes with probability 1-c.  A node with no active out-edges teleports
uniformly.  All functions here are safe for concurrent use; the only state
is a factor's cache of row deltas, whose entries depend only on their key.

Two hitting-time paths give the same answers to rounding.  ``hitting_times``
builds P and solves densely, in one LU, for the hitting times and for the
expected visits to each fragile source: the reference twin, the fallback,
and the only path at damping 1.  ``factor_walk`` factors the walk once, at
the all-off selection and for damping < 1 only, by taking that one dense
answer whole; ``low_rank_hitting_times`` then evaluates any selection by a
low-rank (Woodbury) update over the rows of its selected fragile edges'
sources, in time linear in n.  ``low_rank_hitting_times_many`` evaluates
many selections by the same update, stacked by rank, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Iterator

import numpy as np

from .errors import DampingRangeError, SingularSystem, TooLargeForDense
from .instance import Instance, Selection, check_selection

# One float64 n-by-n array may take at most 128 MiB, so n <= 4096.  A dense
# solve holds at most three such arrays at once (P, the system built from it
# and LAPACK's LU copy), about 384 MiB at the limit.
DENSE_MAX_BYTES = 2**27
# The stacked n-vectors of one chunk of low_rank_hitting_times_many: per
# selection of rank r, the r rows of M U and of |M U| and about five
# n-vectors of h and its bound.  4 MiB holds 134 selections of rank 4 at
# n = 300, and about 1,200 of rank 3 at n = 40.
_BATCH_MAX_BYTES = 2**22
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
    """Expected steps to first reach the target from each node, the
    expected first return time from the target itself, and the expected
    visits to each fragile source before the first passage.

    ``visits`` is an (s, n) array for the s fragile sources other than the
    target, ascending (``_fragile_sources``): ``visits[r, j]`` is the
    expected number of visits to ``sources[r]`` by a walk that starts at j,
    counting the start, before it first reaches the target.  Row r is the
    column of ``(I - Q)^-1`` at ``sources[r]``, with a zero put in at the
    target.  ``hitting_times`` forms it; the low-rank update does not, and
    leaves None.

    Invariants: ``h[target] == 0``, ``h[j] >= 1`` elsewhere, and
    ``fr == 1 + P[target] @ h >= 1``; ``visits[:, target] == 0`` and
    ``visits[r, sources[r]] >= 1``.
    """

    h: np.ndarray
    fr: float
    visits: np.ndarray | None = None


def _transition_rows(instance: Instance, y: Selection, source=None, fixed=None) -> np.ndarray:
    """Transition rows under a checked selection, of a validated instance:
    every node's in order, or, when ``source`` is given, the rows out of it
    (one node, or an array of distinct nodes, in its order).  The only
    builder of the walk; every other function here reads its rows.
    ``fixed`` lists the fixed edges to count (``edge_array`` when None); it
    must hold every fixed edge out of ``source``."""
    n, c = instance.n, instance.damping
    fixed = instance.edge_array if fixed is None else fixed
    active = np.concatenate((fixed, instance.fragile_array[np.asarray(y, dtype=bool)]))
    src, dst = active[:, 0], active[:, 1]
    count = n
    if source is not None and np.ndim(source) == 0:  # one node: a mask, cheaper than a map over n
        count, dst = 1, dst[src == source]
        src = np.zeros_like(dst)
    elif source is not None:
        place = np.full(n, -1)  # the row of each node of source, by node
        place[source] = np.arange(len(source))
        keep = place[src] >= 0
        count, src, dst = len(source), place[src[keep]], dst[keep]
    deg = np.bincount(src, minlength=count)
    rows = np.full((count, n), (1.0 - c) / n)
    rows[src, dst] += c / deg[src]
    rows[deg == 0] = 1.0 / n
    return rows


def transition_matrix(instance: Instance, y: Selection) -> np.ndarray:
    """Full n-by-n transition matrix under the given selection.

    Validates the instance first, through ``edge_array``, as validate does.
    Raises TooLargeForDense, before allocating, when one float64 n-by-n
    array would take more than ``DENSE_MAX_BYTES`` (128 MiB, so n > 4096).
    """
    instance.edge_array  # validates, once per Instance
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
    """``I - Q``, with Q the transition matrix P less the target's
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
    A.ravel()[::n] += 1.0  # the diagonal: every n-th entry of the contiguous (n-1)-square A
    return A


def _solve_first_passage(P: np.ndarray, v: int, rhs: np.ndarray) -> np.ndarray:
    """``(I - Q)^-1 rhs`` by a dense solve; SingularSystem when it is singular."""
    try:
        return np.linalg.solve(_first_passage_matrix(P, v), rhs)
    except np.linalg.LinAlgError:
        raise SingularSystem(f"hitting-time system for target {v} is singular") from None


def _fragile_sources(instance: Instance) -> np.ndarray:
    """The distinct sources of fragile edges other than the target,
    ascending: the rows of Q that a selection can move.  A mask over the
    nodes, not ``np.unique``, keeps the dense reference cheap at small n."""
    is_source = np.zeros(instance.n, dtype=bool)
    is_source[instance.fragile_array[:, 0]] = True
    is_source[instance.target] = False
    return np.flatnonzero(is_source)


def hitting_times(instance: Instance, y: Selection) -> HittingProfile:
    """Solve the first-passage system for the target node.

    ``h[j] = 1 + sum_{k != v} P[j, k] h[k]`` for ``j != v`` with ``h[v] = 0``,
    by a dense direct solve of the (n-1)-dimensional system excluding the
    target, then ``fr = 1 + P[v] @ h``.  The same solve, one LU, takes the
    unit columns at the fragile sources other than the target as further
    right-hand sides, ``(I - Q) [h | X] = [1 | U]``, and ``visits`` is X
    transposed with a zero put in at the target.  A one-node walk solves the
    empty system: h = [0], and visits has shape (0, 1).

    Raises
    ------
    SingularSystem
        When damping is 1 and the target is unreachable from some node.
    """
    P = transition_matrix(instance, y)
    n, v = instance.n, instance.target
    if instance.damping >= 1.0:
        _require_target_reachable(P, v)
    sources = _fragile_sources(instance)
    s = len(sources)
    rhs = np.zeros((n - 1, 1 + s))
    rhs[:, 0] = 1.0
    rhs[sources - (sources > v), np.arange(1, 1 + s)] = 1.0
    x = _solve_first_passage(P, v, rhs)
    rows = np.zeros((1 + s, n))  # h, then visits: x transposed, zero at the target
    rows[:, :v] = x[:v].T
    rows[:, v + 1 :] = x[v:].T
    h, visits = rows[0], rows[1:]
    return HittingProfile(h=h, fr=1.0 + float(P[v] @ h), visits=visits)


@dataclass(frozen=True, eq=False)
class WalkFactor:
    """The walk of one instance factored once, at the all-off selection; it
    holds only what an evaluation reads, and no n-by-n array.

    With Q0 the all-off transition matrix less the target's row and column,
    and M = (I - Q0)^-1: ``h0`` are the all-off hitting times, the dense
    ``hitting_times`` answer; ``fixed_edges`` the fixed edges out of the
    fragile sources, as a read-only (m, 2) array in ``edge_array``'s sorted
    order; ``sources`` the distinct fragile sources other than
    the target, ascending (``_fragile_sources``); ``column_pairs`` a
    C-ordered (2, s, n) array for s sources, whose ``[0]`` is the same
    answer's ``visits`` (row r: M's column at ``sources[r]`` as a length-n
    vector that is zero at the target), and whose ``[1]`` is its absolute
    value.  An evaluation gathers its r rows of both halves with
    one ``take``.  One copy of each half suffices: the absolute half feeds
    only the first-order rounding bound, never h or fr, so its layout moves
    no answer.  ``base_rows[r]`` is the all-off transition row out of
    ``sources[r]``; ``target_row`` the all-off row out of the target; and
    ``edge_places[k]`` the place in ``sources`` of fragile edge k's source,
    or -1 when that source is the target.

    ``deltas`` caches, per source and set of selected fragile edges out of
    it (keyed by those edge ids, which name the source), what the update
    reads of that source's row (``_row_delta``).  It fills as selections are
    evaluated, at most one entry per edge subset of each source.
    """

    instance: Instance
    h0: np.ndarray
    fixed_edges: np.ndarray
    sources: np.ndarray
    column_pairs: np.ndarray
    base_rows: np.ndarray
    target_row: np.ndarray
    edge_places: tuple[int, ...]
    deltas: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict, repr=False)


def factor_walk(instance: Instance) -> WalkFactor:
    """The walk factored from one dense ``hitting_times`` answer at the
    all-off selection: its ``h`` as h0, and its ``visits``, M's columns at
    the fragile sources, kept with their absolute values as
    ``column_pairs``; one build of P and one LU in all, and the n-by-n
    arrays are dropped on return: the all-off rows out of the sources and
    the target are built apart from P, as those rows alone.

    So every evaluation that moves no row (the all-off selection, say)
    equals the dense answer bitwise: its h is h0, and its return time is
    the same ``1 + P[target] @ h0`` that ``hitting_times`` forms.

    Reads ``edge_array`` first, which validates the instance as validate
    does; then raises DampingRangeError at damping 1, before any other
    work; TooLargeForDense for n > 4096; and SingularSystem when the system
    is singular.  Every edge it reads comes from ``edge_array`` and
    ``fragile_array``.
    """
    edges = instance.edge_array
    if instance.damping >= 1.0:
        raise DampingRangeError("the factored walk requires damping < 1")
    v = instance.target
    from_fragile = instance.fragile_array[:, 0]
    fixed_edges = edges[np.isin(edges[:, 0], from_fragile)]
    fixed_edges.setflags(write=False)
    sources = _fragile_sources(instance)
    off = (0,) * instance.z_count
    base = hitting_times(instance, off)
    rows = _transition_rows(instance, off, np.append(sources, v))  # not a second P
    return WalkFactor(
        instance=instance,
        h0=base.h,
        fixed_edges=fixed_edges,
        sources=sources,
        column_pairs=np.array((base.visits, np.abs(base.visits))),  # C-ordered
        base_rows=rows[:-1],
        target_row=rows[-1],
        edge_places=tuple(np.where(from_fragile == v, -1, np.searchsorted(sources, from_fragile)).tolist()),
    )


def _row_delta(factor: WalkFactor, edges: tuple[int, ...]) -> np.ndarray:
    """What the update reads of the row out of the source of ``edges`` (one
    source's fragile edge ids, ascending) when exactly those of its fragile
    edges are selected; built once per walk, by the walk builder.

    For the target, the row itself.  For another source, with d the change
    of its row from the all-off row, e the source's unit row and s fragile
    sources: ``e - d M`` (the source's row of the update's ``I - D M U``,
    from ``column_pairs[0]``) and ``|d| |M|`` at the s sources (from
    ``column_pairs[1]``), then ``d h0`` and ``|d| h0``, 2s + 2 floats.  h0
    and M's columns are zero at the target, so d's target entry drops out
    of every product.
    """
    entry = factor.deltas.get(edges)
    if entry is None:
        instance = factor.instance
        y = np.zeros(instance.z_count, dtype=bool)
        y[list(edges)] = True
        source = instance.fragile_array[edges[0], 0]
        row = _transition_rows(instance, y, source, factor.fixed_edges)[0]
        if source == instance.target:
            entry = row
        else:
            place = factor.edge_places[edges[0]]
            d = row - factor.base_rows[place]
            abs_d = np.abs(d)
            columns, abs_columns = factor.column_pairs
            entry = np.concatenate((-(columns @ d), abs_columns @ abs_d, [d @ factor.h0, abs_d @ factor.h0]))
            entry[place] += 1.0
        factor.deltas[edges] = entry
    return entry


def low_rank_hitting_times(factor: WalkFactor, y: Selection) -> HittingProfile:
    """``hitting_times(factor.instance, y)`` from the factor, without the
    n-by-n ``P``: its h and fr, with visits None unless the dense solve
    answered.

    A selection changes only the rows out of the sources of its selected
    fragile edges.  With D the changes of those rows that lie in Q (the
    target's row and column dropped) and U the unit columns at their sources,
    Woodbury gives ``h = h0 + (M U) (I - D M U)^-1 D h0``.  Each source's
    row of I - D M U and its part of D h0 come from ``_row_delta``, so past
    the first evaluation of a source's edge subset the update touches
    n-vectors only to form h, to check it, and for ``fr = 1 + P(y)[target]
    @ h``, with the target's own row cached the same way when one of its
    fragile edges is selected.  It gathers the r-by-(2r + 2) block it reads
    from the stacked entries with one ``take``, and the r rows of M U and
    |M U| from ``column_pairs`` with one more.  A selection that moves no
    row of Q (none selected, or only the target's edges) has h = h0 and
    ``fr = 1 + P(y)[target] @ h0``, with no update.

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
    target_row, at, entries = _gather(factor, y)
    h = factor.h0
    if at:
        r, s = len(at), len(factor.sources)
        # r-by-(2r + 2): C = I - D M U, |D| |M U|, D h0 and |D| h0
        parts = np.array(entries).take(at + [s + p for p in at] + [2 * s, 2 * s + 1], axis=1)
        try:
            C_inv = np.linalg.inv(parts[:, :r])
        except np.linalg.LinAlgError:
            return hitting_times(instance, y)
        w = C_inv @ parts[:, 2 * r]
        dw = EPS * (np.abs(C_inv) @ (parts[:, 2 * r + 1] + parts[:, r : 2 * r] @ np.abs(w)))
        columns, abs_columns = factor.column_pairs.take(at, axis=1)  # M U and |M U|, r-by-n each
        h = h + w @ columns
        if not (dw @ abs_columns <= UPDATE_RTOL * h).all():
            return hitting_times(instance, y)
    else:
        h = h.copy()
    return HittingProfile(h=h, fr=1.0 + float(target_row @ h))


def _gather(factor: WalkFactor, y: Selection) -> tuple[np.ndarray, list[int], list[np.ndarray]]:
    """What the update reads of a checked selection: the row out of the
    target (its cached ``_row_delta`` when one of its fragile edges is
    selected, else the all-off row), the places in ``sources`` of the other
    sources of its selected edges, ascending, and their ``_row_delta``
    entries in that order."""
    places = factor.edge_places
    picked: dict[int, list[int]] = {}  # selected edge ids by their source's place
    for k in compress(range(len(y)), y):
        picked.setdefault(places[k], []).append(k)
    target_row = factor.target_row
    if -1 in picked:
        target_row = _row_delta(factor, tuple(picked.pop(-1)))
    at = sorted(picked)
    return target_row, at, [_row_delta(factor, tuple(picked[p])) for p in at]


def low_rank_hitting_times_many(
    factor: WalkFactor, ys: Iterable[Selection]
) -> Iterator[tuple[int, HittingProfile]]:
    """``low_rank_hitting_times(factor, y)`` for each selection of ``ys``,
    bitwise, yielded as ``(place in ys, profile)`` pairs, grouped by rank.

    Every selection is checked by ``check_selection`` before the first is
    evaluated.  One that moves no row of Q has h = h0, as there.  Those that
    move r > 0 rows are evaluated together, in chunks of at most
    ``_BATCH_MAX_BYTES`` of stacked n-vectors: one gather of their blocks
    from the row deltas, one stacked ``np.linalg.inv``,
    stacked ``C^-1 D h0`` and bound ``dw``, one ``take`` of their rows of M U
    and |M U|, and one accept check.  Each stacked product makes the same
    BLAS call per selection as the one-selection path, so numpy's per-call
    overhead is paid once per chunk and no bit moves.  A selection whose
    bound fails is answered by dense ``hitting_times`` on its own; when a
    chunk's stacked ``inv`` raises (some C is singular), each of its
    selections is evaluated on its own, as ``low_rank_hitting_times`` would.

    An accepted profile's h is a row of its chunk's stacked array, so a
    caller that keeps only what it reads of each profile holds one chunk at
    a time.  Below a few selections the one-selection path is as fast or
    faster: a batch of one took 39 us against 24 us at n = 40, a batch of
    two broke even, and 298 took 7.5 us a selection (2-CPU host, one BLAS
    thread).
    """
    instance = factor.instance
    ys = [check_selection(instance.z_count, y) for y in ys]
    groups: dict[int, list[tuple[int, np.ndarray, list[int], list[np.ndarray]]]] = {}
    for i, y in enumerate(ys):
        target_row, at, entries = _gather(factor, y)
        groups.setdefault(len(at), []).append((i, target_row, at, entries))
    for i, target_row, _, _ in groups.pop(0, ()):
        yield i, HittingProfile(h=factor.h0.copy(), fr=1.0 + float(target_row @ factor.h0))
    for r, group in groups.items():
        size = max(1, _BATCH_MAX_BYTES // (8 * instance.n * (2 * r + 5)))
        for start in range(0, len(group), size):
            yield from _evaluate_chunk(factor, ys, r, group[start : start + size])


def _evaluate_chunk(
    factor: WalkFactor, ys: list[Selection], r: int, chunk: list
) -> Iterator[tuple[int, HittingProfile]]:
    """One chunk of ``low_rank_hitting_times_many``: the selections of rank
    r > 0 in ``chunk``, each as ``(place in ys, target row, places, entries)``
    from ``_gather``.  A generator, so that its stacked arrays are dropped
    once its last profile is taken."""
    instance = factor.instance
    k, n, s = len(chunk), instance.n, len(factor.sources)
    at = np.array([places for _, _, places, _ in chunk])
    picks = np.empty((k, 1, 2 * r + 2), dtype=np.intp)  # the columns each selection reads
    picks[:, 0, :r], picks[:, 0, r : 2 * r], picks[:, 0, 2 * r :] = at, at + s, (2 * s, 2 * s + 1)
    # k-by-r-by-(2r + 2), each laid out as in low_rank_hitting_times
    parts = np.array([entries for *_, entries in chunk])[np.arange(k)[:, None, None], np.arange(r)[:, None], picks]
    try:
        C_inv = np.linalg.inv(parts[:, :, :r])
    except np.linalg.LinAlgError:
        for i, *_ in chunk:
            yield i, low_rank_hitting_times(factor, ys[i])
        return
    w = C_inv @ parts[:, :, 2 * r : 2 * r + 1]
    dw = EPS * (np.abs(C_inv) @ (parts[:, :, 2 * r + 1 :] + parts[:, :, r : 2 * r] @ np.abs(w)))
    columns, abs_columns = factor.column_pairs.take(at, axis=1)  # k-by-r-by-n each
    h = factor.h0 + w.reshape(k, 1, r) @ columns  # k-by-1-by-n
    accepted = (dw.reshape(k, 1, r) @ abs_columns <= UPDATE_RTOL * h).all(axis=(1, 2))
    rows = np.array([target_row for _, target_row, _, _ in chunk])
    fr = 1.0 + (rows[:, None, :] @ h.reshape(k, n, 1)).ravel()
    for j, (i, *_) in enumerate(chunk):
        if accepted[j]:
            yield i, HittingProfile(h=h[j, 0], fr=float(fr[j]))
        else:
            yield i, hitting_times(instance, ys[i])


def stationary(instance: Instance, y: Selection) -> np.ndarray:
    """Stationary distribution (PageRank) of the walk, by one dense solve.

    Requires damping < 1: teleportation makes the chain irreducible, so the
    balance equations ``pi (I - P) = 0`` with the normalisation
    ``sum(pi) = 1`` in place of the last of them form a nonsingular system.
    Its cost does not depend on how fast the walk mixes.  Validates the
    instance first, as ``transition_matrix`` does, then refuses damping 1.

    Returns
    -------
    ndarray, shape (n,)
        Probability vector summing to 1.
    """
    instance.edge_array  # validates, once per Instance
    y = check_selection(instance.z_count, y)
    if instance.damping >= 1.0:
        raise DampingRangeError("stationary distribution requires damping < 1")
    P = transition_matrix(instance, y)
    A = -P.T
    A[np.diag_indices_from(A)] += 1.0  # (I - P)^T: one row per balance equation
    A[-1] = 1.0  # the normalisation in place of the last
    unit = np.zeros(instance.n)
    unit[-1] = 1.0
    pi = np.linalg.solve(A, unit)
    return pi / pi.sum()
