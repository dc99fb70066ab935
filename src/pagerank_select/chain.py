"""Random-walk model of an instance: transition rows, hitting times, stationary law.

The walk follows the standard damped convention.  From a node with active
out-neighbor set O (fixed edges plus activated fragile edges) it moves to a
uniform member of O with probability c and teleports uniformly over all n
nodes with probability 1-c.  A node with no active out-edges teleports
uniformly.  All functions here are pure and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DampingRangeError, DimensionMismatch, NodeIndexError, NoConvergence, SingularSystem
from .instance import Instance, Selection

STATIONARY_TOL = 1e-12
STATIONARY_MAX_ITERS = 10**6


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


def transition_matrix(instance: Instance, y: Selection) -> np.ndarray:
    """Full n-by-n transition matrix under the given selection; the only
    builder of the walk, whose rows every other function here reads."""
    _check_selection(instance, y)
    n, c = instance.n, instance.damping
    active = np.concatenate((instance.edge_array, instance.fragile_array[np.asarray(y, dtype=bool)]))
    src, dst = active[:, 0], active[:, 1]
    deg = np.bincount(src, minlength=n)
    P = np.full((n, n), (1.0 - c) / n)
    P[src, dst] += c / deg[src]
    P[deg == 0] = 1.0 / n
    return P


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
    P = transition_matrix(instance, y)
    if not 0 <= node < instance.n:
        raise NodeIndexError(f"node {node} outside [0, {instance.n})")
    return P[node].copy()


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


def first_return_time(instance: Instance, y: Selection) -> float:
    """Expected first return time to the target; the solver's objective."""
    return hitting_times(instance, y).fr


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
