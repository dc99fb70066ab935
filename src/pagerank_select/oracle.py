"""Fast minimization of the first return time over free fragile edges.

Some fragile edges may be forced on, some forced off; the rest are free.  The
minimizer is found by policy iteration on the underlying shortest-path control
problem: each node independently re-selects which of its free fragile
out-edges to activate, given the current hitting-time estimates.  Because the
teleportation step reaches the target from everywhere when damping < 1, every
configuration is proper and the iteration converges to the global optimum;
correctness is gated on the exhaustive twin in bruteforce.

The per-node step is the classical minimize-the-mean rule: with out-neighbor
value estimates at hand, include the next-cheapest free target exactly when it
strictly lowers the mean of the included values.  A node with no fixed or
forced-on out-edges also weighs staying dangling (uniform jump) against
activating its cheapest free target.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import chain
from .errors import DampingRangeError, DimensionMismatch, OverlapError
from .instance import Instance, Selection

MEAN_IMPROVEMENT = 1e-12


@dataclass(frozen=True)
class GammaQuery:
    """Disjoint sets of fragile-edge ids forced on and forced off."""

    forced_on: frozenset[int] = frozenset()
    forced_off: frozenset[int] = frozenset()


@dataclass(frozen=True)
class GammaResult:
    """Optimal value, a minimizing selection, and the sweep count used."""

    value: float
    argmin: Selection
    iterations: int


def _greedy_subset(h, base_targets, free_edges, mean_all):
    """Pick the free out-edges of one node that minimize the mean hitting
    value of its active out-neighbor set; ties keep an edge deactivated."""
    order = sorted(free_edges, key=lambda kj: (h[kj[1]], kj[0]))
    total = float(sum(h[j] for j in base_targets))
    count = len(base_targets)
    chosen: set[int] = set()
    if count == 0:
        k0, j0 = order[0]
        if h[j0] < mean_all - MEAN_IMPROVEMENT:
            chosen.add(k0)
            total, count = float(h[j0]), 1
        else:
            return chosen  # staying dangling is at least as good
    for k, j in order:
        if k in chosen:
            continue
        if (total + h[j]) / (count + 1) < total / count - MEAN_IMPROVEMENT:
            chosen.add(k)
            total += float(h[j])
            count += 1
    return chosen


def gamma(instance: Instance, query: GammaQuery, *, walk: chain.WalkFactor | None = None) -> GammaResult:
    """Minimize the first return time subject to the forced edges.

    Policy iteration: start with every free edge activated; alternate exact
    hitting-time evaluation with the per-node greedy re-selection until no
    node changes.  Rounding noise in h above ``MEAN_IMPROVEMENT`` can make the
    greedy step cycle; when it returns a selection already evaluated, the
    lowest-``fr`` selection seen is returned (ties by the selection tuple).
    Every evaluation is ``chain.low_rank_hitting_times`` on ``walk``, the
    instance's factored walk (one solve shares one; a fresh one when None).
    """
    forced_on = frozenset(query.forced_on)
    forced_off = frozenset(query.forced_off)
    both = forced_on & forced_off
    if both:
        raise OverlapError(f"fragile edge(s) {sorted(both)} forced both on and off")
    z_count = instance.z_count
    for k in forced_on | forced_off:
        if not 0 <= k < z_count:
            raise DimensionMismatch(f"fragile edge id {k} outside [0, {z_count})")
    if instance.damping >= 1.0:
        raise DampingRangeError("the minimization oracle requires damping < 1")
    if walk is None:
        walk = chain.factor_walk(instance)
    elif walk.instance is not instance:
        raise ValueError("the factored walk was made for another instance")

    # Only the sources of free edges re-select; their fixed and forced-on
    # targets keep the order of instance.edges, then of forced_on.
    free_by_node: dict[int, list[tuple[int, int]]] = {}
    for k, (i, j) in enumerate(instance.fragile):
        if k not in forced_on and k not in forced_off:
            free_by_node.setdefault(i, []).append((k, j))
    base_targets: dict[int, list[int]] = {i: [] for i in free_by_node}
    for i, j in walk.fixed_edges.tolist():
        if i in base_targets:
            base_targets[i].append(j)
    for k in forced_on:
        i, j = instance.fragile[k]
        if i in base_targets:
            base_targets[i].append(j)
    nodes = sorted(free_by_node.items())

    y = [0] * z_count
    for k in forced_on:
        y[k] = 1
    for _, node_edges in nodes:
        for k, _ in node_edges:
            y[k] = 1

    evaluated: dict[Selection, float] = {}
    while True:
        current = tuple(y)
        profile = chain.low_rank_hitting_times(walk, current)
        evaluated[current] = profile.fr
        h = profile.h
        mean_all = float(h.sum()) / instance.n
        changed = False
        for node, node_free in nodes:
            chosen = _greedy_subset(h, base_targets[node], node_free, mean_all)
            for k, _ in node_free:
                bit = 1 if k in chosen else 0
                if y[k] != bit:
                    y[k] = bit
                    changed = True
        if not changed:
            return GammaResult(value=profile.fr, argmin=current, iterations=len(evaluated))
        if tuple(y) in evaluated:
            best = min(evaluated, key=lambda sel: (evaluated[sel], sel))
            return GammaResult(value=evaluated[best], argmin=best, iterations=len(evaluated))


def min_unconstrained(instance: Instance, memo: Memo | None = None) -> float:
    """Global minimum of the first return time over the whole cube; the
    sharpest legal constant for the distance-style cut family."""
    return memo_for(instance, memo).gamma(GammaQuery()).value


class Memo:
    """The answers of one solve: each distinct oracle query and each return
    time at a selection is computed once.

    Create one per solve and drop it with the solve; it keeps every answer, so
    a memo that outlived its solve would grow without bound.  Only results are
    stored: a query that raises is asked again, and raises again, next time.
    Every answer is computed from one factored walk (``walk``), the solve's
    only factorisation.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self._gamma: dict[tuple[frozenset[int], frozenset[int]], GammaResult] = {}
        self._fr: dict[Selection, float] = {}
        self._walk: chain.WalkFactor | None = None

    @property
    def walk(self) -> chain.WalkFactor:
        """The instance's factored walk, built when first needed and shared
        by every return time and every policy-iteration sweep of the solve."""
        if self._walk is None:
            self._walk = chain.factor_walk(self.instance)
        return self._walk

    @property
    def gamma_solves(self) -> int:
        """Policy iterations actually run: the distinct queries answered."""
        return len(self._gamma)

    def gamma(self, query: GammaQuery) -> GammaResult:
        """``gamma(instance, query)``, run once per distinct forced pair."""
        key = (frozenset(query.forced_on), frozenset(query.forced_off))
        result = self._gamma.get(key)
        if result is None:
            result = self._gamma[key] = gamma(self.instance, query, walk=self.walk)
        return result

    def fr(self, y: Selection) -> float:
        """First return time at a selection, evaluated once per selection."""
        y = tuple(int(b) for b in y)
        value = self._fr.get(y)
        if value is None:
            value = self._fr[y] = chain.low_rank_hitting_times(self.walk, y).fr
        return value


def memo_for(instance: Instance, memo: Memo | None) -> Memo:
    """``memo`` itself, checked to answer for ``instance``; a fresh memo when
    it is None."""
    if memo is None:
        return Memo(instance)
    if memo.instance is not instance:
        raise ValueError("the memo was made for another instance")
    return memo
