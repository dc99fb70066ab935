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
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import chain
from .instance import Instance, Selection, check_forced, check_selection

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


def gamma(instance: Instance, query: GammaQuery, *, memo: Memo | None = None) -> GammaResult:
    """Minimize the first return time subject to the forced edges.

    Policy iteration: start with every free edge activated; alternate exact
    hitting-time evaluation with the per-node greedy re-selection until no
    node changes.  Rounding noise in h above ``MEAN_IMPROVEMENT`` can make the
    greedy step cycle; when it returns a selection already evaluated, the
    lowest-``fr`` selection seen is returned (ties by the selection tuple).
    Every evaluation goes through ``memo`` (one solve shares one; a fresh one
    when None, which raises DampingRangeError at damping 1), so a
    selection another query already evaluated is not evaluated again.
    Before any evaluation, the edge ids are checked by
    ``instance.check_forced``, as ``bf_gamma`` checks them: DimensionMismatch
    for an id that is a bool, is not an integer or is out of range, and
    OverlapError for one forced both on and off.
    """
    z_count = instance.z_count
    forced_on, forced_off = check_forced(z_count, query.forced_on, query.forced_off)
    forced = forced_on | forced_off
    memo = memo_for(instance, memo)

    # Only the sources of free edges re-select; their fixed and forced-on
    # targets keep the order of instance.edges, then of forced_on.  Targets
    # are named by their place in Evaluation.h.
    forced_at: dict[int, list[int]] = {}
    for k in forced_on:
        forced_at.setdefault(instance.fragile[k][0], []).append(memo._fragile_at[k])
    nodes = []  # (base targets, free edges) per source with a free edge, ascending
    for i, fixed, edges in memo._sources:
        free = [e for e in edges if e[0] not in forced]
        if free:
            nodes.append((fixed + tuple(forced_at[i]) if i in forced_at else fixed, free))
    y = [0 if k in forced_off else 1 for k in range(z_count)]

    evaluated: dict[Selection, float] = {}
    while True:
        current = tuple(y)
        profile = memo.evaluate(current)
        evaluated[current] = profile.fr
        h = profile.h
        mean_all = profile.h_sum / instance.n
        changed = False
        for base_targets, node_free in nodes:
            chosen = _greedy_subset(h, base_targets, node_free, mean_all)
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


@dataclass(frozen=True)
class Evaluation:
    """What policy iteration reads of the hitting times at one selection: the
    return time, ``h`` at the nodes the greedy step weighs (the memo's place
    map says where each is) and the sum of all of ``h``."""

    fr: float
    h: list[float]
    h_sum: float


class Memo:
    """The answers of one solve: each distinct oracle query and each
    selection is evaluated once, and the queries asked are counted here only.

    Create one per solve and drop it with the solve; it keeps every answer, so
    a memo that outlived its solve would grow without bound.  Only results are
    stored: a query that raises is asked again, and raises again, next time.
    The memo factors the instance's walk when it is made (``walk``, the
    solve's only factorisation, so damping 1 raises DampingRangeError here),
    and every answer comes from it through ``chain.low_rank_hitting_times``.
    A selection's cache entry is an ``Evaluation``, which holds no n-vector.
    ``gamma_calls`` counts the queries asked, repeats included;
    ``gamma_solves`` the distinct ones.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.walk = chain.factor_walk(instance)
        # The watched nodes, ascending: the fragile targets and the fixed
        # targets out of the fragile sources; Evaluation.h holds h at them.
        # _fragile_at[k] is the place there of fragile edge k's target.
        fragile_targets = [j for _, j in instance.fragile]
        self._watched = np.unique(np.concatenate((fragile_targets, self.walk.fixed_edges[:, 1])).astype(np.intp))
        place = {j: at for at, j in enumerate(self._watched.tolist())}
        fixed_at: dict[int, list[int]] = {}
        for i, j in self.walk.fixed_edges.tolist():
            fixed_at.setdefault(i, []).append(place[j])
        self._fragile_at = [place[j] for j in fragile_targets]
        # Per fragile source, ascending: the places of its fixed targets and
        # its fragile edges as (id, place of the target), by id.  Each query
        # copies the edges it leaves free.
        edges_at: dict[int, list[tuple[int, int]]] = {}
        for k, (i, _) in enumerate(instance.fragile):
            edges_at.setdefault(i, []).append((k, self._fragile_at[k]))
        self._sources = [(i, tuple(fixed_at.get(i, ())), tuple(edges)) for i, edges in sorted(edges_at.items())]
        self._gamma: dict[tuple[frozenset[int], frozenset[int]], GammaResult] = {}
        self._evaluations: dict[Selection, Evaluation] = {}
        self.gamma_calls = 0

    @property
    def gamma_solves(self) -> int:
        """Policy iterations actually run: the distinct queries answered."""
        return len(self._gamma)

    @property
    def answers(self) -> Mapping[tuple[frozenset[int], frozenset[int]], GammaResult]:
        """Every distinct query answered so far, ``(forced_on, forced_off)``
        to its result, in the order first asked: a read-only view, which
        grows as the memo answers and asks no query."""
        return MappingProxyType(self._gamma)

    def gamma(self, query: GammaQuery) -> GammaResult:
        """``gamma(instance, query)``, run once per distinct forced pair.

        Keys by value: queries whose forced sets are equal as sets share one
        entry, so ``{True}`` finds the answer held for ``{1}``.  The ids are
        checked by ``gamma`` only, when a query is first solved."""
        self.gamma_calls += 1
        key = (frozenset(query.forced_on), frozenset(query.forced_off))
        result = self._gamma.get(key)
        if result is None:
            result = self._gamma[key] = gamma(self.instance, query, memo=self)
        return result

    def evaluate(self, y: Selection) -> Evaluation:
        """What a policy-iteration sweep reads at selection ``y``, evaluated
        once per selection.  A solve reads its incumbents' return times
        here too, so that a later sweep through an incumbent finds it.  ``y``
        is looked up as given first; entries are keyed by the tuple that
        ``instance.check_selection`` returns, which checks ``y`` on a miss."""
        try:
            entry = self._evaluations.get(y)
        except TypeError:  # a form that is no dict key
            entry = None
        if entry is None:
            y = check_selection(self.instance.z_count, y)
            entry = self._evaluations.get(y)
            if entry is None:
                profile = chain.low_rank_hitting_times(self.walk, y)
                entry = Evaluation(profile.fr, profile.h.take(self._watched).tolist(), float(profile.h.sum()))
                self._evaluations[y] = entry
        return entry


def memo_for(instance: Instance, memo: Memo | None) -> Memo:
    """``memo`` itself, checked to answer for ``instance``; a fresh memo when
    it is None."""
    if memo is None:
        return Memo(instance)
    if memo.instance is not instance:
        raise ValueError("the memo was made for another instance")
    return memo
