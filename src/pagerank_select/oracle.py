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
activating its cheapest free target.  The loop ends when it proposes a
selection it has evaluated, and answers with the lowest one it evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

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
    value of its active out-neighbor set; ties keep an edge deactivated.

    One pass over the free edges, cheapest first (ties by id): each is taken
    while it lowers the running mean by more than ``MEAN_IMPROVEMENT``, and
    the first that does not ends the pass, since a refusal leaves the mean as
    it was and every later target is at least as dear.  With no base target
    the running mean is ``mean_all``, the dangling node's uniform jump."""
    total = float(sum(h[j] for j in base_targets))
    count = len(base_targets)
    chosen: set[int] = set()
    for k, j in sorted(free_edges, key=lambda kj: (h[kj[1]], kj[0])):
        mean = total / count if count else mean_all
        if not (total + h[j]) / (count + 1) < mean - MEAN_IMPROVEMENT:
            break
        chosen.add(k)
        total += float(h[j])
        count += 1
    return chosen


def gamma(instance: Instance, query: GammaQuery, *, memo: Memo | None = None) -> GammaResult:
    """Minimize the first return time subject to the forced edges.

    Policy iteration in one loop: start with every free edge activated;
    evaluate the selection, then build the next from the forced-on edges and
    each node's greedy re-selection, until it proposes a selection already
    evaluated.  A fixed point proposes itself again; rounding noise in h
    above ``MEAN_IMPROVEMENT`` can instead make the greedy step recur to an
    earlier selection.  Either way the answer is the lowest ``(fr,
    selection)`` evaluated, a return time at a point of the query's face.
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

    # Only the sources of free edges re-select; their fixed targets keep
    # edge_array's order, and their forced-on targets follow by id.
    # Targets are named by their place in Evaluation.h.  Every selection
    # proposed starts from the forced-on bits, ``on``.
    on = [int(k in forced_on) for k in range(z_count)]
    nodes = []  # (base targets, free edges) per source with a free edge, ascending
    for fixed, edges in memo._sources:
        free = [e for e in edges if e[0] not in forced]
        if free:
            if len(free) < len(edges):
                fixed += tuple(at for k, at in edges if k in forced_on)
            nodes.append((fixed, free))
    y = tuple([0 if k in forced_off else 1 for k in range(z_count)])

    evaluated: dict[Selection, float] = {}
    while y not in evaluated:
        profile = memo.evaluate(y)
        evaluated[y] = profile.fr
        h = profile.h
        mean_all = profile.h_sum / instance.n
        bits = on.copy()
        for base_targets, node_free in nodes:
            for k in _greedy_subset(h, base_targets, node_free, mean_all):
                bits[k] = 1
        y = tuple(bits)
    value, argmin = min(zip(evaluated.values(), evaluated))
    return GammaResult(value=value, argmin=argmin, iterations=len(evaluated))


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
    and every answer comes from it through ``chain.low_rank_hitting_times``,
    or through ``chain.low_rank_hitting_times_many`` for the selections that
    ``evaluate_many`` evaluates together, with the same bits.  A selection's
    cache entry is an ``Evaluation``, which holds no n-vector; the entries
    are read through ``evaluations``.  ``gamma_calls`` counts the queries
    asked, repeats included; ``gamma_solves`` the distinct ones.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.walk = chain.factor_walk(instance)
        # The watched nodes, ascending: the fragile targets and the fixed
        # targets out of the fragile sources; Evaluation.h holds h at them.
        # fragile_at[k] is the place there of fragile edge k's target.
        fragile, fixed = instance.fragile_array, self.walk.fixed_edges
        self._watched = np.unique(np.concatenate((fragile[:, 1], fixed[:, 1])))
        fragile_at = np.searchsorted(self._watched, fragile[:, 1]).tolist()
        fixed_at: dict[int, list[int]] = {}
        for i, at in zip(fixed[:, 0].tolist(), np.searchsorted(self._watched, fixed[:, 1]).tolist()):
            fixed_at.setdefault(i, []).append(at)
        # Per fragile source, ascending: the places of its fixed targets and
        # its fragile edges as (id, place of the target), by id.  Each query
        # copies the edges it leaves free.
        edges_at: dict[int, list[tuple[int, int]]] = {}
        for k, i in enumerate(fragile[:, 0].tolist()):
            edges_at.setdefault(i, []).append((k, fragile_at[k]))
        self._sources = [(tuple(fixed_at.get(i, ())), tuple(edges)) for i, edges in sorted(edges_at.items())]
        self._gamma: dict[tuple[frozenset[int], frozenset[int]], GammaResult] = {}
        self._evaluations: dict[Selection, Evaluation] = {}
        self.gamma_calls = 0

    @property
    def gamma_solves(self) -> int:
        """Policy iterations actually run: the distinct queries answered."""
        return len(self._gamma)

    @property
    def evaluations(self) -> Mapping[Selection, Evaluation]:
        """Every selection evaluated so far, as the tuple ``check_selection``
        returns, to its entry: a read-only view, which evaluates nothing."""
        return MappingProxyType(self._evaluations)

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
        is checked by ``instance.check_selection`` first, and the tuple it
        returns keys the entry, so every accepted form of a selection finds
        one entry."""
        y = check_selection(self.instance.z_count, y)
        entry = self._evaluations.get(y)
        if entry is None:
            entry = self._evaluations[y] = self._entry(chain.low_rank_hitting_times(self.walk, y))
        return entry

    def evaluate_many(self, ys: Iterable[Selection]) -> None:
        """``evaluate`` at each selection of ``ys``, storing the same entries,
        with the new ones evaluated together by
        ``chain.low_rank_hitting_times_many``.  Every selection is checked by
        ``instance.check_selection`` before any is evaluated; selections the
        memo holds, and repeats, are skipped."""
        z_count = self.instance.z_count
        todo = [y for y in dict.fromkeys(check_selection(z_count, y) for y in ys) if y not in self._evaluations]
        for i, profile in chain.low_rank_hitting_times_many(self.walk, todo):
            self._evaluations[todo[i]] = self._entry(profile)

    def _entry(self, profile: chain.HittingProfile) -> Evaluation:
        return Evaluation(profile.fr, profile.h.take(self._watched).tolist(), float(profile.h.sum()))


def memo_for(instance: Instance, memo: Memo | None) -> Memo:
    """``memo`` itself, checked to answer for ``instance``; a fresh memo when
    it is None."""
    if memo is None:
        return Memo(instance)
    if memo.instance is not instance:
        raise ValueError("the memo was made for another instance")
    return memo
