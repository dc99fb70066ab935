"""The three valid-inequality families over (theta, y).

Every cut is stored in normalized affine form ``theta >= a0 + sum_e a[e] y[e]``.
All families are tight at their incumbent by construction.  The construction
form puts coefficients on ``(1 - y[e])`` for edges in the incumbent's support
and on ``y[e]`` elsewhere; for a supported edge the construction coefficient
equals ``-a[e]``.

Families:

* ``lshaped``: every coefficient is the gap between a global lower bound and
  the incumbent's value, so the bound decays with Hamming distance.
* ``new``: each edge's coefficient comes from one single-edge forced
  minimization, clipped at zero.
* ``lifted``: ``new`` with the yet-unlifted edges of an ordering forced off
  in each unselected edge's minimization, built by the same loop.  Stronger
  than ``new`` coefficientwise for any ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Callable

from . import oracle
from .errors import LTooLarge
from .instance import Instance, Selection, check_forced, check_lift_order, check_selection

L_SHAPED = "lshaped"
NEW = "new"
LIFTED = "lifted"
FAMILIES = (L_SHAPED, NEW, LIFTED)
DEFAULT_FAMILY = LIFTED

BY_INDEX = "index"
BY_GAMMA = "gamma"
ORDERING_STRATEGIES = (BY_INDEX, BY_GAMMA)

L_GUARD = 1e-9  # slack allowed before a supplied lower bound counts as too large


@dataclass(frozen=True)
class Cut:
    """Affine inequality theta >= constant + coeffs . y, tagged with its
    family and the incumbent it was separated at.  The oracle queries it
    cost are counted by the memo it was built through."""

    constant: float
    coeffs: tuple[float, ...]
    family: str
    incumbent: Selection

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "a0": self.constant,
            "coeffs": list(self.coeffs),
            "incumbent": list(self.incumbent),
        }


@dataclass(frozen=True)
class LiftOrdering:
    """A permutation of the unselected fragile-edge ids."""

    order: tuple[int, ...]


def eval_cut(cut: Cut, y: Selection) -> float:
    """Right-hand side of the cut at a selection, checked against the cut's arity."""
    y = check_selection(len(cut.coeffs), y)
    return cut.constant + sum(a * b for a, b in zip(cut.coeffs, y))


def construction_coefficient(cut: Cut, edge_id: int) -> float:
    """Coefficient in construction form: multiplies (1 - y) for edges in the
    incumbent's support and y elsewhere.  This is the form the dominance
    ordering between families is stated in.  Ids are checked as check_forced checks them."""
    check_forced(len(cut.coeffs), (edge_id,), ())
    if cut.incumbent[edge_id]:
        return -cut.coeffs[edge_id]
    return cut.coeffs[edge_id]


def l_shaped_cut(
    instance: Instance, incumbent: Selection, lower_bound: float, memo: oracle.Memo | None = None
) -> Cut:
    """Distance-decay cut from a global lower bound on the objective.

    ``lower_bound`` must not exceed the optimum; 0 is always legal, the
    unconstrained minimum is the sharpest legal choice.  Asks no oracle query,
    since the bound is supplied by the caller.  ``memo`` (one per solve; a
    fresh one when None) supplies the incumbent's return time.  A bound that
    is not a finite number raises ValueError before the memo is read.
    """
    incumbent = check_selection(instance.z_count, incumbent)
    if not math.isfinite(lower_bound):
        raise ValueError(f"lower bound must be a finite number, got {lower_bound}")
    fr_bar = oracle.memo_for(instance, memo).evaluate(incumbent).fr
    if lower_bound > fr_bar + L_GUARD:
        raise LTooLarge(f"lower bound {lower_bound} exceeds the incumbent value {fr_bar}")
    gap = lower_bound - fr_bar
    constant = fr_bar + gap * (len(incumbent) - incumbent.count(0))  # times the support's size
    coeffs = tuple([-gap if b else gap for b in incumbent])
    return Cut(constant=constant, coeffs=coeffs, family=L_SHAPED, incumbent=incumbent)


def forced_queries(incumbent: Selection, order: tuple[int, ...], tails: bool) -> list[oracle.GammaQuery]:
    """The oracle queries of ``new`` and ``lifted`` at a checked incumbent, in
    the order they are asked: each supported edge forced off, in id order;
    then each edge of ``order`` (the unselected edges) forced on, with the
    edges after it in ``order`` forced off when ``tails`` (``lifted``) and
    nothing forced off otherwise (``new``)."""
    off = [oracle.GammaQuery(forced_off=frozenset({k})) for k, bit in enumerate(incumbent) if bit]
    on = [oracle.GammaQuery(frozenset({k}), frozenset(order[i + 1 :] if tails else ())) for i, k in enumerate(order)]
    return off + on


def _forced_cut(memo: oracle.Memo, incumbent: Selection, order: tuple[int, ...], tails: bool, family: str) -> Cut:
    """The builder of ``new`` and ``lifted`` at a checked incumbent, from the
    memo's answers to ``forced_queries``.  The edge each query forces gets
    ``w = min(0, gamma - fr_bar)`` as its construction coefficient, so ``-w``
    at a supported edge, where ``w`` also joins the constant."""
    fr_bar = memo.evaluate(incumbent).fr
    constant = fr_bar
    coeffs = [0.0] * memo.instance.z_count
    for query in forced_queries(incumbent, order, tails):
        w = min(0.0, memo.gamma(query).value - fr_bar)
        (k,) = query.forced_on or query.forced_off
        if incumbent[k]:  # a supported edge, forced off
            constant += w
        coeffs[k] = -w if incumbent[k] else w
    return Cut(constant=constant, coeffs=tuple(coeffs), family=family, incumbent=incumbent)


def new_cut(instance: Instance, incumbent: Selection, memo: oracle.Memo | None = None) -> Cut:
    """Single-edge-minimization cut: one oracle call per fragile edge.

    For a supported edge the construction coefficient is
    ``min(0, gamma(off e) - fr(incumbent))``; for the rest it is
    ``min(0, gamma(on e) - fr(incumbent))``, a lift with no tail.  The
    queries are asked of ``memo`` (one per solve; a fresh one when None),
    which counts them and does not solve again those it already holds.
    """
    incumbent = check_selection(instance.z_count, incumbent)
    unselected = tuple(k for k, bit in enumerate(incumbent) if not bit)
    return _forced_cut(oracle.memo_for(instance, memo), incumbent, unselected, False, NEW)


def make_lift_ordering(
    instance: Instance, incumbent: Selection, strategy: str = BY_INDEX, memo: oracle.Memo | None = None
) -> LiftOrdering:
    """Build the lifting order over the unselected fragile edges.

    ``index`` asks no oracle query; ``gamma`` asks one single-edge query per
    unselected edge (sorted ascending by that value, ties by edge id),
    through ``memo`` (one per solve; a fresh one when None).
    """
    unselected = [k for k, bit in enumerate(check_selection(instance.z_count, incumbent)) if not bit]
    if strategy == BY_INDEX:
        return LiftOrdering(order=tuple(unselected))
    if strategy == BY_GAMMA:
        memo = oracle.memo_for(instance, memo)
        vals = {k: memo.gamma(oracle.GammaQuery(forced_on=frozenset({k}))).value for k in unselected}
        order = tuple(sorted(unselected, key=lambda k: (vals[k], k)))
        return LiftOrdering(order=order)
    raise ValueError(f"unknown ordering strategy {strategy!r}")


def lifted_cut(
    instance: Instance, incumbent: Selection, ordering: LiftOrdering, memo: oracle.Memo | None = None
) -> Cut:
    """Up-lifted cut along an ordering of the unselected edges.

    Supported-edge coefficients are identical to ``new_cut``'s.  The r-th
    ordered edge gets ``min(0, gamma(on r, off tail) - fr(incumbent))`` where
    the tail is everything after r in the ordering; the last edge therefore
    matches its ``new_cut`` coefficient.  One oracle query per fragile edge,
    asked of ``memo`` as in ``new_cut``.
    """
    incumbent = check_selection(instance.z_count, incumbent)
    # the support, as support() gives it, read from the bits already checked
    check_lift_order(instance.z_count, frozenset(compress(range(instance.z_count), incumbent)), ordering.order)
    return _forced_cut(oracle.memo_for(instance, memo), incumbent, ordering.order, True, LIFTED)


def separator(family: str, memo: oracle.Memo, ordering_strategy: str = BY_INDEX) -> Callable[[Selection], list]:
    """The one dispatch on the family: a function that asks ``memo`` the
    oracle queries of the ``family`` cut at an incumbent and returns the
    cut's queries, a list of ``oracle.GammaQuery`` in the order asked; it
    builds no ``Cut``.  Under the ``gamma`` ordering the lift ordering's
    single-edge queries are asked first.  ``lshaped`` asks its bound once,
    here, and nothing per incumbent.  ``forced_queries`` is looked up on this
    module at each incumbent, so a wrapper set on the module later (a
    tracer's) sees every separation."""
    instance = memo.instance
    if family == L_SHAPED:
        oracle.min_unconstrained(instance, memo=memo)  # folded by the solve as the root face's bound
        return lambda incumbent: []
    if family not in FAMILIES:
        raise ValueError(f"unknown cut family {family!r}")
    # new lifts every unselected edge in id order, with no tail
    strategy, tails = (ordering_strategy, True) if family == LIFTED else (BY_INDEX, False)

    def separate(incumbent: Selection) -> list[oracle.GammaQuery]:
        queries = forced_queries(incumbent, make_lift_ordering(instance, incumbent, strategy, memo=memo).order, tails)
        for query in queries:
            memo.gamma(query)
        return queries

    return separate
