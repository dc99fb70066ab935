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
from typing import Callable, Iterable

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
    coeffs = tuple(-gap if b else gap for b in incumbent)
    return Cut(constant=constant, coeffs=coeffs, family=L_SHAPED, incumbent=incumbent)


def _forced_cut(memo: oracle.Memo, incumbent: Selection, sel: frozenset[int], lifts: Iterable, family: str) -> Cut:
    """The builder of ``new`` and ``lifted`` at a checked incumbent and its support
    ``sel``.  Asks each edge of ``sel`` forced off, in id order, for ``w = min(0,
    gamma - fr_bar)`` in the constant and ``-w`` at the edge; then each ``(edge,
    tail)`` of ``lifts``, forced on with its tail off, for ``min(0, gamma - fr_bar)``."""
    fr_bar = memo.evaluate(incumbent).fr
    constant = fr_bar
    coeffs = [0.0] * memo.instance.z_count
    for k in sorted(sel):
        g = memo.gamma(oracle.GammaQuery(forced_off=frozenset({k}))).value
        w = min(0.0, g - fr_bar)
        constant += w
        coeffs[k] = -w
    for k, tail in lifts:
        g = memo.gamma(oracle.GammaQuery(forced_on=frozenset({k}), forced_off=tail)).value
        coeffs[k] = min(0.0, g - fr_bar)
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
    sel = frozenset(compress(range(instance.z_count), incumbent))  # support(), the bits already checked
    lifts = ((k, frozenset()) for k in range(instance.z_count) if k not in sel)
    return _forced_cut(oracle.memo_for(instance, memo), incumbent, sel, lifts, NEW)


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
    sel = frozenset(compress(range(instance.z_count), incumbent))  # support(), the bits already checked
    check_lift_order(instance.z_count, sel, ordering.order)
    lifts = ((k, frozenset(ordering.order[pos + 1 :])) for pos, k in enumerate(ordering.order))
    return _forced_cut(oracle.memo_for(instance, memo), incumbent, sel, lifts, LIFTED)


def separator(family: str, memo: oracle.Memo, ordering_strategy: str = BY_INDEX) -> Callable[[Selection], Cut]:
    """The one family-to-builder map: a function from an incumbent to the
    ``family`` cut there, built through ``memo``.  The ``lshaped`` bound is
    asked once, here.  Builders are looked up on this module at each cut, so
    a wrapper set on the module later (a tracer's) sees every cut."""
    instance = memo.instance
    if family == L_SHAPED:
        lower_bound = oracle.min_unconstrained(instance, memo=memo)
        return lambda incumbent: l_shaped_cut(instance, incumbent, lower_bound, memo=memo)
    if family == NEW:
        return lambda incumbent: new_cut(instance, incumbent, memo=memo)
    if family == LIFTED:
        def lifted(incumbent: Selection) -> Cut:
            ordering = make_lift_ordering(instance, incumbent, ordering_strategy, memo=memo)
            return lifted_cut(instance, incumbent, ordering, memo=memo)
        return lifted
    raise ValueError(f"unknown cut family {family!r}")
