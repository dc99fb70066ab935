"""Exhaustive enumeration twins used as reference answers in tests and checks.

Deliberately simple, no pruning: these must stay easy to trust.  Every twin
walks the cube through one loop, ``_selections``, which refuses a walk with
more than ENUM_LIMIT free positions.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator, Sequence

from . import chain
from .errors import DimensionMismatch, Infeasible, InvalidOrdering, TooLargeToEnumerate
from .instance import (
    ConstraintSet, EMPTY_CONSTRAINTS, Instance, Selection, check_forced, check_lift_order, check_selection, support
)

# Most free positions a twin enumerates; read at call time.
ENUM_LIMIT = 20


def is_feasible(constraints: ConstraintSet, z_count: int, y: Selection) -> bool:
    """True iff the selection ``y`` of ``z_count`` bits, checked by
    check_selection, meets every row (and the cardinality shortcut)."""
    return constraints.compiled_rows(z_count).admits(y)


def _selections(constraints: ConstraintSet, z_count: int, on=frozenset(), off=frozenset()) -> Iterator[Selection]:
    """The feasible selections with the positions in ``on`` set and those in
    ``off`` clear, in lexicographic order over the free positions: every
    point of that face, each tested by ``admits``.  Raises
    TooLargeToEnumerate when called if more than ENUM_LIMIT positions are
    free, and then checks the rows."""
    choices = [(1,) if k in on else (0,) if k in off else (0, 1) for k in range(z_count)]
    free = sum(len(bits) - 1 for bits in choices)
    if free > ENUM_LIMIT:
        raise TooLargeToEnumerate(f"{free} free fragile edges exceed the enumeration limit {ENUM_LIMIT}")
    return filter(constraints.compiled_rows(z_count).admits, product(*choices))


def enumerate_feasible(constraints: ConstraintSet, z_count: int) -> Iterator[Selection]:
    """Yield the feasible points of the binary cube in lexicographic order."""
    return _selections(constraints, z_count)


def bf_min(instance: Instance, constraints: ConstraintSet = EMPTY_CONSTRAINTS) -> tuple[Selection, float]:
    """Exhaustive minimum of the first return time over the feasible cube.

    Returns (argmin, value); ties keep the lexicographically smallest point.
    """
    best_y, best_val = None, math.inf
    for y in _selections(constraints, instance.z_count):
        val = chain.hitting_times(instance, y).fr
        if val < best_val:
            best_y, best_val = y, val
    if best_y is None:
        raise Infeasible("no selection satisfies the constraints")
    return best_y, best_val


def bf_gamma(instance: Instance, forced_on, forced_off) -> float:
    """Exhaustive minimum respecting the forced-on/forced-off edges, whose ids
    are checked as ``gamma`` checks them (``instance.check_forced``)."""
    forced_on, forced_off = check_forced(instance.z_count, forced_on, forced_off)
    points = _selections(EMPTY_CONSTRAINTS, instance.z_count, forced_on, forced_off)
    return min(chain.hitting_times(instance, y).fr for y in points)


def bf_exact_lift(
    instance: Instance,
    constraints: ConstraintSet,
    incumbent: Selection,
    ordering: Sequence[int],
    prior_coeffs: Sequence[float],
    r: int,
) -> float:
    """Exact lifting coefficient at position r (1-based) of the ordering.

    Enumerates every selection with the r-th ordered edge on, the later ones
    off, and everything else free, minimizing the first return time minus the
    already-fixed terms of the inequality under construction (the clipped
    single-edge coefficients on the incumbent's support and prior_coeffs on
    positions before r).  The incumbent-support coefficients are computed here
    with bf_gamma so this stays independent of the fast oracle.
    """
    z_count = instance.z_count
    incumbent = check_selection(z_count, incumbent)
    sel = support(incumbent)
    check_lift_order(z_count, sel, ordering)
    if not 1 <= r <= len(ordering):
        raise InvalidOrdering(f"position {r} outside [1, {len(ordering)}]")
    if len(prior_coeffs) < r - 1:
        raise DimensionMismatch(f"need {r - 1} prior coefficients, got {len(prior_coeffs)}")
    fr_bar = chain.hitting_times(instance, incumbent).fr
    sel_coeff = {e: min(0.0, bf_gamma(instance, frozenset(), frozenset({e})) - fr_bar) for e in sel}
    points = _selections(constraints, z_count, {ordering[r - 1]}, set(ordering[r:]))
    prior = {ordering[k]: float(prior_coeffs[k]) for k in range(r - 1)}
    best = math.inf
    for point in points:
        obj = chain.hitting_times(instance, point).fr
        obj -= sum(sel_coeff[e] * (1 - point[e]) for e in sel)
        obj -= sum(coeff * point[k] for k, coeff in prior.items())
        best = min(best, obj)
    if math.isinf(best):
        raise Infeasible("the lifting problem has no feasible point")
    return best - fr_bar
