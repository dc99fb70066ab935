"""Exact cutting-plane loop: alternate master solves and cut separation.

Each round solves the master, evaluates the true objective at the master's
incumbent, and stops once the incumbent value and the master bound meet
within the gap tolerance; otherwise the chosen family is separated at the
incumbent, which asks the solve's memo the oracle queries of the family's
cut there and builds no cut, and the loop repeats.  The master folds each
oracle query answered so far as a bound on its face, and each incumbent's
return time at its own point; in exact arithmetic these imply every cut the
families build, so a separation tightens the master through the queries it
asks.  When the separator asked the unconstrained minimum before round one
(``lshaped``, whose separations ask nothing) and its minimiser meets the
rows, that minimiser is the first incumbent: no feasible point can do
better, so round zero closes the gap.  Each incumbent's row is raised to its
own return time, so a finite incumbent cannot come back while a gap remains;
a return time or master bound that is not a finite number raises in the
round it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from . import cuts as cut_families, master as master_mod, oracle
from .errors import DampingRangeError, NoConvergence
from .instance import ConstraintSet, EMPTY_CONSTRAINTS, Instance, Selection, _is_integer, _is_number

OPTIMAL = "optimal"
ITER_LIMIT = "iter_limit"

DEFAULT_EPS = 1e-9
DEFAULT_MAX_ITERS = 10_000


@dataclass(frozen=True)
class SolveReport:
    """Trace of one cutting-plane run.

    ``lower_bounds``/``upper_bounds`` hold one entry per master solve (the
    master bound and the best incumbent value so far, counting the
    unconstrained minimiser when the memo holds it and it is feasible), so
    they are one longer than ``iterations``, the separations, each at an
    incumbent not separated before.  The master bound is that of the face
    bounds and incumbent values folded so far; no cut is built.
    ``gamma_calls_total`` counts the oracle queries the solve asked its memo;
    ``gamma_solves`` the policy iterations actually run, one per distinct
    query of the solve.
    """

    status: str
    best_y: Selection
    best_value: float
    lower_bounds: tuple[float, ...]
    upper_bounds: tuple[float, ...]
    gamma_calls_total: int
    gamma_solves: int
    iterations: int

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "best_y": list(self.best_y),
            "best_value": self.best_value,
            "lower_bounds": list(self.lower_bounds),
            "upper_bounds": list(self.upper_bounds),
            "gamma_calls_total": self.gamma_calls_total,
            "gamma_solves": self.gamma_solves,
            "iterations": self.iterations,
        }


def solve(
    instance: Instance,
    constraints: ConstraintSet = EMPTY_CONSTRAINTS,
    family: str = cut_families.DEFAULT_FAMILY,
    ordering_strategy: str = cut_families.BY_INDEX,
    eps: float = DEFAULT_EPS,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SolveReport:
    """Minimize the first return time over the feasible selections, exactly.

    An invalid instance raises the error validate names, after the family
    and ordering checks and before the damping refusal.  Raises Infeasible
    when the constraint set admits no selection,
    TooLargeToEnumerate when its feasible selections would pass
    ``master.POINTS_MAX_BYTES``, ValueError (before the enumeration) for an
    unknown family or ordering, an ``eps`` that is not a number (as
    instance._is_number defines one), a ``max_iters`` that is neither an
    integer (as instance._is_integer defines one) nor ``math.inf`` (no
    limit), a negative or NaN ``eps`` or ``max_iters``, or an infinite
    ``eps``, which would close every gap at round zero, and
    NoConvergence in a round whose incumbent value or master bound is not a
    finite number, before its separation; returns a partial trace with
    status "iter_limit" once max_iters separations have run without closing
    the gap.  One ``master.FeasibleSet`` and one ``oracle.Memo`` serve the
    whole solve: each round folds only the memo's new answers and its
    incumbent's value into the master, and each distinct oracle query and
    each incumbent's value is computed once.  When the memo holds the unconstrained query (the
    ``lshaped`` bound) and the compiled rows admit its argmin, that argmin is
    the incumbent before round one, at the memo's own value.

    A round past round zero that folds no new answer, whose master bound is
    below the best value by more than ``eps`` and whose incumbent the memo
    does not hold yet, first evaluates every feasible point tied at the
    master's minimum, in one ``Memo.evaluate_many``: until an answer is new,
    theta rises only at each incumbent's own row, so those points are the
    next incumbents, in order.  Their entries equal ``Memo.evaluate``'s, so
    the report is the same as without the batch.
    """
    if family not in cut_families.FAMILIES:
        raise ValueError(f"unknown cut family {family!r}")
    if ordering_strategy not in cut_families.ORDERING_STRATEGIES:
        raise ValueError(f"unknown ordering strategy {ordering_strategy!r}")
    instance.edge_array  # validates, once per Instance
    if instance.damping >= 1.0:
        raise DampingRangeError("the cutting-plane solver requires damping < 1")
    if not _is_number(eps):
        raise ValueError(f"gap tolerance must be a number, got {eps!r}")
    if not eps >= 0:  # NaN too
        raise ValueError(f"gap tolerance must be nonnegative, got {eps}")
    if eps == math.inf:
        raise ValueError(f"gap tolerance must be finite, got {eps}")
    nan = isinstance(max_iters, float) and math.isnan(max_iters)  # refused by the sign check below
    if not (_is_integer(max_iters) or max_iters == math.inf or nan):
        raise ValueError(f"iteration limit must be an integer or math.inf, got {max_iters!r}")
    if not max_iters >= 0:
        raise ValueError(f"iteration limit must be nonnegative, got {max_iters}")

    feasible = master_mod.feasible_set(constraints, instance.z_count)
    memo = oracle.Memo(instance)
    separate = cut_families.separator(family, memo, ordering_strategy)
    answers = memo.answers
    folded = 0  # the answers already folded into the master as face bounds

    lower: list[float] = []
    upper: list[float] = []
    best_y: Selection | None = None
    best_val = math.inf
    root = answers.get((frozenset(), frozenset()))
    if root is not None and constraints.compiled_rows(instance.z_count).admits(root.argmin):
        best_y, best_val = root.argmin, root.value
    iterations = 0  # separations

    while True:
        fresh = len(answers) > folded
        feasible.fold_faces((on, off, answer.value) for (on, off), answer in islice(answers.items(), folded, None))
        folded = len(answers)
        result = master_mod.solve_master(feasible)
        incumbent = result.y
        if iterations and not fresh and result.theta < best_val - eps and incumbent not in memo.evaluations:
            # Until an answer is new, theta moves only at each incumbent's
            # row, so the next incumbents are the points tied at the minimum.
            memo.evaluate_many(map(tuple, feasible.points[feasible.theta == result.theta].tolist()))
        value = memo.evaluate(incumbent).fr
        if not math.isfinite(value - result.theta):
            raise NoConvergence(
                f"incumbent {incumbent} has return time {value!r}, master bound {result.theta!r}: not a finite number"
            )
        if value < best_val:
            best_y, best_val = incumbent, value
        lower.append(result.theta)
        upper.append(best_val)
        if best_val - result.theta <= eps:
            status = OPTIMAL
            break
        if iterations >= max_iters:
            status = ITER_LIMIT
            break
        iterations += 1
        separate(incumbent)  # its answers, folded next round, tighten the master
        feasible.theta[result.index] = max(feasible.theta[result.index], value)

    return SolveReport(
        status=status,
        best_y=best_y,
        best_value=best_val,
        lower_bounds=tuple(lower),
        upper_bounds=tuple(upper),
        gamma_calls_total=memo.gamma_calls,
        gamma_solves=memo.gamma_solves,
        iterations=iterations,
    )
