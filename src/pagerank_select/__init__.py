"""Exact cutting-plane solver for PageRank optimization by fragile-edge selection.

Pick a subset of optional (fragile) edges, subject to linear constraints, so
that a target node's PageRank is maximized; equivalently, so that the
expected first return time of the damped random walk to that node is
minimized.  The package provides the random-walk numerics, a fast forced-edge
minimization oracle, three families of valid inequalities, an exact
cutting-plane solver, exhaustive reference twins, and a CLI.
"""

from .bruteforce import bf_exact_lift, bf_gamma, bf_min, enumerate_feasible, is_feasible
from .chain import HittingProfile, hitting_times, stationary, transition_matrix
from .cuts import (
    BY_GAMMA,
    BY_INDEX,
    FAMILIES,
    L_SHAPED,
    LIFTED,
    NEW,
    Cut,
    LiftOrdering,
    construction_coefficient,
    eval_cut,
    l_shaped_cut,
    lifted_cut,
    make_lift_ordering,
    new_cut,
)
from .instance import (
    ConstraintSet,
    EMPTY_CONSTRAINTS,
    Instance,
    Row,
    Selection,
    from_support,
    generate_random,
    read_instance,
    support,
    validate,
    validation_errors,
    write_instance,
)
from .master import FeasibleSet, MasterResult, feasible_set, solve_master
from .oracle import GammaQuery, GammaResult, Memo, gamma, min_unconstrained
from .solver import SolveReport, solve

__version__ = "0.1.0"

__all__ = [
    "BY_GAMMA",
    "BY_INDEX",
    "ConstraintSet",
    "Cut",
    "EMPTY_CONSTRAINTS",
    "FAMILIES",
    "FeasibleSet",
    "GammaQuery",
    "GammaResult",
    "HittingProfile",
    "Instance",
    "L_SHAPED",
    "LIFTED",
    "LiftOrdering",
    "MasterResult",
    "Memo",
    "NEW",
    "Row",
    "Selection",
    "SolveReport",
    "bf_exact_lift",
    "bf_gamma",
    "bf_min",
    "construction_coefficient",
    "enumerate_feasible",
    "eval_cut",
    "feasible_set",
    "from_support",
    "gamma",
    "generate_random",
    "hitting_times",
    "is_feasible",
    "l_shaped_cut",
    "lifted_cut",
    "make_lift_ordering",
    "min_unconstrained",
    "new_cut",
    "read_instance",
    "solve",
    "solve_master",
    "stationary",
    "support",
    "transition_matrix",
    "validate",
    "validation_errors",
    "write_instance",
]
