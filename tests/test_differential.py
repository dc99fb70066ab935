"""Differential check of the cutting-plane solver against a scan of its own
feasible set.

Each case solves one seeded instance with every cut family and compares the
optimum with the least return time over every point of ``feasible_set``,
evaluated through one ``oracle.Memo``: the evaluator the solver reads its
incumbents through, so the two sides agree within 1e-9 absolute even at
damping 0.999, where the dense and low-rank evaluators sit 5.0e-9 apart.
"""

import numpy as np
import pytest

import pagerank_select as ps
from pagerank_select import ConstraintSet, Row, oracle
from pagerank_select.master import feasible_set
from pagerank_select.solver import OPTIMAL

DAMPINGS = (0.5, 0.85, 0.99, 0.999)
SPECS = ("none", "card_le:3", "card_ge:2", "card_eq:3", "cover:2", "rows")


def mixed_rows(z_count):
    """Rows of each sense with mixed signs, feasible for any |Z| >= 5."""
    pad = (0,) * (z_count - 5)
    return ConstraintSet(rows=(
        Row((1, -1, 2, -1, 0) + pad, "<=", 1),
        Row((0, 1, 0, 1, -1) + pad, "=", 1),
        Row((1,) * z_count, ">=", 2),
    ))


def case(damping, spec, draw):
    """Instance ``draw`` of (damping, spec): n in 8..60 and |Z| in 5..10,
    drawn from a generator seeded by the case's place in the grid."""
    index = 2 * (DAMPINGS.index(damping) * len(SPECS) + SPECS.index(spec)) + draw
    rng = np.random.default_rng(4_000 + index)
    n, z_count = int(rng.integers(8, 61)), int(rng.integers(5, 11))
    density = float(rng.uniform(0.05, 0.3)) * 12 / n
    inst, cons = ps.generate_random(
        n, density, z_count, None if spec == "rows" else spec, seed=index, damping=damping
    )
    return inst, mixed_rows(z_count) if spec == "rows" else cons


def assert_matches_scan(inst, cons):
    memo = oracle.Memo(inst)
    scan = min(memo.evaluate(point).fr for point in feasible_set(cons, inst.z_count).points)
    for family in ps.FAMILIES:
        report = ps.solve(inst, cons, family=family)
        assert report.status == OPTIMAL, family
        assert ps.is_feasible(cons, report.best_y), family
        assert report.best_value == memo.evaluate(report.best_y).fr, family
        assert abs(report.best_value - scan) <= 1e-9, (family, report.best_value, scan)


@pytest.mark.parametrize("draw", [0, 1])
@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("damping", DAMPINGS)
def test_solve_matches_a_scan_of_the_feasible_set(damping, spec, draw):
    assert_matches_scan(*case(damping, spec, draw))


def test_damping_0999_case_where_the_evaluators_disagree():
    # bf_min's dense evaluator and the memo's low-rank one are 5.0e-9 apart
    # at this optimum (fr about 6163); one evaluator on both sides closes it
    assert_matches_scan(*ps.generate_random(12, 0.15, 8, "card_eq:3", seed=1103, damping=0.999))
