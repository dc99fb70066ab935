"""Differential check of the cutting-plane solver against a scan of its own
feasible set.

Each case solves one seeded instance with every cut family and compares the
optimum with the least return time over every point of ``feasible_set``,
evaluated through one ``oracle.Memo``: the evaluator the solver reads its
incumbents through, so the two sides agree within 1e-9 absolute even at
damping 0.999, where the dense and low-rank evaluators sit 5.0e-9 apart.
"""

import pytest

import pagerank_select as ps
from pagerank_select import oracle
from pagerank_select.master import feasible_set
from pagerank_select.solver import OPTIMAL
from helpers import DAMPINGS, SPECS, differential_case


def assert_matches_scan(inst, cons):
    memo = oracle.Memo(inst)
    scan = min(memo.evaluate(point).fr for point in feasible_set(cons, inst.z_count).points)
    for family in ps.FAMILIES:
        report = ps.solve(inst, cons, family=family)
        assert report.status == OPTIMAL, family
        assert ps.is_feasible(cons, inst.z_count, report.best_y), family
        assert report.best_value == memo.evaluate(report.best_y).fr, family
        assert abs(report.best_value - scan) <= 1e-9, (family, report.best_value, scan)


@pytest.mark.parametrize("draw", [0, 1])
@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("damping", DAMPINGS)
def test_solve_matches_a_scan_of_the_feasible_set(damping, spec, draw):
    assert_matches_scan(*differential_case(damping, spec, draw))


def test_damping_0999_case_where_the_evaluators_disagree():
    # bf_min's dense evaluator and the memo's low-rank one are 5.0e-9 apart
    # at this optimum (fr about 6163); one evaluator on both sides closes it
    assert_matches_scan(*ps.generate_random(12, 0.15, 8, "card_eq:3", seed=1103, damping=0.999))
