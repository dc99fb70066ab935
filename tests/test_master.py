import math

import numpy as np
import pytest

import pagerank_select as ps
from pagerank_select import ConstraintSet, Cut, Row
from pagerank_select.errors import DimensionMismatch, ParseError
from pagerank_select.master import (
    EXHAUSTIVE_MAX,
    INFEASIBLE,
    OPTIMAL,
    _solve_branch_bound,
    _solve_exhaustive,
    feasible_set,
    solve_master,
)


def random_pool(rng, z_count, cut_count):
    cuts = []
    for _ in range(cut_count):
        incumbent = tuple(int(b) for b in rng.integers(0, 2, size=z_count))
        cuts.append(
            Cut(
                constant=float(rng.uniform(0.0, 6.0)),
                coeffs=tuple(float(x) for x in rng.uniform(-3.0, 3.0, size=z_count)),
                family="new",
                incumbent=incumbent,
                gamma_calls=0,
            )
        )
    return cuts


def random_constraints(rng, z_count):
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return ps.EMPTY_CONSTRAINTS
    if kind == 1:
        return ConstraintSet(cardinality=("<=", int(rng.integers(0, z_count + 1))))
    if kind == 2 and z_count:
        coeffs = tuple(int(x) for x in rng.integers(-2, 3, size=z_count))
        return ConstraintSet(rows=(Row(coeffs, ">=", int(rng.integers(-2, 3))),))
    return ConstraintSet(cardinality=("=", int(rng.integers(0, z_count + 1))))


class TestTrivialCases:
    def test_no_cuts_theta_zero_lex_smallest(self):
        result = solve_master([], feasible_set(ps.EMPTY_CONSTRAINTS, 3))
        assert result.status == OPTIMAL
        assert result.theta == 0.0
        assert result.y == (0, 0, 0)

    def test_single_cut_arithmetic(self):
        cut = Cut(constant=5.0, coeffs=(-2.0,), family="new", incumbent=(1,), gamma_calls=0)
        result = solve_master([cut], feasible_set(ps.EMPTY_CONSTRAINTS, 1))
        assert result.y == (1,)
        assert result.theta == pytest.approx(3.0)

    def test_contradictory_rows(self):
        cons = ConstraintSet(rows=(Row((1,), "=", 1), Row((1,), "=", 0)))
        assert solve_master([], feasible_set(cons, 1)).status == INFEASIBLE

    def test_zero_fragile_edges(self):
        result = solve_master([], feasible_set(ps.EMPTY_CONSTRAINTS, 0))
        assert result.status == OPTIMAL
        assert result.y == ()
        assert result.theta == 0.0

    def test_theta_never_negative(self):
        cut = Cut(constant=-7.0, coeffs=(1.0, 1.0), family="new", incumbent=(0, 0), gamma_calls=0)
        result = solve_master([cut], feasible_set(ps.EMPTY_CONSTRAINTS, 2))
        assert result.theta == 0.0

    def test_arity_checked(self):
        cut = Cut(constant=1.0, coeffs=(1.0, 2.0), family="new", incumbent=(0, 0), gamma_calls=0)
        with pytest.raises(DimensionMismatch):
            solve_master([cut], feasible_set(ps.EMPTY_CONSTRAINTS, 3))


class TestAgainstEnumeration:
    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            z = int(rng.integers(0, 9))
            cuts = random_pool(rng, z, int(rng.integers(0, 5)))
            cons = random_constraints(rng, z)
            result = solve_master(cuts, feasible_set(cons, z))
            best = math.inf
            for bits in ps.enumerate_feasible(cons, z):
                theta = max([0.0] + [ps.eval_cut(c, bits) for c in cuts])
                best = min(best, theta)
            if math.isinf(best):
                assert result.status == INFEASIBLE
            else:
                assert abs(result.theta - best) <= 1e-12

    def test_theta_matches_cut_evaluation_at_returned_point(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = int(rng.integers(1, 7))
            cuts = random_pool(rng, z, 3)
            result = solve_master(cuts, feasible_set(ps.EMPTY_CONSTRAINTS, z))
            direct = max([0.0] + [ps.eval_cut(c, result.y) for c in cuts])
            assert abs(result.theta - direct) <= 1e-12


class TestBranchAndBound:
    def test_agrees_with_exhaustive(self):
        # branch and bound never reads the enumerated points, so it is the
        # independent check of feasible_set's enumeration
        rng = np.random.default_rng(12)
        for _ in range(150):
            z = int(rng.integers(0, 9))
            cuts = random_pool(rng, z, int(rng.integers(0, 5)))
            cons = random_constraints(rng, z)
            a = _solve_exhaustive(cuts, feasible_set(cons, z).points)
            b = _solve_branch_bound(cuts, cons.compiled_rows(z), z)
            assert a.status == b.status
            if a.status == OPTIMAL:
                assert abs(a.theta - b.theta) <= 1e-12
                assert a.y == b.y

    def test_root_bound_is_a_relaxation(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            z = int(rng.integers(1, 8))
            cuts = random_pool(rng, z, 3)
            result = _solve_branch_bound(cuts, (), z)
            root = max(
                [0.0]
                + [c.constant + sum(min(a, 0.0) for a in c.coeffs) for c in cuts]
            )
            assert root <= result.theta + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        cuts = random_pool(rng, 6, 4)
        rows = ConstraintSet(cardinality=("<=", 3)).compiled_rows(6)
        first = _solve_branch_bound(cuts, rows, 6)
        second = _solve_branch_bound(cuts, rows, 6)
        assert first == second

    def test_auto_dispatch(self):
        rng = np.random.default_rng(15)
        z = EXHAUSTIVE_MAX + 1
        cuts = random_pool(rng, z, 2)
        auto = solve_master(cuts, feasible_set(ps.EMPTY_CONSTRAINTS, z))
        bnb = _solve_branch_bound(cuts, (), z)
        assert auto == bnb


class TestFeasibleSet:
    def test_points_are_the_enumerated_selections_in_order(self):
        rng = np.random.default_rng(16)
        for _ in range(60):
            z = int(rng.integers(0, EXHAUSTIVE_MAX + 1))
            cons = random_constraints(rng, z)
            points = feasible_set(cons, z).points
            expected = list(ps.enumerate_feasible(cons, z))
            assert points.dtype == float
            assert points.shape == (len(expected), z)
            assert [tuple(int(b) for b in p) for p in points] == expected

    def test_zero_fragile_edges_has_one_empty_point(self):
        assert feasible_set(ps.EMPTY_CONSTRAINTS, 0).points.shape == (1, 0)

    def test_infeasible_set_has_no_points(self):
        cons = ConstraintSet(rows=(Row((1, 0, 0), "=", 1), Row((1, 0, 0), "=", 0)))
        assert feasible_set(cons, 3).points.shape == (0, 3)

    def test_points_are_read_only(self):
        points = feasible_set(ps.EMPTY_CONSTRAINTS, 2).points
        with pytest.raises(ValueError):
            points[0, 0] = 1.0

    def test_no_points_above_the_enumeration_cutoff(self):
        cons = ConstraintSet(cardinality=("<=", 2))
        feasible = feasible_set(cons, EXHAUSTIVE_MAX + 1)
        assert feasible.points is None
        assert feasible.rows == cons.compiled_rows(EXHAUSTIVE_MAX + 1)

    @pytest.mark.parametrize("z", [3, EXHAUSTIVE_MAX + 1])
    def test_wrong_arity_row_rejected(self, z):
        cons = ConstraintSet(rows=(Row((1,) * (z - 1), "<=", 1),))
        with pytest.raises(DimensionMismatch):
            feasible_set(cons, z)

    @pytest.mark.parametrize("z", [3, EXHAUSTIVE_MAX + 1])
    def test_unknown_sense_rejected(self, z):
        cons = ConstraintSet(rows=(Row((1,) * z, "<", 1),))
        with pytest.raises(ParseError):
            feasible_set(cons, z)
