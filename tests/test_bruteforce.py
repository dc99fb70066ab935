from itertools import product

import numpy as np
import pytest

import pagerank_select as ps
from pagerank_select import ConstraintSet, Row, bruteforce
from pagerank_select.cuts import BY_INDEX, construction_coefficient
from pagerank_select.errors import (
    DimensionMismatch,
    PagerankSelectError,
    Infeasible,
    InvalidOrdering,
    OverlapError,
    TooLargeToEnumerate,
)


@pytest.fixture(scope="module")
def frozen():
    inst, _ = ps.generate_random(6, 0.3, 4, None, seed=42, damping=0.85)
    return inst


class TestFeasibility:
    def test_empty_constraints_accept_everything(self):
        assert ps.is_feasible(ps.EMPTY_CONSTRAINTS, 3, (0, 1, 1))
        assert ps.is_feasible(ps.EMPTY_CONSTRAINTS, 0, ())

    def test_cardinality_shortcut(self):
        cons = ConstraintSet(cardinality=("<=", 1))
        assert not ps.is_feasible(cons, 2, (1, 1))
        assert ps.is_feasible(cons, 2, (1, 0))

    def test_covering_row(self):
        cons = ConstraintSet(rows=(Row((1, 1), ">=", 1),))
        assert ps.is_feasible(cons, 2, (0, 1))
        assert not ps.is_feasible(cons, 2, (0, 0))

    def test_equality_row(self):
        cons = ConstraintSet(rows=(Row((1, -1), "=", 0),))
        assert ps.is_feasible(cons, 2, (1, 1))
        assert not ps.is_feasible(cons, 2, (1, 0))

    def test_dimension_mismatch(self):
        cons = ConstraintSet(rows=(Row((1, 1), "<=", 1),))
        with pytest.raises(DimensionMismatch):
            ps.is_feasible(cons, 2, (1, 0, 0))
        with pytest.raises(DimensionMismatch):
            ps.is_feasible(cons, 3, (1, 0, 0))
        for y in ((0, 0), (0, 0, 0, 0)):  # the arity is z_count, even where no row fixes it
            with pytest.raises(DimensionMismatch):
                ps.is_feasible(ps.EMPTY_CONSTRAINTS, 3, y)


class TestEnumerate:
    def test_unconstrained_cube(self):
        points = list(ps.enumerate_feasible(ps.EMPTY_CONSTRAINTS, 2))
        assert points == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_cardinality_equals_one(self):
        cons = ConstraintSet(cardinality=("=", 1))
        assert list(ps.enumerate_feasible(cons, 2)) == [(0, 1), (1, 0)]

    def test_limit_guard(self):
        with pytest.raises(TooLargeToEnumerate):
            ps.enumerate_feasible(ps.EMPTY_CONSTRAINTS, 21)

    def test_matches_filtering_the_cube(self):
        # against the row test written out here, at every point of each cube
        cut = 0  # sets that keep some points of their cube but not all
        for z_count in range(11):
            cube = list(product((0, 1), repeat=z_count))
            for cons in random_constraint_sets(np.random.default_rng(z_count), z_count):
                listed = list(ps.enumerate_feasible(cons, z_count))
                assert listed == [bits for bits in cube if meets_rows(cons, bits)], cons
                kept = set(listed)
                assert [ps.is_feasible(cons, z_count, bits) for bits in cube] == [bits in kept for bits in cube]
                cut += 0 < len(listed) < len(cube)
        assert cut >= 20


SENSES = ("<=", ">=", "=")


def random_constraint_sets(rng, z_count):
    """Per sense, one mixed-sign row and one cardinality bound, then one set
    with a row of every sense and a cardinality bound."""
    def row(sense):
        return Row(tuple(int(c) for c in rng.integers(-2, 3, size=z_count)), sense, int(rng.integers(-2, 3)))

    def k():
        return int(rng.integers(0, z_count + 1))

    sets = [ConstraintSet(rows=(row(sense),)) for sense in SENSES]
    sets += [ConstraintSet(cardinality=(sense, k())) for sense in SENSES]
    sets.append(ConstraintSet(rows=tuple(row(sense) for sense in SENSES), cardinality=("<=", k())))
    return sets


def meets_rows(cons, y):
    """The row test written out from the constraint set's fields: each sum
    compared by its own sense, the cardinality as the sum of the bits."""
    rows = [(row.coeffs, row.sense, row.rhs) for row in cons.rows]
    if cons.cardinality is not None:
        rows.append(((1,) * len(y), *cons.cardinality))
    for coeffs, sense, rhs in rows:
        lhs = sum(c * b for c, b in zip(coeffs, y))
        if not {"<=": lhs <= rhs, ">=": lhs >= rhs, "=": lhs == rhs}[sense]:
            return False
    return True


class TestBfMin:
    def test_no_fragile_edges(self):
        inst = ps.validate({"n": 2, "target": 0, "edges": [[0, 1], [1, 0]], "fragile": [], "damping": 0.85})
        assert ps.bf_min(inst) == ((), ps.hitting_times(inst, ()).fr)

    def test_frozen_values(self, frozen):
        y, value = ps.bf_min(frozen)
        assert y == (0, 1, 1, 0)
        assert value == pytest.approx(3.348392650200081, abs=1e-9)
        y1, v1 = ps.bf_min(frozen, ConstraintSet(cardinality=("<=", 1)))
        assert y1 == (0, 0, 1, 0)
        assert v1 == pytest.approx(3.514425494748754, abs=1e-9)

    def test_singleton_feasible_set(self, frozen):
        rows = tuple(
            Row(tuple(1 if i == k else 0 for i in range(4)), "=", 1) for k in range(4)
        )
        y, value = ps.bf_min(frozen, ConstraintSet(rows=rows))
        assert y == (1, 1, 1, 1)
        assert value == ps.hitting_times(frozen, (1, 1, 1, 1)).fr

    def test_matches_oracle(self, frozen):
        assert abs(ps.bf_min(frozen)[1] - ps.min_unconstrained(frozen)) <= 1e-9

    def test_lexicographic_tie_break(self):
        # two fragile edges in symmetric positions give equal objective values;
        # the scan must keep the first (lexicographically smallest) argmin
        inst = ps.validate(
            {
                "n": 3,
                "target": 0,
                "edges": [[0, 1], [0, 2], [1, 0], [2, 0]],
                "fragile": [[1, 2], [2, 1]],
                "damping": 0.8,
            }
        )
        table = {bits: ps.hitting_times(inst, bits).fr for bits in product((0, 1), repeat=2)}
        assert table[(0, 1)] == pytest.approx(table[(1, 0)], abs=1e-12)
        expected = min(table, key=lambda bits: (table[bits], bits))
        assert ps.bf_min(inst)[0] == expected

    def test_infeasible(self, frozen):
        cons = ConstraintSet(rows=(Row((1, 0, 0, 0), "=", 1), Row((1, 0, 0, 0), "=", 0)))
        with pytest.raises(Infeasible):
            ps.bf_min(frozen, cons)

    def test_limit_guard(self, frozen, monkeypatch):
        monkeypatch.setattr(bruteforce, "ENUM_LIMIT", 3)
        with pytest.raises(TooLargeToEnumerate):
            ps.bf_min(frozen)


class TestBfGamma:
    def test_everything_forced(self, frozen):
        value = ps.bf_gamma(frozen, {0, 1}, {2, 3})
        assert value == ps.hitting_times(frozen, (1, 1, 0, 0)).fr

    def test_all_forced_off_gives_empty_selection(self, frozen):
        assert ps.bf_gamma(frozen, frozenset(), {0, 1, 2, 3}) == ps.hitting_times(frozen, (0, 0, 0, 0)).fr

    def test_frozen_value(self, frozen):
        assert ps.bf_gamma(frozen, {0}, {2}) == pytest.approx(5.8928925438596504, abs=1e-9)

    def test_overlap_rejected(self, frozen):
        with pytest.raises(OverlapError):
            ps.bf_gamma(frozen, {1}, {1})

    def test_limit_counts_free_edges_only(self, frozen, monkeypatch):
        # forcing all but one edge keeps the enumeration within any limit
        monkeypatch.setattr(bruteforce, "ENUM_LIMIT", 1)
        assert ps.bf_gamma(frozen, {0, 1}, {2}) > 0


# (forced on, forced off) pairs that gamma rejects, on a 3-edge instance
BAD_FORCED = [
    pytest.param({-1}, set(), id="negative"),
    pytest.param(set(), {3}, id="z"),
    pytest.param({3}, set(), id="z-on"),
    pytest.param({True}, set(), id="bool"),
    pytest.param({1.5}, set(), id="float"),
    pytest.param({1}, {1}, id="overlap"),
]


class TestForcedIds:
    @pytest.mark.parametrize("forced_on, forced_off", BAD_FORCED)
    def test_bf_gamma_raises_as_gamma_does(self, forced_on, forced_off):
        inst, _ = ps.generate_random(6, 0.3, 3, None, seed=5)
        with pytest.raises(PagerankSelectError) as fast:
            ps.gamma(inst, ps.GammaQuery(forced_on=frozenset(forced_on), forced_off=frozenset(forced_off)))
        with pytest.raises(PagerankSelectError) as slow:
            ps.bf_gamma(inst, forced_on, forced_off)
        assert type(slow.value) is type(fast.value)
        assert str(slow.value) == str(fast.value)


class TestBfExactLift:
    def test_last_position_specialization(self):
        # with nothing selected and no constraints, the objective at the last
        # position reduces to the minimum over free-prefix configurations that
        # activate the last ordered edge, shifted by the incumbent value
        inst, _ = ps.generate_random(6, 0.3, 4, None, seed=13, damping=0.8)
        incumbent = (0, 0, 0, 0)
        ordering = (0, 1, 2, 3)
        fr_bar = ps.hitting_times(inst, incumbent).fr
        priors = [0.0, 0.0, 0.0]
        got = ps.bf_exact_lift(inst, ps.EMPTY_CONSTRAINTS, incumbent, ordering, priors, 4)
        direct = min(
            ps.hitting_times(inst, prefix + (1,)).fr
            for prefix in product((0, 1), repeat=3)
        )
        assert got == pytest.approx(direct - fr_bar, abs=1e-12)

    def test_modified_coefficients_are_dominated(self):
        inst, _ = ps.generate_random(6, 0.3, 4, None, seed=21, damping=0.85)
        incumbent = (0, 1, 0, 0)
        ordering = ps.make_lift_ordering(inst, incumbent, BY_INDEX)
        lifted = ps.lifted_cut(inst, incumbent, ordering)
        pi_hat = [construction_coefficient(lifted, k) for k in ordering.order]
        for r in range(1, len(ordering.order) + 1):
            exact = ps.bf_exact_lift(
                inst, ps.EMPTY_CONSTRAINTS, incumbent, ordering.order, pi_hat[: r - 1], r
            )
            assert min(0.0, exact) >= pi_hat[r - 1] - 1e-9

    def test_exact_chain_yields_valid_cut(self):
        inst, _ = ps.generate_random(6, 0.3, 4, None, seed=29, damping=0.85)
        cons = ConstraintSet(cardinality=("<=", 3))
        incumbent = (0, 0, 1, 0)
        ordering = ps.make_lift_ordering(inst, incumbent, BY_INDEX)
        lifted = ps.lifted_cut(inst, incumbent, ordering)
        coeffs = []
        for r in range(1, len(ordering.order) + 1):
            coeffs.append(ps.bf_exact_lift(inst, cons, incumbent, ordering.order, coeffs, r))
        fr_bar = ps.hitting_times(inst, incumbent).fr
        sel = ps.support(incumbent)
        for point in ps.enumerate_feasible(cons, inst.z_count):
            rhs = fr_bar
            for e in sel:
                rhs += construction_coefficient(lifted, e) * (1 - point[e])
            for pos, k in enumerate(ordering.order):
                rhs += coeffs[pos] * point[k]
            assert ps.hitting_times(inst, point).fr >= rhs - 1e-8

    def test_infeasible_lifting_problem(self):
        inst, _ = ps.generate_random(5, 0.3, 3, None, seed=5, damping=0.8)
        # a row forcing the lifted edge off empties the r-th feasible set
        cons = ConstraintSet(rows=(Row((1, 0, 0), "=", 0),))
        with pytest.raises(Infeasible):
            ps.bf_exact_lift(inst, cons, (0, 0, 0), (0, 1, 2), [], 1)

    def test_guards(self):
        inst, _ = ps.generate_random(5, 0.3, 3, None, seed=5, damping=0.8)
        with pytest.raises(InvalidOrdering):
            ps.bf_exact_lift(inst, ps.EMPTY_CONSTRAINTS, (0, 0, 0), (0, 1), [], 1)
        with pytest.raises(InvalidOrdering):
            ps.bf_exact_lift(inst, ps.EMPTY_CONSTRAINTS, (0, 0, 0), (0, 1, 2), [], 4)
        with pytest.raises(DimensionMismatch):
            ps.bf_exact_lift(inst, ps.EMPTY_CONSTRAINTS, (0, 0, 0), (0, 1, 2), [], 3)

    @pytest.mark.parametrize("ordering", [(0, True, 2), (0, 1.0, 2), (0, 2, 2)])
    def test_ordering_checked_as_lifted_cut_checks_it(self, ordering):
        inst, _ = ps.generate_random(5, 0.3, 3, None, seed=5, damping=0.8)
        with pytest.raises(InvalidOrdering):
            ps.lifted_cut(inst, (0, 0, 0), ps.LiftOrdering(order=ordering))
        with pytest.raises(InvalidOrdering):
            ps.bf_exact_lift(inst, ps.EMPTY_CONSTRAINTS, (0, 0, 0), ordering, [0.0, 0.0], 3)
