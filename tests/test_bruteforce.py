from itertools import product

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
        assert ps.is_feasible(ps.EMPTY_CONSTRAINTS, (0, 1, 1))
        assert ps.is_feasible(ps.EMPTY_CONSTRAINTS, ())

    def test_cardinality_shortcut(self):
        cons = ConstraintSet(cardinality=("<=", 1))
        assert not ps.is_feasible(cons, (1, 1))
        assert ps.is_feasible(cons, (1, 0))

    def test_covering_row(self):
        cons = ConstraintSet(rows=(Row((1, 1), ">=", 1),))
        assert ps.is_feasible(cons, (0, 1))
        assert not ps.is_feasible(cons, (0, 0))

    def test_equality_row(self):
        cons = ConstraintSet(rows=(Row((1, -1), "=", 0),))
        assert ps.is_feasible(cons, (1, 1))
        assert not ps.is_feasible(cons, (1, 0))

    def test_dimension_mismatch(self):
        cons = ConstraintSet(rows=(Row((1, 1), "<=", 1),))
        with pytest.raises(DimensionMismatch):
            ps.is_feasible(cons, (1, 0, 0))


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
        cons = ConstraintSet(
            rows=(Row((1, 2, -1, 0), "<=", 1),), cardinality=(">=", 1)
        )
        listed = list(ps.enumerate_feasible(cons, 4))
        direct = [
            bits for bits in product((0, 1), repeat=4) if ps.is_feasible(cons, bits)
        ]
        assert listed == direct


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
