import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

import pagerank_select as ps
from pagerank_select import ConstraintSet, Cut, Row, master as master_mod
from pagerank_select.errors import DimensionMismatch, Infeasible, OverlapError, ParseError, TooLargeToEnumerate
from pagerank_select.master import feasible_set, solve_master


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
            )
        )
    return cuts


SENSES = ("<=", ">=", "=")


def random_constraints(rng, z_count):
    """None, a cardinality bound of each sense, or mixed-sign rows of every sense."""
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return ps.EMPTY_CONSTRAINTS
    if kind in (1, 2, 3):
        sense = SENSES[kind - 1]
        return ConstraintSet(cardinality=(sense, int(rng.integers(0, z_count + 1))))
    rows = tuple(
        Row(
            tuple(int(x) for x in rng.integers(-2, 3, size=z_count)),
            SENSES[int(rng.integers(0, 3))],
            int(rng.integers(-2, 3)),
        )
        for _ in range(int(rng.integers(1, 3)))
    )
    return ConstraintSet(rows=rows)


def reference_points(constraints, z_count):
    """The feasible selections in lexicographic order, from the whole cube
    (none when the rows contradict)."""
    cube = np.array(list(product((0, 1), repeat=z_count)), dtype=np.int64).reshape(2**z_count, z_count)
    keep = np.ones(len(cube), dtype=bool)
    for row in constraints.compiled_rows(z_count):
        lhs = cube @ np.array(row.coeffs, dtype=np.int64)
        keep &= {"<=": lhs <= row.rhs, ">=": lhs >= row.rhs, "=": lhs == row.rhs}[row.sense]
    return cube[keep].astype(float)


def reference_master(cuts, points):
    """(y, theta) of the master by a dense evaluation of the whole pool."""
    if cuts:
        A = np.array([cut.coeffs for cut in cuts], dtype=float)
        a0 = np.array([cut.constant for cut in cuts])
        theta = np.maximum((points @ A.T + a0).max(axis=1), 0.0)
    else:
        theta = np.zeros(len(points))
    best = int(np.argmin(theta))
    return tuple(int(b) for b in points[best]), float(theta[best])


class TestTrivialCases:
    def test_no_cuts_theta_zero_lex_smallest(self):
        result = solve_master([], feasible_set(ps.EMPTY_CONSTRAINTS, 3))
        assert result.theta == 0.0
        assert result.y == (0, 0, 0)

    def test_single_cut_arithmetic(self):
        cut = Cut(constant=5.0, coeffs=(-2.0,), family="new", incumbent=(1,))
        result = solve_master([cut], feasible_set(ps.EMPTY_CONSTRAINTS, 1))
        assert result.y == (1,)
        assert result.theta == pytest.approx(3.0)

    def test_contradictory_rows(self):
        cons = ConstraintSet(rows=(Row((1,), "=", 1), Row((1,), "=", 0)))
        with pytest.raises(Infeasible, match="admits no selection"):
            feasible_set(cons, 1)

    def test_zero_fragile_edges(self):
        result = solve_master([], feasible_set(ps.EMPTY_CONSTRAINTS, 0))
        assert result.y == ()
        assert result.theta == 0.0

    def test_theta_never_negative(self):
        cut = Cut(constant=-7.0, coeffs=(1.0, 1.0), family="new", incumbent=(0, 0))
        result = solve_master([cut], feasible_set(ps.EMPTY_CONSTRAINTS, 2))
        assert result.theta == 0.0

    def test_arity_checked(self):
        cut = Cut(constant=1.0, coeffs=(1.0, 2.0), family="new", incumbent=(0, 0))
        with pytest.raises(DimensionMismatch):
            solve_master([cut], feasible_set(ps.EMPTY_CONSTRAINTS, 3))


class TestAgainstEnumeration:
    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            z = int(rng.integers(0, 9))
            cuts = random_pool(rng, z, int(rng.integers(0, 5)))
            cons = random_constraints(rng, z)
            best = math.inf
            for bits in ps.enumerate_feasible(cons, z):
                theta = max([0.0] + [ps.eval_cut(c, bits) for c in cuts])
                best = min(best, theta)
            if math.isinf(best):
                with pytest.raises(Infeasible):
                    feasible_set(cons, z)
            else:
                assert abs(solve_master(cuts, feasible_set(cons, z)).theta - best) <= 1e-12

    def test_theta_matches_cut_evaluation_at_returned_point(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = int(rng.integers(1, 7))
            cuts = random_pool(rng, z, 3)
            result = solve_master(cuts, feasible_set(ps.EMPTY_CONSTRAINTS, z))
            direct = max([0.0] + [ps.eval_cut(c, result.y) for c in cuts])
            assert abs(result.theta - direct) <= 1e-12


class TestAgainstReference:
    def test_matches_reference_one_cut_at_a_time(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            z = int(rng.integers(0, 17))
            cons = random_constraints(rng, z)
            points = reference_points(cons, z)
            cuts = random_pool(rng, z, int(rng.integers(1, 7)))
            if len(points) == 0:
                with pytest.raises(Infeasible):
                    feasible_set(cons, z)
                continue
            feasible = feasible_set(cons, z)
            for count in range(len(cuts) + 1):
                result = solve_master(cuts[max(count - 1, 0) : count], feasible)  # the newest cut only
                y, theta = reference_master(cuts[:count], points)
                assert result.y == y
                assert abs(result.theta - theta) <= 1e-12
                assert result.nodes_explored == len(points)

    def test_past_the_old_enumeration_cutoff(self):
        rng = np.random.default_rng(15)
        for z in (13, 14, 15, 16):
            cons = ConstraintSet(cardinality=("<=", 3))
            cuts = random_pool(rng, z, 5)
            result = solve_master(cuts, feasible_set(cons, z))
            y, theta = reference_master(cuts, reference_points(cons, z))
            assert result.y == y
            assert abs(result.theta - theta) <= 1e-12

    def test_theta_is_each_points_cut_evaluation_bitwise(self):
        # the fold sums each cut in edge order, exactly as eval_cut does
        rng = np.random.default_rng(16)
        cases = [(1, ps.EMPTY_CONSTRAINTS), (12, ps.EMPTY_CONSTRAINTS), (16, ConstraintSet(cardinality=("<=", 3)))]
        for z, cons in cases:
            feasible = feasible_set(cons, z)
            cuts = random_pool(rng, z, 4)
            solve_master(cuts, feasible)
            for point, theta in zip(feasible.points, feasible.theta):
                y = tuple(int(b) for b in point)
                assert theta == max([0.0] + [ps.eval_cut(c, y) for c in cuts])

    @pytest.mark.parametrize("z", [8, 10, 12])
    @pytest.mark.parametrize("whole_cube", [False, True])
    def test_one_point_blocks_sum_in_edge_order(self, z, whole_cube, monkeypatch):
        # numpy sums a lone column pairwise along the edges; a one-point
        # feasible set and a last block holding only the all-ones point
        # (2**z = 3k + 1 points in blocks of 3) must still match eval_cut
        rng = np.random.default_rng(30 + z)
        cons = ps.EMPTY_CONSTRAINTS if whole_cube else ConstraintSet(cardinality=("=", z))
        monkeypatch.setattr(master_mod, "FOLD_BLOCK_BYTES", 8 * z * 3)
        for cut in random_pool(rng, z, 20):
            # nonnegative coefficients, so theta is the cut itself at every point
            cut = Cut(cut.constant, tuple(map(abs, cut.coeffs)), cut.family, cut.incumbent)
            feasible = feasible_set(cons, z)
            solve_master([cut], feasible)
            expected = [ps.eval_cut(cut, tuple(int(b) for b in point)) for point in feasible.points]
            assert feasible.theta.tobytes() == np.array(expected).tobytes()

    def test_fold_temporaries_stay_within_one_block(self, monkeypatch):
        rng = np.random.default_rng(20)
        cuts = random_pool(rng, 14, 2)
        whole = feasible_set(ps.EMPTY_CONSTRAINTS, 14)  # 1.75 MiB of points
        solve_master(cuts, whole)
        monkeypatch.setattr(master_mod, "FOLD_BLOCK_BYTES", 8 * 14 * 100)  # 100 points
        blocked = feasible_set(ps.EMPTY_CONSTRAINTS, 14)
        tracemalloc.start()
        try:
            result = solve_master(cuts, blocked)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert blocked.theta.tobytes() == whole.theta.tobytes()
        assert result == solve_master([], whole)

    def test_root_bound_is_a_relaxation(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            z = int(rng.integers(1, 8))
            cuts = random_pool(rng, z, 3)
            result = solve_master(cuts, feasible_set(ps.EMPTY_CONSTRAINTS, z))
            root = max(
                [0.0]
                + [c.constant + sum(min(a, 0.0) for a in c.coeffs) for c in cuts]
            )
            assert root <= result.theta + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        cuts = random_pool(rng, 6, 4)
        cons = ConstraintSet(cardinality=("<=", 3))
        first = solve_master(cuts, feasible_set(cons, 6))
        second = solve_master(cuts, feasible_set(cons, 6))
        assert first == second

    def test_selection_is_python_ints(self):
        rng = np.random.default_rng(21)
        for z in (0, 1, 5, 12):
            result = solve_master(random_pool(rng, z, 2), feasible_set(ps.EMPTY_CONSTRAINTS, z))
            assert type(result.y) is tuple
            assert all(type(b) is int for b in result.y)

    def test_one_block_and_many_blocks_fold_the_same_bytes(self, monkeypatch):
        # the usual single-block fold takes no slices; blocks of 11 points
        # leave a partial last block on every feasible set here
        rng = np.random.default_rng(22)
        cases = [(12, ConstraintSet(cardinality=("<=", 3))), (9, ps.EMPTY_CONSTRAINTS), (10, random_constraints(rng, 10))]
        for z, cons in cases:
            rounds = [random_pool(rng, z, 1) for _ in range(5)]
            whole = feasible_set(cons, z)
            with monkeypatch.context() as patch:
                patch.setattr(master_mod, "FOLD_BLOCK_BYTES", 8 * z * 11)
                blocked = feasible_set(cons, z)
                blocked_results = [solve_master(cuts, blocked) for cuts in rounds]
            assert len(whole.points) % 11
            assert [solve_master(cuts, whole) for cuts in rounds] == blocked_results
            assert whole.theta.tobytes() == blocked.theta.tobytes()


class TestPoolState:
    @pytest.fixture()
    def folded(self):
        rng = np.random.default_rng(17)
        cuts = random_pool(rng, 4, 3)
        feasible = feasible_set(ps.EMPTY_CONSTRAINTS, 4)
        solve_master(cuts, feasible)
        return cuts, feasible

    def test_fresh_set_has_zero_theta_and_nothing_folded(self):
        feasible = feasible_set(ps.EMPTY_CONSTRAINTS, 3)
        assert np.array_equal(feasible.theta, np.zeros(8))

    def test_same_pool_again_gives_the_same_answer(self, folded):
        cuts, feasible = folded
        theta = feasible.theta.copy()
        again = solve_master(list(cuts), feasible)
        assert again == solve_master(cuts, feasible_set(ps.EMPTY_CONSTRAINTS, 4))
        assert np.array_equal(feasible.theta, theta)

    def test_whole_pool_every_round_equals_each_cut_once(self):
        rng = np.random.default_rng(19)
        for z, cons in [(5, ps.EMPTY_CONSTRAINTS), (12, ConstraintSet(cardinality=("<=", 4)))]:
            cuts = random_pool(rng, z, 6)
            whole, once = feasible_set(cons, z), feasible_set(cons, z)
            for count in range(1, len(cuts) + 1):
                by_pool = solve_master(cuts[:count], whole)
                by_cut = solve_master(cuts[count - 1 : count], once)
                assert by_pool == by_cut
                assert whole.theta.tobytes() == once.theta.tobytes()

    def test_a_cut_passed_again_changes_no_bit(self, folded):
        cuts, feasible = folded
        theta = feasible.theta.tobytes()
        for cut in cuts + cuts[::-1]:
            solve_master([cut], feasible)
            assert feasible.theta.tobytes() == theta

    def test_arity_checked_on_new_cuts_before_any_fold(self, folded):
        cuts, feasible = folded
        theta = feasible.theta.copy()
        good = random_pool(np.random.default_rng(18), 4, 1)
        short = Cut(constant=1.0, coeffs=(1.0, 2.0), family="new", incumbent=(0, 0))
        with pytest.raises(DimensionMismatch):
            solve_master(good + [short], feasible)
        assert np.array_equal(feasible.theta, theta)
        result = solve_master(good, feasible)
        assert result == solve_master(cuts + good, feasible_set(ps.EMPTY_CONSTRAINTS, 4))


class TestFoldFaces:
    """A face bound (on, off, g) raises theta to exactly g at the points with
    every edge of ``on`` at 1 and every edge of ``off`` at 0, and nowhere else."""

    @pytest.fixture()
    def folded(self):
        feasible = feasible_set(ConstraintSet(cardinality=("<=", 3)), 6)
        solve_master(random_pool(np.random.default_rng(23), 6, 4), feasible)
        return feasible

    @staticmethod
    def expected(feasible, theta, on, off, bound):
        inside = [all(p[k] == 1 for k in on) and all(p[k] == 0 for k in off) for p in feasible.points]
        return np.where(inside, np.maximum(theta, bound), theta)

    @pytest.mark.parametrize("on, off", [({0, 3}, {1}), ({5}, ()), ((), {2, 4}), ((), ())])
    def test_the_face_and_nothing_else_is_raised_to_its_bound(self, folded, on, off):
        theta = folded.theta.copy()
        bound = float(np.median(theta))  # raises some points of the face, not all
        folded.fold_faces([(on, off, bound)])
        assert folded.theta.tobytes() == self.expected(folded, theta, on, off, bound).tobytes()
        raised = folded.theta != theta
        assert raised.any() and (folded.theta[raised] == bound).all()

    def test_the_empty_face_is_every_point(self, folded):
        theta = folded.theta.copy()
        folded.fold_faces([((), (), 4.0)])
        assert np.array_equal(folded.theta, np.maximum(theta, 4.0))

    def test_a_face_with_no_feasible_point_changes_nothing(self, folded):
        theta = folded.theta.tobytes()
        folded.fold_faces([({0, 1, 2, 3}, (), 1e6), ({1, 2, 4, 5}, {0}, 1e6)])  # at most 3 edges on
        assert folded.theta.tobytes() == theta

    def test_folding_again_changes_no_bit(self, folded):
        faces = [({0}, {1}, 3.0), ((), {5}, 2.0), ({2, 4}, (), 5.5)]
        folded.fold_faces(faces)
        theta = folded.theta.tobytes()
        folded.fold_faces(faces)
        folded.fold_faces(faces[::-1])
        assert folded.theta.tobytes() == theta

    def test_faces_and_cuts_fold_in_any_order(self):
        rng = np.random.default_rng(29)
        cuts = random_pool(rng, 5, 3)
        faces = [({0}, {4}, 2.5), ((), {1, 2}, 4.0), ({3}, (), 1.0)]
        first, last = feasible_set(ps.EMPTY_CONSTRAINTS, 5), feasible_set(ps.EMPTY_CONSTRAINTS, 5)
        first.fold_faces(faces)
        by_faces_first = solve_master(cuts, first)
        solve_master(cuts, last)
        last.fold_faces(faces)
        assert solve_master([], last) == by_faces_first
        assert first.theta.tobytes() == last.theta.tobytes()

    @pytest.mark.parametrize(
        "on, off, error",
        [({6}, (), DimensionMismatch), ((), {-1}, DimensionMismatch), ({1.0}, (), DimensionMismatch),
         ({True}, (), DimensionMismatch), ({2}, {2}, OverlapError)],
    )
    def test_ids_are_checked(self, folded, on, off, error):
        theta = folded.theta.tobytes()
        with pytest.raises(error):
            folded.fold_faces([(on, off, 1e6)])
        assert folded.theta.tobytes() == theta


class TestFeasibleSet:
    def test_points_are_the_enumerated_selections_in_order(self):
        rng = np.random.default_rng(16)
        for z in [z for z in range(17) for _ in range(2)]:
            cons = random_constraints(rng, z)
            points = feasible_set(cons, z).points
            expected = list(ps.enumerate_feasible(cons, z))
            assert points.dtype == float
            assert points.shape == (len(expected), z)
            assert [tuple(int(b) for b in p) for p in points] == expected

    def test_points_past_the_old_enumeration_cutoff(self):
        cons = ConstraintSet(cardinality=("<=", 2))
        points = feasible_set(cons, 13).points
        assert [tuple(int(b) for b in p) for p in points] == list(ps.enumerate_feasible(cons, 13))

    def test_zero_fragile_edges_has_one_empty_point(self):
        assert feasible_set(ps.EMPTY_CONSTRAINTS, 0).points.shape == (1, 0)

    @pytest.mark.parametrize("z", [0, 3])
    def test_contradictory_rows_raise_infeasible(self, z):
        rows = (Row((1, 0, 0), "=", 1), Row((1, 0, 0), "=", 0)) if z else (Row((), ">=", 1),)
        with pytest.raises(Infeasible, match="constraint set admits no selection"):
            feasible_set(ConstraintSet(rows=rows), z)

    def test_points_are_read_only(self):
        points = feasible_set(ps.EMPTY_CONSTRAINTS, 2).points
        with pytest.raises(ValueError):
            points[0, 0] = 1.0

    def test_over_budget_raises_before_allocating(self, monkeypatch):
        monkeypatch.setattr(master_mod, "POINTS_MAX_BYTES", 4096)
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeToEnumerate, match="40 fragile edges"):
                feasible_set(ps.EMPTY_CONSTRAINTS, 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_pruned_sets_fit_where_the_cube_does_not(self):
        with pytest.raises(TooLargeToEnumerate):
            feasible_set(ps.EMPTY_CONSTRAINTS, 19)
        assert len(feasible_set(ConstraintSet(cardinality=("<=", 2)), 40).points) == 821

    @pytest.mark.parametrize("z", [3, 13])
    def test_wrong_arity_row_rejected(self, z):
        cons = ConstraintSet(rows=(Row((1,) * (z - 1), "<=", 1),))
        with pytest.raises(DimensionMismatch):
            feasible_set(cons, z)

    def test_rows_past_exact_integer_arithmetic_rejected(self):
        cons = ConstraintSet(rows=(Row((2**52, 2**52, 0), "<=", 1),))
        with pytest.raises(ParseError, match="2\\*\\*53"):
            feasible_set(cons, 3)
        assert len(feasible_set(ConstraintSet(rows=(Row((2**51, 2**51, 0), "<=", 1),)), 3).points) == 2

    @pytest.mark.parametrize("z", [3, 13])
    def test_unknown_sense_rejected(self, z):
        cons = ConstraintSet(rows=(Row((1,) * z, "<", 1),))
        with pytest.raises(ParseError):
            feasible_set(cons, z)
