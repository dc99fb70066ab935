import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

import pagerank_select as ps
from pagerank_select import ConstraintSet, Row, master as master_mod
from pagerank_select.errors import DimensionMismatch, Infeasible, OverlapError, ParseError, TooLargeToEnumerate
from pagerank_select.master import feasible_set, solve_master


def random_faces(rng, z_count, count):
    """Face bounds (on, off, g): each edge forced on or off with probability
    1/5 each, and g uniform in [-1, 6), so some bounds are negative."""
    faces = []
    for _ in range(count):
        state = rng.choice(3, size=z_count, p=(0.6, 0.2, 0.2))
        on = {int(k) for k in np.flatnonzero(state == 1)}
        off = {int(k) for k in np.flatnonzero(state == 2)}
        faces.append((on, off, float(rng.uniform(-1.0, 6.0))))
    return faces


def folded_set(constraints, z_count, faces):
    feasible = feasible_set(constraints, z_count)
    feasible.fold_faces(faces)
    return feasible


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
    for row in constraints.compiled_rows(z_count).rows:
        lhs = cube @ np.array(row.coeffs, dtype=np.int64)
        keep &= {"<=": lhs <= row.rhs, ">=": lhs >= row.rhs, "=": lhs == row.rhs}[row.sense]
    return cube[keep].astype(float)


def bound_at(faces, y):
    """The largest of zero and every face bound whose face holds ``y``."""
    return max([0.0] + [g for on, off, g in faces if all(y[k] for k in on) and not any(y[k] for k in off)])


def reference_master(faces, points):
    """(y, theta) of the master by a dense evaluation of every face."""
    theta = np.zeros(len(points))
    for on, off, g in faces:
        inside = (points[:, sorted(on)] == 1).all(axis=1) & (points[:, sorted(off)] == 0).all(axis=1)
        theta = np.where(inside, np.maximum(theta, g), theta)
    best = int(np.argmin(theta))
    return tuple(int(b) for b in points[best]), float(theta[best])


class TestTrivialCases:
    def test_no_cuts_theta_zero_lex_smallest(self):
        result = solve_master(feasible_set(ps.EMPTY_CONSTRAINTS, 3))
        assert result.theta == 0.0
        assert result.y == (0, 0, 0)
        assert result.index == 0

    def test_single_face_bound(self):
        result = solve_master(folded_set(ps.EMPTY_CONSTRAINTS, 1, [({0}, (), 3.0), ((), {0}, 5.0)]))
        assert result.y == (1,)
        assert result.theta == 3.0
        assert result.index == 1

    def test_contradictory_rows(self):
        cons = ConstraintSet(rows=(Row((1,), "=", 1), Row((1,), "=", 0)))
        with pytest.raises(Infeasible, match="admits no selection"):
            feasible_set(cons, 1)

    def test_zero_fragile_edges(self):
        result = solve_master(feasible_set(ps.EMPTY_CONSTRAINTS, 0))
        assert result.y == ()
        assert result.theta == 0.0

    def test_theta_never_negative(self):
        result = solve_master(folded_set(ps.EMPTY_CONSTRAINTS, 2, [((), (), -7.0), ({0}, {1}, -1.0)]))
        assert result.theta == 0.0


class TestAgainstEnumeration:
    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            z = int(rng.integers(0, 9))
            faces = random_faces(rng, z, int(rng.integers(0, 5)))
            cons = random_constraints(rng, z)
            best = min((bound_at(faces, bits) for bits in ps.enumerate_feasible(cons, z)), default=math.inf)
            if math.isinf(best):
                with pytest.raises(Infeasible):
                    feasible_set(cons, z)
            else:
                assert solve_master(folded_set(cons, z, faces)).theta == best

    def test_theta_matches_the_bounds_at_returned_point(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = int(rng.integers(1, 7))
            faces = random_faces(rng, z, 3)
            result = solve_master(folded_set(ps.EMPTY_CONSTRAINTS, z, faces))
            assert result.theta == bound_at(faces, result.y)


class TestAgainstReference:
    def test_matches_reference_one_face_at_a_time(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            z = int(rng.integers(0, 17))
            cons = random_constraints(rng, z)
            points = reference_points(cons, z)
            faces = random_faces(rng, z, int(rng.integers(1, 7)))
            if len(points) == 0:
                with pytest.raises(Infeasible):
                    feasible_set(cons, z)
                continue
            feasible = feasible_set(cons, z)
            for count in range(len(faces) + 1):
                feasible.fold_faces(faces[max(count - 1, 0) : count])  # the newest face only
                result = solve_master(feasible)
                y, theta = reference_master(faces[:count], points)
                assert result.y == y
                assert result.theta == theta
                assert result.nodes_explored == len(points)
                assert tuple(int(b) for b in points[result.index]) == y

    def test_past_the_old_enumeration_cutoff(self):
        rng = np.random.default_rng(15)
        for z in (13, 14, 15, 16):
            cons = ConstraintSet(cardinality=("<=", 3))
            faces = random_faces(rng, z, 5)
            result = solve_master(folded_set(cons, z, faces))
            assert (result.y, result.theta) == reference_master(faces, reference_points(cons, z))

    def test_an_18_edge_face_folds_within_4_mib(self):
        # one mask over the whole 18-edge cube (4.5 MiB of points)
        feasible = feasible_set(ps.EMPTY_CONSTRAINTS, 18)
        face = (set(range(0, 18, 2)), set(range(1, 18, 2)), 2.5)
        tracemalloc.start()
        try:
            feasible.fold_faces([face])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert np.flatnonzero(feasible.theta).tolist() == [int("10" * 9, 2)]
        assert feasible.theta.max() == 2.5

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        faces = random_faces(rng, 6, 4)
        cons = ConstraintSet(cardinality=("<=", 3))
        first = solve_master(folded_set(cons, 6, faces))
        second = solve_master(folded_set(cons, 6, faces))
        assert first == second

    def test_selection_is_python_ints(self):
        rng = np.random.default_rng(21)
        for z in (0, 1, 5, 12):
            result = solve_master(folded_set(ps.EMPTY_CONSTRAINTS, z, random_faces(rng, z, 2)))
            assert type(result.y) is tuple
            assert all(type(b) is int for b in result.y)
            assert type(result.index) is int


class TestPoolState:
    @pytest.fixture()
    def folded(self):
        rng = np.random.default_rng(17)
        return folded_set(ps.EMPTY_CONSTRAINTS, 4, random_faces(rng, 4, 3))

    def test_fresh_set_has_zero_theta_and_nothing_folded(self):
        feasible = feasible_set(ps.EMPTY_CONSTRAINTS, 3)
        assert np.array_equal(feasible.theta, np.zeros(8))

    def test_the_argmin_changes_nothing(self, folded):
        theta = folded.theta.tobytes()
        first = solve_master(folded)
        assert solve_master(folded) == first
        assert folded.theta.tobytes() == theta

    def test_raising_the_row_at_index_moves_the_argmin(self, folded):
        # the solver raises an incumbent's row to its return time
        seen = []
        for _ in range(len(folded.theta)):
            result = solve_master(folded)
            seen.append(result.index)
            folded.theta[result.index] = max(folded.theta[result.index], 100.0)
        assert sorted(seen) == list(range(len(folded.theta)))


class TestFoldFaces:
    """A face bound (on, off, g) raises theta to exactly g at the points with
    every edge of ``on`` at 1 and every edge of ``off`` at 0, and nowhere else."""

    @pytest.fixture()
    def folded(self):
        # one bound per edge on, in [3, 6), and per edge off, in [0, 3), so
        # theta varies from point to point, and over every face tested below
        bounds = np.random.default_rng(23).uniform((3.0, 0.0), (6.0, 3.0), size=(6, 2))
        faces = [face for k, (g_on, g_off) in enumerate(bounds) for face in (({k}, (), g_on), ((), {k}, g_off))]
        return folded_set(ConstraintSet(cardinality=("<=", 3)), 6, faces)

    @staticmethod
    def expected(feasible, theta, on, off, bound):
        inside = [all(p[k] == 1 for k in on) and all(p[k] == 0 for k in off) for p in feasible.points]
        return np.where(inside, np.maximum(theta, bound), theta)

    @pytest.mark.parametrize("on, off", [({0, 3}, {1}), ({5}, ()), ((), {2, 4}), ((), ())])
    def test_the_face_and_nothing_else_is_raised_to_its_bound(self, folded, on, off):
        theta = folded.theta.copy()
        expected = self.expected(folded, theta, on, off, math.inf)
        inside = theta[expected == math.inf]
        bound = float(inside.min() + inside.max()) / 2  # raises some points of the face, not all
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

    def test_faces_fold_in_any_order(self):
        faces = random_faces(np.random.default_rng(29), 5, 6)
        first = folded_set(ps.EMPTY_CONSTRAINTS, 5, faces)
        last = folded_set(ps.EMPTY_CONSTRAINTS, 5, faces[::-1])
        assert solve_master(first) == solve_master(last)
        assert first.theta.tobytes() == last.theta.tobytes()

    @pytest.mark.parametrize("nan", [math.nan, np.float64("nan")])
    def test_a_nan_bound_raises_before_its_face_folds(self, folded, nan):
        # the faces before it fold; it leaves theta as they left it
        before = [({1}, (), 1e6), ((), {2}, 7.0)]
        theta = folded.theta.copy()
        for on, off, bound in before:
            theta = self.expected(folded, theta, on, off, bound)
        with pytest.raises(ValueError, match=r"face bound on \[0, 3\] off \[5\] is not a number"):
            folded.fold_faces(before + [({0, 3}, {5}, nan), ((), (), 1e9)])
        assert folded.theta.tobytes() == theta.tobytes()
        assert not np.isnan(folded.theta).any()

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
            assert points.dtype == bool
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

    def test_the_18_edge_cube_enumerates_within_16_mib(self):
        tracemalloc.start()
        try:
            points = feasible_set(ps.EMPTY_CONSTRAINTS, 18).points
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert points.shape == (2**18, 18)

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
