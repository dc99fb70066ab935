import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import pagerank_select as ps
from pagerank_select import ConstraintSet, Row
from pagerank_select import chain, cuts as cut_families, master as master_mod, oracle
from pagerank_select.cuts import BY_GAMMA, BY_INDEX, FAMILIES, L_SHAPED, LIFTED, NEW
from pagerank_select.errors import DampingRangeError, Infeasible, NoConvergence
from pagerank_select.solver import ITER_LIMIT, OPTIMAL
from helpers import DAMPINGS, SPECS, build_corpus, differential_case, family_cut


@pytest.fixture(scope="module")
def frozen():
    inst, _ = ps.generate_random(6, 0.3, 4, None, seed=42, damping=0.85)
    return inst


class TestTrivialCases:
    def test_no_fragile_edges_single_iteration(self):
        inst = ps.validate({"n": 2, "target": 0, "edges": [[0, 1], [1, 0]], "fragile": [], "damping": 0.85})
        report = ps.solve(inst)
        assert report.status == OPTIMAL
        assert report.iterations == 1
        assert report.best_y == ()
        assert report.best_value == ps.hitting_times(inst, ()).fr

    def test_infeasible_constraints(self, frozen):
        cons = ConstraintSet(rows=(Row((1, 0, 0, 0), "=", 1), Row((1, 0, 0, 0), "=", 0)))
        with pytest.raises(Infeasible):
            ps.solve(frozen, cons)

    def test_iteration_limit_reports_partial_trace(self, frozen):
        report = ps.solve(frozen, max_iters=0)
        assert report.status == ITER_LIMIT
        assert report.iterations == 0
        assert len(report.lower_bounds) == 1
        assert report.best_value >= report.lower_bounds[0]

    def test_damping_one_rejected(self):
        inst = ps.validate({"n": 2, "target": 0, "edges": [[0, 1], [1, 0]], "fragile": [[0, 0]], "damping": 1.0})
        with pytest.raises(DampingRangeError):
            ps.solve(inst)

    def test_unknown_family_rejected(self, frozen, monkeypatch):
        monkeypatch.setattr(master_mod, "feasible_set", None)  # nothing may be enumerated
        with pytest.raises(ValueError, match="unknown cut family 'benders'"):
            ps.solve(frozen, family="benders")
        with pytest.raises(ValueError, match="unknown cut family 'bogus'"):  # not Infeasible
            ps.solve(frozen, ConstraintSet(cardinality=("<=", -1)), family="bogus")

    def test_unknown_ordering_rejected_before_the_enumeration(self, frozen, monkeypatch):
        monkeypatch.setattr(master_mod, "feasible_set", None)  # nothing may be enumerated
        with pytest.raises(ValueError, match="unknown ordering strategy 'bogus'"):
            ps.solve(frozen, ordering_strategy="bogus")

    def test_negative_iteration_limit_rejected(self, frozen):
        with pytest.raises(ValueError, match="iteration limit"):
            ps.solve(frozen, max_iters=-5)

    @pytest.mark.parametrize("limit", [{"eps": math.nan}, {"max_iters": math.nan}])
    def test_nan_limit_rejected_before_any_round(self, frozen, limit, monkeypatch):
        monkeypatch.setattr(master_mod, "feasible_set", None)  # nothing may be enumerated
        with pytest.raises(ValueError, match="must be nonnegative, got nan"):
            ps.solve(frozen, **limit)

    @pytest.mark.parametrize(
        "limit, message",
        [
            ({"max_iters": 1.5}, "iteration limit must be an integer or math.inf, got 1.5"),
            ({"max_iters": True}, "iteration limit must be an integer or math.inf, got True"),
            ({"max_iters": "3"}, "iteration limit must be an integer or math.inf, got '3'"),
            ({"eps": True}, "gap tolerance must be a number, got True"),
            ({"eps": "1"}, "gap tolerance must be a number, got '1'"),
            ({"eps": None}, "gap tolerance must be a number, got None"),
        ],
    )
    def test_limit_of_the_wrong_type_rejected_before_any_round(self, frozen, limit, message, monkeypatch):
        monkeypatch.setattr(master_mod, "feasible_set", None)  # nothing may be enumerated
        with pytest.raises(ValueError) as caught:
            ps.solve(frozen, **limit)
        assert str(caught.value) == message

    def test_infinite_gap_tolerance_rejected_before_any_round(self, frozen, monkeypatch):
        # an infinite tolerance would close the gap at round zero with a
        # value that is not the optimum; "no limit" stays allowed for rounds
        report = ps.solve(frozen, max_iters=math.inf)
        assert report.status == OPTIMAL
        monkeypatch.setattr(master_mod, "feasible_set", None)  # nothing may be enumerated
        with pytest.raises(ValueError, match="gap tolerance must be finite, got inf"):
            ps.solve(frozen, eps=math.inf)

    def test_useless_cuts_close_and_a_nan_return_time_aborts_before_any_cut(self, frozen, monkeypatch):
        # a separation that asks nothing still closes, with no record of the
        # incumbents separated: each round raises its incumbent's theta to its
        # return time, so no incumbent recurs while a gap persists; a NaN
        # return time would raise nothing, so the round that reads it aborts
        separated = []

        def useless_separator(family, memo, ordering_strategy):
            def separate(incumbent):
                separated.append(incumbent)
                return []

            return separate

        monkeypatch.setattr(cut_families, "separator", useless_separator)
        report = ps.solve(frozen, family=NEW)
        assert report.status == OPTIMAL
        assert report.gamma_calls_total == 0
        assert 1 <= report.iterations == len(separated) == len(set(separated)) <= 2**frozen.z_count
        assert report.best_value == oracle.Memo(frozen).evaluate(ps.bf_min(frozen)[0]).fr

        separated.clear()
        real_evaluate = oracle.Memo.evaluate
        monkeypatch.setattr(
            oracle.Memo, "evaluate", lambda memo, y: dataclasses.replace(real_evaluate(memo, y), fr=math.nan)
        )
        with pytest.raises(NoConvergence, match="return time nan.*not a finite number"):
            ps.solve(frozen, family=NEW)
        assert separated == []


class TestExactness:
    def test_unconstrained_matches_oracle(self, frozen):
        target = ps.min_unconstrained(frozen)
        for family in FAMILIES:
            report = ps.solve(frozen, family=family)
            assert report.status == OPTIMAL
            assert abs(report.best_value - target) <= 1e-9

    def test_frozen_constrained_value(self, frozen):
        cons = ConstraintSet(cardinality=("<=", 1))
        for family in FAMILIES:
            report = ps.solve(frozen, cons, family=family)
            assert report.best_value == pytest.approx(3.514425494748754, abs=1e-9)
            assert report.best_y == (0, 0, 1, 0)

    def test_matches_brute_force_across_corpus(self):
        for inst in build_corpus(8, seed0=166, n_lo=4, n_hi=8, z_lo=1, z_hi=6):
            half = math.ceil(inst.z_count / 2)
            cons = ConstraintSet(cardinality=("<=", half))
            _, best = ps.bf_min(inst, cons)
            for family in FAMILIES:
                report = ps.solve(inst, cons, family=family)
                assert abs(report.best_value - best) <= 1e-9, (family, inst)

    @pytest.mark.parametrize("n, z_count, seed", [(20, 15, 3), (30, 16, 4)])
    def test_matches_brute_force_past_the_old_enumeration_cutoff(self, n, z_count, seed):
        inst, cons = ps.generate_random(n, 0.1, z_count, "card_le:3", seed=seed)
        best_y, best = ps.bf_min(inst, cons)
        for family, strategy in [(L_SHAPED, BY_INDEX), (NEW, BY_INDEX), (LIFTED, BY_INDEX), (LIFTED, BY_GAMMA)]:
            report = ps.solve(inst, cons, family=family, ordering_strategy=strategy)
            assert report.status == OPTIMAL
            assert abs(report.best_value - best) <= 1e-9, (family, strategy)
            assert report.best_y == best_y, (family, strategy)

    def test_gamma_ordering_strategy(self, frozen):
        report = ps.solve(frozen, family=LIFTED, ordering_strategy=BY_GAMMA)
        assert abs(report.best_value - ps.min_unconstrained(frozen)) <= 1e-9


class TestTraceInvariants:
    def test_bound_sequences_and_sandwich(self):
        for inst in build_corpus(6, seed0=177, n_lo=4, n_hi=8, z_lo=1, z_hi=6):
            _, best = ps.bf_min(inst)
            for family in FAMILIES:
                report = ps.solve(inst, family=family)
                lows, highs = report.lower_bounds, report.upper_bounds
                assert all(a <= b + 1e-12 for a, b in zip(lows, lows[1:]))
                assert all(a >= b - 1e-12 for a, b in zip(highs, highs[1:]))
                assert all(lo <= best + 1e-9 for lo in lows)
                assert all(hi >= best - 1e-9 for hi in highs)
                assert report.upper_bounds[-1] - report.lower_bounds[-1] <= 1e-9

    def test_finite_convergence_bound(self):
        for inst in build_corpus(6, seed0=188, n_lo=4, n_hi=7, z_lo=1, z_hi=5):
            cons = ConstraintSet(cardinality=("<=", max(1, inst.z_count - 1)))
            feasible_count = sum(1 for _ in ps.enumerate_feasible(cons, inst.z_count))
            for family in FAMILIES:
                report = ps.solve(inst, cons, family=family)
                assert report.iterations <= feasible_count + 1

    def test_best_value_is_true_objective_at_best_y(self, frozen):
        report = ps.solve(frozen, family=NEW)
        assert abs(report.best_value - ps.hitting_times(frozen, report.best_y).fr) <= 1e-9

    def test_iterations_count_cuts(self, frozen):
        report = ps.solve(frozen, family=L_SHAPED)
        assert report.iterations == len(report.lower_bounds) - 1

    def test_deterministic(self, frozen):
        cons = ConstraintSet(cardinality=("<=", 2))
        assert ps.solve(frozen, cons, family=LIFTED) == ps.solve(frozen, cons, family=LIFTED)


class TestSeparationBuildsNoCut:
    """A round asks its family's oracle queries and builds no ``Cut``."""

    @pytest.mark.parametrize(
        "family, strategy", [(L_SHAPED, BY_INDEX), (NEW, BY_INDEX), (LIFTED, BY_INDEX), (LIFTED, BY_GAMMA)]
    )
    def test_a_cut_that_cannot_be_built_changes_no_solve(self, frozen, monkeypatch, family, strategy):
        cases = (ps.EMPTY_CONSTRAINTS, ConstraintSet(cardinality=("<=", 1)))
        expected = [ps.solve(frozen, cons, family=family, ordering_strategy=strategy) for cons in cases]
        assert expected[1].iterations >= 1  # the root argmin breaks card_le:1, so even lshaped separates

        def no_cut(*args, **fields):
            raise AssertionError(f"a Cut was built: {args} {fields}")

        monkeypatch.setattr(cut_families, "Cut", no_cut)
        for cons, report in zip(cases, expected):
            assert ps.solve(frozen, cons, family=family, ordering_strategy=strategy) == report

    def test_an_lshaped_separation_evaluates_nothing_and_asks_nothing(self, frozen, monkeypatch):
        memo = oracle.Memo(frozen)
        separate = cut_families.separator(L_SHAPED, memo)
        assert memo.gamma_calls == 1  # the bound, asked once when the separator is made
        evaluated = []
        real = oracle.Memo.evaluate
        monkeypatch.setattr(oracle.Memo, "evaluate", lambda memo, y: evaluated.append(y) or real(memo, y))
        for incumbent in [(0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1)]:
            assert separate(incumbent) == []
        assert evaluated == []
        assert memo.gamma_calls == 1


class TestMasterCalls:
    def test_feasible_set_once_per_solve_and_one_master_call_per_round(self, frozen, monkeypatch):
        calls = {"feasible_set": 0, "solve_master": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(master_mod, name, counted(name, getattr(master_mod, name)))
        # under card_le:2 the unconstrained minimiser is feasible, and lshaped
        # closes at round zero; under card_le:1 it is not
        cons = ConstraintSet(cardinality=("<=", 1))
        for family in FAMILIES:
            calls.update(feasible_set=0, solve_master=0)
            report = ps.solve(frozen, cons, family=family)
            assert report.iterations >= 1
            assert calls == {"feasible_set": 1, "solve_master": len(report.lower_bounds)}


class TestGammaAccounting:
    def test_l_shaped_costs_one_call_total(self, frozen):
        report = ps.solve(frozen, family=L_SHAPED)
        assert report.gamma_calls_total == 1

    def test_new_costs_z_per_iteration(self, frozen):
        report = ps.solve(frozen, family=NEW)
        assert report.gamma_calls_total == report.iterations * frozen.z_count

    def test_lifted_by_index_costs_z_per_iteration(self, frozen):
        report = ps.solve(frozen, family=LIFTED, ordering_strategy=BY_INDEX)
        assert report.gamma_calls_total == report.iterations * frozen.z_count

    @pytest.mark.parametrize(
        "family, strategy", [(L_SHAPED, BY_INDEX), (NEW, BY_INDEX), (LIFTED, BY_INDEX), (LIFTED, BY_GAMMA)]
    )
    def test_total_is_the_queries_the_memo_was_asked(self, monkeypatch, family, strategy):
        asked = []
        real = oracle.Memo.gamma
        monkeypatch.setattr(oracle.Memo, "gamma", lambda memo, query: asked.append(query) or real(memo, query))
        for inst in build_corpus(4, seed0=31, z_lo=3, z_hi=7):
            for cons in (ps.EMPTY_CONSTRAINTS, ConstraintSet(cardinality=("<=", 2))):
                asked.clear()
                report = ps.solve(inst, cons, family=family, ordering_strategy=strategy)
                assert report.gamma_calls_total == len(asked)
                # only lshaped asks the unconstrained query, for its bound
                assert (oracle.GammaQuery() in asked) == (family == L_SHAPED)


class TestGammaSolves:
    @pytest.fixture()
    def spy(self, monkeypatch):
        keys = []
        real = oracle.gamma

        def counted(instance, query, **kwargs):
            keys.append((frozenset(query.forced_on), frozenset(query.forced_off)))
            return real(instance, query, **kwargs)

        monkeypatch.setattr(oracle, "gamma", counted)
        return keys

    @pytest.mark.parametrize(
        "family, strategy", [(L_SHAPED, BY_INDEX), (NEW, BY_INDEX), (LIFTED, BY_INDEX), (LIFTED, BY_GAMMA)]
    )
    def test_one_policy_iteration_per_distinct_query(self, spy, family, strategy):
        inst, cons = ps.generate_random(10, 0.3, 7, "card_le:3", seed=5)
        report = ps.solve(inst, cons, family=family, ordering_strategy=strategy)
        assert report.iterations >= 2
        assert len(spy) == report.gamma_solves == len(set(spy))
        assert report.gamma_solves < report.gamma_calls_total or report.gamma_calls_total == 1
        assert report.to_json()["gamma_solves"] == report.gamma_solves

    def test_infeasible_lshaped_solve_asks_no_query(self, spy, frozen):
        cons = ConstraintSet(rows=(Row((1, 0, 0, 0), "=", 1), Row((1, 0, 0, 0), "=", 0)))
        with pytest.raises(Infeasible):
            ps.solve(frozen, cons, family=L_SHAPED)
        assert spy == []

    def test_no_answer_outlives_its_solve(self, spy):
        inst, cons = ps.generate_random(10, 0.3, 7, "card_le:3", seed=5)
        first = ps.solve(inst, cons, family=NEW)
        second = ps.solve(inst, cons, family=NEW)
        assert first == second
        assert len(spy) == 2 * first.gamma_solves


class TestFaceBounds:
    """Every oracle answer of a solve is folded into its master as a bound on
    the answer's face, at no query of its own."""

    @pytest.fixture()
    def kept(self, monkeypatch):
        """The memo and the feasible set of each solve."""
        memos, sets = [], []

        class Recording(oracle.Memo):
            def __init__(self, instance):
                super().__init__(instance)
                memos.append(self)

        real = master_mod.feasible_set

        def recorded(*args):
            sets.append(real(*args))
            return sets[-1]

        monkeypatch.setattr(oracle, "Memo", Recording)
        monkeypatch.setattr(master_mod, "feasible_set", recorded)
        return memos, sets

    CASES = [
        (10, 0.3, 7, "card_le:3", 5, 0.85),
        (12, 0.2, 8, "card_ge:2", 9, 0.99),
        (9, 0.25, 6, "cover:2", 14, 0.5),
        (12, 0.15, 8, "card_eq:3", 1103, 0.999),
    ]

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n, density, z_count, spec, seed, damping", CASES)
    def test_folded_answers_are_valid_at_every_point(self, kept, family, n, density, z_count, spec, seed, damping):
        memos, sets = kept
        inst, cons = ps.generate_random(n, density, z_count, spec, seed=seed, damping=damping)
        assert ps.solve(inst, cons, family=family).status == OPTIMAL
        (memo,), (solved,) = memos, sets
        assert memo.answers
        faces = master_mod.feasible_set(cons, z_count)
        faces.fold_faces((on, off, answer.value) for (on, off), answer in memo.answers.items())
        assert (solved.theta >= faces.theta).all()  # every answer was folded
        for point, bound in zip(faces.points, faces.theta):  # through the evaluator that answered
            assert bound <= memo.evaluate(point).fr + 1e-9

    @pytest.mark.parametrize(
        "family, strategy", [(L_SHAPED, BY_INDEX), (NEW, BY_INDEX), (LIFTED, BY_INDEX), (LIFTED, BY_GAMMA)]
    )
    def test_a_cuts_own_answers_and_incumbent_imply_it(self, family, strategy):
        # Why the master folds no cut.  Every construction coefficient is at
        # most 0, so away from the incumbent a cut is at most the coefficient
        # of any one edge it changes, min(fr_bar, g) <= g, and the point lies
        # in the face that g bounds; at the incumbent the cut is fr_bar.
        rng = np.random.default_rng(53)
        cases = [(damping, spec, draw) for damping in DAMPINGS for spec in SPECS for draw in (0, 1)]
        for case in cases:
            inst, cons = differential_case(*case)
            points = master_mod.feasible_set(cons, inst.z_count).points
            for row in rng.choice(len(points), size=min(5, len(points)), replace=False):
                incumbent = tuple(int(b) for b in points[row])
                memo = oracle.Memo(inst)
                cut_families.separator(family, memo, strategy)(incumbent)
                implied = master_mod.feasible_set(cons, inst.z_count)
                implied.fold_faces((on, off, answer.value) for (on, off), answer in memo.answers.items())
                implied.theta[row] = max(implied.theta[row], memo.evaluate(incumbent).fr)
                solves = memo.gamma_solves
                cut = family_cut(family, inst, incumbent, strategy, memo)  # from the separation's answers
                assert memo.gamma_solves == solves
                for point, theta in zip(points, implied.theta):
                    value = ps.eval_cut(cut, point)
                    assert theta >= value - 1e-12 * abs(value), (case, incumbent, point)

    def test_answers_are_read_in_order_and_cost_no_query(self):
        inst, cons = ps.generate_random(10, 0.3, 7, "card_le:3", seed=5)
        memo = oracle.Memo(inst)
        separate = cut_families.separator(NEW, memo)
        separate((0,) * inst.z_count)
        calls = memo.gamma_calls
        keys = list(memo.answers)
        assert len(keys) == memo.gamma_solves == inst.z_count
        assert keys == [(frozenset({k}), frozenset()) for k in range(inst.z_count)]
        assert memo.gamma_calls == calls
        with pytest.raises(TypeError):
            memo.answers[keys[0]] = None

        # with support {0, 3, 5}: each supported edge off, in id order, then
        # one key per unselected edge with its lift tail off (none for new);
        # the gamma ordering ranks the unselected edges by single-edge
        # queries first, and the last lift asks one of those again
        incumbent = (1, 0, 0, 1, 0, 1, 0)
        supported = [(frozenset(), frozenset({k})) for k in (0, 3, 5)]
        for family, strategy, order in [(NEW, BY_INDEX, (1, 2, 4, 6)), (LIFTED, BY_INDEX, (1, 2, 4, 6)),
                                        (LIFTED, BY_GAMMA, (1, 6, 4, 2))]:
            memo = oracle.Memo(inst)
            cut_families.separator(family, memo, strategy)(incumbent)
            tails = [frozenset(order[pos + 1 :]) if family == LIFTED else frozenset() for pos in range(len(order))]
            lifts = [(frozenset({k}), tail) for k, tail in zip(order, tails)]
            ranked = [(frozenset({k}), frozenset()) for k in (1, 2, 4, 6)] if strategy == BY_GAMMA else []
            assert list(memo.answers) == list(dict.fromkeys(ranked + supported + lifts)), (family, strategy)
            assert memo.gamma_calls == len(ranked) + inst.z_count
            calls = memo.gamma_calls
            list(memo.answers.items())
            assert memo.gamma_calls == calls

    @pytest.mark.parametrize(
        "family, strategy", [(L_SHAPED, BY_INDEX), (NEW, BY_INDEX), (LIFTED, BY_INDEX), (LIFTED, BY_GAMMA)]
    )
    def test_the_solve_asks_only_what_its_cuts_ask(self, monkeypatch, family, strategy):
        asked = []
        real = cut_families.separator

        def counted(family, memo, ordering_strategy):
            before = memo.gamma_calls
            separate = real(family, memo, ordering_strategy)
            asked.append(memo.gamma_calls - before)  # the lshaped bound

            def separated(incumbent):
                before = memo.gamma_calls
                cut = separate(incumbent)
                asked.append(memo.gamma_calls - before)
                return cut

            return separated

        monkeypatch.setattr(cut_families, "separator", counted)
        for inst in build_corpus(4, seed0=37, n_lo=6, n_hi=12, z_lo=3, z_hi=7):
            for cons in (ps.EMPTY_CONSTRAINTS, ConstraintSet(cardinality=(">=", 2))):
                asked.clear()
                report = ps.solve(inst, cons, family=family, ordering_strategy=strategy)
                assert len(asked) == report.iterations + 1
                assert report.gamma_calls_total == sum(asked)
                # the gamma ordering asks one more query per unselected edge
                per_round = inst.z_count * (2 if strategy == BY_GAMMA else 1)
                assert report.gamma_calls_total <= per_round * max(1, report.iterations)

    @pytest.mark.parametrize(
        "seed, rounds, value", [(0, 9, 60.81641370046787), (3, 5, 131.09048772273135), (7, 4, 123.60451206854303)]
    )
    def test_new_cut_rounds_on_the_n100_card_le_instances(self, seed, rounds, value):
        # 21 / 41 / 24 rounds before face bounds; the optima are unchanged
        inst, cons = ps.generate_random(100, 0.05, 14, "card_le:3", seed=seed)
        report = ps.solve(inst, cons, family=NEW)
        assert report.status == OPTIMAL
        assert report.iterations == rounds
        assert report.best_value == value


class TestUnconstrainedIncumbent:
    """When the memo holds the unconstrained query (the lshaped bound) and
    its argmin is feasible, that argmin is the first incumbent, and round
    zero closes the gap."""

    def test_feasible_root_argmin_closes_at_round_zero(self):
        inst, cons = ps.generate_random(40, 0.1, 12, "card_le:3", seed=0)
        root = oracle.Memo(inst).gamma(oracle.GammaQuery())
        report = ps.solve(inst, cons, family=L_SHAPED)
        assert report.status == OPTIMAL
        assert report.iterations == 0
        assert report.lower_bounds == report.upper_bounds == (root.value,)
        assert report.best_y == root.argmin
        assert report.best_value == root.value
        assert report.gamma_calls_total == report.gamma_solves == 1

    def test_infeasible_root_argmin_takes_every_round(self):
        # the root argmin breaks card_le:3 here, so the loop scans F
        inst, cons = ps.generate_random(40, 0.1, 12, "card_le:3", seed=1)
        assert not ps.is_feasible(cons, inst.z_count, oracle.Memo(inst).gamma(oracle.GammaQuery()).argmin)
        report = ps.solve(inst, cons, family=L_SHAPED)
        assert report.status == OPTIMAL
        assert report.iterations == 299
        root, best = 24.199810416967257, 24.371393155855674
        assert report.lower_bounds == (root,) * 299 + (best,)
        assert report.upper_bounds[0] == 28.504036037481413
        assert len(set(report.upper_bounds)) == 11 and report.upper_bounds[-1] == best
        assert report.best_value == best
        assert report.best_y == (0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0)

    def test_zero_rounds_exactly_when_the_root_argmin_is_feasible(self):
        cases = [differential_case(damping, spec, draw) for damping in DAMPINGS for spec in SPECS for draw in (0, 1)]
        cases.append(ps.generate_random(12, 0.15, 8, "card_eq:3", seed=1103, damping=0.999))
        feasible_roots = 0
        for inst, cons in cases:
            root = oracle.Memo(inst).gamma(oracle.GammaQuery())
            report = ps.solve(inst, cons, family=L_SHAPED)
            assert report.status == OPTIMAL
            if ps.is_feasible(cons, inst.z_count, root.argmin):
                feasible_roots += 1
                assert report.iterations == 0
                assert (report.best_y, report.best_value) == (root.argmin, root.value)
            else:
                assert report.iterations >= 1
        assert 0 < feasible_roots < len(cases)


class TestOneEvaluationPerSelection:
    @pytest.fixture()
    def spies(self, monkeypatch):
        evaluated, rows = [], []
        real_evaluate, real_rows = chain.low_rank_hitting_times, chain._transition_rows

        def evaluate(walk, y):
            evaluated.append(tuple(y))
            return real_evaluate(walk, y)

        def transition_rows(instance, y, source=None, fixed=None):
            if source is not None:
                rows.append((tuple(np.atleast_1d(source).tolist()), tuple(k for k, bit in enumerate(y) if bit)))
            return real_rows(instance, y, source, fixed)

        monkeypatch.setattr(chain, "low_rank_hitting_times", evaluate)
        monkeypatch.setattr(chain, "_transition_rows", transition_rows)
        return evaluated, rows

    @pytest.mark.parametrize("family, strategy", [(NEW, BY_INDEX), (LIFTED, BY_INDEX), (LIFTED, BY_GAMMA)])
    def test_each_selection_and_each_source_row_once_per_solve(self, spies, family, strategy):
        evaluated, rows = spies
        cases = [(inst, cons) for inst in build_corpus(4, seed0=611, n_lo=10, n_hi=40, z_lo=6, z_hi=10)
                 for cons in (ps.EMPTY_CONSTRAINTS, ConstraintSet(cardinality=("<=", 2)))]
        for inst, cons in cases:
            evaluated.clear()
            rows.clear()
            assert ps.solve(inst, cons, family=family, ordering_strategy=strategy).status == OPTIMAL
            assert evaluated and len(evaluated) == len(set(evaluated))
            # one source's row per subset of its selected fragile edges, and
            # the factor's all-off rows out of the sources and the target
            # in one build
            assert len(rows) == len(set(rows))
            sources = sorted({i for i, _ in inst.fragile} - {inst.target})
            assert [nodes for nodes, edges in rows if not edges] == [(*sources, inst.target)]
            assert all(len(nodes) == 1 for nodes, edges in rows if edges)

    def test_no_cache_entry_holds_an_n_vector(self, monkeypatch):
        memos = []

        class Recording(oracle.Memo):
            def __init__(self, instance):
                super().__init__(instance)
                memos.append(self)

        monkeypatch.setattr(oracle, "Memo", Recording)
        inst, cons = ps.generate_random(300, 0.02, 10, "card_le:3", seed=1)
        assert ps.solve(inst, cons, family=LIFTED).status == OPTIMAL
        (memo,) = memos
        entries = list(memo._evaluations.values())
        assert entries
        for entry in entries:
            assert type(entry) is oracle.Evaluation
            assert type(entry.fr) is float and type(entry.h_sum) is float
            assert type(entry.h) is list and len(entry.h) < inst.n
            assert all(type(value) is float for value in entry.h)
        sources = len(memo.walk.sources)
        for edges, delta in memo.walk.deltas.items():
            if inst.fragile[edges[0]][0] != inst.target:
                assert delta.shape == (2 * sources + 2,)


# perfbench's three workloads (perfbench/run.py, WORKLOADS) at their base
# seeds, before its relabelling: family, then generate_random's arguments
BENCH_BASES = {
    "lifted-n300": (LIFTED, 300, 0.02, 10, (1, 3, 9)),
    "new-bnb": (NEW, 100, 0.05, 14, (0, 3, 7)),
    "lshaped-enum": (L_SHAPED, 40, 0.1, 12, (0, 1)),
}


def bench_cases():
    return [
        (family, *ps.generate_random(n, density, z_count, "card_le:3", seed=seed))
        for family, n, density, z_count, seeds in BENCH_BASES.values()
        for seed in seeds
    ]


class BatchLog:
    """Records the batches of the solves run while it is installed: per
    batch, its round, whether that round folded a new answer, and the
    selections it evaluated (those its memo did not hold); and every
    selection read through ``Memo.evaluate``, incumbents and sweeps alike."""

    def __init__(self, monkeypatch):
        self.batches, self.reads, self.folded = [], [], []
        log, solve_master = self, master_mod.solve_master

        class Recording(oracle.Memo):
            def __init__(self, instance):
                super().__init__(instance)
                log.memo, log.folded = self, []

            def evaluate(self, y):
                log.reads.append(tuple(y))
                return super().evaluate(y)

            def evaluate_many(self, ys):
                ys = list(ys)
                fresh = len(log.folded) == 1 or log.folded[-1] > log.folded[-2]
                new = [y for y in dict.fromkeys(map(tuple, ys)) if y not in self.evaluations]
                log.batches.append((len(log.folded) - 1, fresh, len(log.reads), new))
                return super().evaluate_many(ys)

        def master(feasible):
            log.folded.append(len(log.memo.answers))  # the answers folded by this round
            return solve_master(feasible)

        monkeypatch.setattr(oracle, "Memo", Recording)
        monkeypatch.setattr(master_mod, "solve_master", master)

    def unread(self):
        """(batched selections that no later evaluate read, batched selections)."""
        unread = sum(y not in set(self.reads[at:]) for _, _, at, new in self.batches for y in new)
        return unread, sum(len(new) for *_, new in self.batches)


class TestTiedPointsBatch:
    """A round that folds no new answer evaluates the points tied at the
    master's minimum in one batch; the reports must not show it."""

    @pytest.mark.parametrize("corpus", ["differential", "bench"])
    def test_reports_equal_those_of_a_solve_that_batches_nothing(self, corpus, monkeypatch):
        if corpus == "differential":
            cases = [(family, *differential_case(d, spec, draw)) for d in DAMPINGS for spec in SPECS
                     for draw in (0, 1) for family in FAMILIES]
        else:
            cases = [(family, inst, cons) for _, inst, cons in bench_cases() for family in FAMILIES]
        log = BatchLog(monkeypatch)
        batched = [json.dumps(ps.solve(inst, cons, family=family).to_json()) for family, inst, cons in cases]
        assert log.batches
        monkeypatch.setattr(oracle.Memo, "evaluate_many", lambda memo, ys: None)
        assert [json.dumps(ps.solve(inst, cons, family=family).to_json()) for family, inst, cons in cases] == batched

    def test_the_299_round_lshaped_solve_runs_one_batch_of_298_points(self, monkeypatch):
        log = BatchLog(monkeypatch)
        inst, cons = ps.generate_random(40, 0.1, 12, "card_le:3", seed=1)
        assert ps.solve(inst, cons, family=L_SHAPED).iterations == 299
        assert [(at_round, len(new)) for at_round, _, _, new in log.batches] == [(1, 298)]

    def test_no_batch_at_round_zero_or_after_a_fresh_answer(self, monkeypatch):
        log = BatchLog(monkeypatch)
        cases = bench_cases() + [(NEW, *ps.generate_random(100, 0.05, 20, "card_le:4", seed=s)) for s in (0, 1)]
        for family, inst, cons in cases:
            ps.solve(inst, cons, family=family)
        assert len(log.batches) == 12
        for at_round, fresh, _, _ in log.batches:
            assert at_round >= 1 and not fresh

    @pytest.mark.parametrize(
        "workload, unread",
        [("lifted-n300", (0, 0)), ("new-bnb", (1, 4)), ("lshaped-enum", (0, 298)), ("new-n100-z20", (12, 153))],
    )
    def test_batched_points_that_no_later_evaluation_reads(self, workload, unread, monkeypatch):
        log = BatchLog(monkeypatch)
        if workload in BENCH_BASES:
            cases = [case for case in bench_cases() if case[0] == BENCH_BASES[workload][0]]
        else:
            cases = [(NEW, *ps.generate_random(100, 0.05, 20, "card_le:4", seed=s)) for s in (0, 1)]
        for family, inst, cons in cases:
            assert ps.solve(inst, cons, family=family).status == OPTIMAL
        assert log.unread() == unread

    def test_an_lshaped_scan_of_6196_points_within_its_memory_bound(self):
        # tracemalloc peak of the same solve without the batch: 24.0 MiB
        inst, cons = ps.generate_random(300, 0.02, 20, "card_le:4", seed=2)
        tracemalloc.start()
        try:
            report = ps.solve(inst, cons, family=L_SHAPED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.iterations == 6196 and report.status == OPTIMAL
        assert peak <= 1.5 * 24.0 * 2**20, peak / 2**20


class TestReportJson:
    def test_fields_mirror_the_type(self, frozen):
        report = ps.solve(frozen)
        blob = report.to_json()
        assert set(blob) == {
            "status",
            "best_y",
            "best_value",
            "lower_bounds",
            "upper_bounds",
            "gamma_calls_total",
            "gamma_solves",
            "iterations",
        }
        assert blob["status"] == "optimal"
        assert blob["best_y"] == list(report.best_y)
        assert len(blob["lower_bounds"]) == len(blob["upper_bounds"])
