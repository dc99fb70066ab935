import math

import pytest

import pagerank_select as ps
from pagerank_select import ConstraintSet, Row
from pagerank_select import cuts as cut_families, master as master_mod, oracle
from pagerank_select.cuts import BY_GAMMA, BY_INDEX, FAMILIES, L_SHAPED, LIFTED, NEW
from pagerank_select.errors import DampingRangeError, Infeasible, NoConvergence
from pagerank_select.solver import ITER_LIMIT, OPTIMAL
from conftest import build_corpus


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
        assert report.cuts_added == 1
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

    def test_unknown_family_rejected(self, frozen):
        with pytest.raises(ValueError):
            ps.solve(frozen, family="benders")

    def test_negative_iteration_limit_rejected(self, frozen):
        with pytest.raises(ValueError, match="iteration limit"):
            ps.solve(frozen, max_iters=-5)

    def test_recurring_incumbent_aborts_loudly(self, frozen, monkeypatch):
        # a separation that never tightens anything leaves the master stuck on
        # the same incumbent; the loop must diagnose that instead of cycling
        def useless_cut(instance, incumbent, memo=None):
            return cut_families.Cut(
                constant=0.0,
                coeffs=(0.0,) * instance.z_count,
                family=NEW,
                incumbent=tuple(incumbent),
                gamma_calls=0,
            )

        monkeypatch.setattr(cut_families, "new_cut", useless_cut)
        with pytest.raises(NoConvergence):
            ps.solve(frozen, family=NEW)


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
        assert report.iterations == report.cuts_added

    def test_deterministic(self, frozen):
        cons = ConstraintSet(cardinality=("<=", 2))
        assert ps.solve(frozen, cons, family=LIFTED) == ps.solve(frozen, cons, family=LIFTED)


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
        cons = ConstraintSet(cardinality=("<=", 2))
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

    def test_no_answer_outlives_its_solve(self, spy):
        inst, cons = ps.generate_random(10, 0.3, 7, "card_le:3", seed=5)
        first = ps.solve(inst, cons, family=NEW)
        second = ps.solve(inst, cons, family=NEW)
        assert first == second
        assert len(spy) == 2 * first.gamma_solves


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
            "cuts_added",
            "gamma_calls_total",
            "gamma_solves",
            "iterations",
        }
        assert blob["status"] == "optimal"
        assert blob["best_y"] == list(report.best_y)
        assert len(blob["lower_bounds"]) == len(blob["upper_bounds"])
