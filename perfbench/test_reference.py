"""The benchmark's correctness gate must pass true answers and fail planted
wrong ones, and the tracer must account for every second of a solve."""

import pytest

import layers
import pagerank_select as ps
from reference import Reference, check

EPS = 1e-9


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    inst, cons = ps.generate_random(12, 0.2, 8, "card_le:3", seed=3)
    path = tmp_path_factory.mktemp("inst") / "inst.json"
    ps.write_instance(path, inst, cons)
    inst, cons = ps.read_instance(path)
    report = ps.solve(inst, cons, family=ps.LIFTED, eps=EPS).to_json()
    return inst, cons, Reference(path), report


def test_reference_matches_exhaustive_twin(solved):
    inst, cons, ref, _ = solved
    _, value = ps.bf_min(inst, cons)
    assert abs(ref.optimum - value) <= 1e-12 * value
    assert len(ref.feasible) == sum(1 for _ in ps.enumerate_feasible(cons, inst.z_count))


def test_true_answer_passes(solved):
    _, _, ref, report = solved
    assert report["iterations"] >= 2
    assert check(ref, report, EPS) == []


def _planted(report, **changes):
    wrong = dict(report, **changes)
    wrong["upper_bounds"] = list(report["upper_bounds"])
    wrong["lower_bounds"] = list(report["lower_bounds"])
    return wrong


def test_rejects_feasible_non_optimal_selection(solved):
    _, _, ref, report = solved
    worst = max(ref.feasible, key=ref.return_time)
    value = ref.return_time(worst)
    assert value > ref.optimum * (1 + 1e-6)
    wrong = _planted(report, best_y=[int(b) for b in worst], best_value=value)
    wrong["upper_bounds"][-1] = value
    wrong["lower_bounds"][-1] = value
    problems = check(ref, wrong, EPS)
    assert any("but the optimum is" in p for p in problems), problems


def test_rejects_value_off_by_one_millionth(solved):
    _, _, ref, report = solved
    value = report["best_value"] * (1 + 1e-6)
    wrong = _planted(report, best_value=value)
    wrong["upper_bounds"][-1] = value
    wrong["lower_bounds"][-1] = value
    problems = check(ref, wrong, EPS)
    assert any("return time at best_y" in p for p in problems), problems
    assert any("but the optimum is" in p for p in problems), problems


def test_rejects_infeasible_selection(solved):
    _, _, ref, report = solved
    everything = [1] * ref.z_count
    assert not ref.is_feasible(everything)
    problems = check(ref, _planted(report, best_y=everything), EPS)
    assert any("violates the constraints" in p for p in problems), problems


def test_rejects_lower_bound_above_optimum(solved):
    _, _, ref, report = solved
    wrong = _planted(report)
    wrong["lower_bounds"][-1] = ref.optimum * (1 + 1e-6)
    problems = check(ref, wrong, EPS)
    assert any("above the optimum" in p for p in problems), problems


def test_layer_self_times_sum_to_solve_time(solved):
    inst, cons, _, _ = solved
    tracer = layers.Tracer(ps)
    tracer.install()
    try:
        ps.solve(inst, cons, family=ps.NEW, eps=EPS)
    finally:
        tracer.restore()
    spans = tracer.take()
    metrics = layers.solve_metrics(spans)
    assert ps.solve.__name__ == "solve" and not hasattr(ps.solve, "__wrapped__")
    assert metrics["chain.calls"] > 0 and metrics["master.calls"] > 0
    assert 0 < metrics["oracle.distinct"] <= metrics["oracle.queries"]
    total = sum(metrics[k] for k in layers.SELF_TIMES)
    assert total == pytest.approx(metrics["trace.solve_s"], rel=1e-9)
