"""Acceptance suite: eight desk-scale criteria, one test and one printed
pass/fail line each.  Run with ``pytest tests/test_acceptance.py -v -s``.

Every expected value is either closed-form or produced by an independent
enumeration/simulation twin; no tolerance is looser than the criterion states.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

import pagerank_select as ps
from pagerank_select import ConstraintSet, GammaQuery, Row
from pagerank_select.cuts import BY_GAMMA, BY_INDEX, construction_coefficient
from helpers import build_corpus, random_selection


def _stopwatch():
    start = time.monotonic()
    return lambda: time.monotonic() - start


def _report(number, label, elapsed, budget):
    status = "PASS" if elapsed < budget else "FAIL (over time budget)"
    print(f"acceptance {number} ({label}): {status} [{elapsed:.1f}s < {budget:.0f}s]")
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"


def _cube(z_count):
    pts = np.array(list(product((0, 1), repeat=z_count)), dtype=float)
    return pts.reshape(len(pts), z_count)


def _fr_vector(inst, points):
    return np.array([ps.hitting_times(inst, tuple(int(b) for b in p)).fr for p in points])


def _cut_values(cut, points):
    return cut.constant + points @ np.asarray(cut.coeffs, dtype=float)


@pytest.fixture(scope="module")
def cut_memos():
    """The memo each new and lifted cut of ``cut_corpus`` was built through,
    alone, with its instance: ``(inst, memo)``.  Read by criterion 6."""
    return []


@pytest.fixture(scope="module")
def cut_corpus(cut_memos):
    """100 instances with |Z| <= 8, 10 incumbents each, all families built,
    both lift orderings.  Shared by criteria 4, 5 and 6."""
    rng = np.random.default_rng(2024)
    records = []
    for inst in build_corpus(100, seed0=9_000, n_lo=3, n_hi=10, z_lo=0, z_hi=8):
        points = _cube(inst.z_count)
        frs = _fr_vector(inst, points)
        low = ps.min_unconstrained(inst)
        entries = []
        for _ in range(10):
            incumbent = random_selection(rng, inst.z_count)
            memos = {"new": ps.Memo(inst)}
            cuts = {
                "lshaped": ps.l_shaped_cut(inst, incumbent, low),
                "new": ps.new_cut(inst, incumbent, memo=memos["new"]),
            }
            for strategy in (BY_INDEX, BY_GAMMA):
                ordering = ps.make_lift_ordering(inst, incumbent, strategy)
                name = "lifted_" + strategy
                memos[name] = ps.Memo(inst)
                cuts[name] = ps.lifted_cut(inst, incumbent, ordering, memo=memos[name])
            entries.append(cuts)
            cut_memos.extend((inst, memo) for memo in memos.values())
        records.append((inst, points, frs, entries))
    return records


def test_acceptance_1_fr_correctness():
    elapsed = _stopwatch()
    one = ps.validate({"n": 1, "target": 0, "edges": [[0, 0]], "fragile": [], "damping": 0.85})
    assert ps.hitting_times(one, ()).fr == 1.0
    for c in (0.5, 0.85, 0.99):
        cyc2 = ps.validate(
            {"n": 2, "target": 0, "edges": [[0, 1], [1, 0]], "fragile": [], "damping": c}
        )
        assert abs(ps.hitting_times(cyc2, ()).fr - 2.0) <= 1e-10
    cyc3 = ps.validate(
        {"n": 3, "target": 0, "edges": [[0, 1], [1, 2], [2, 0]], "fragile": [], "damping": 1.0}
    )
    assert abs(ps.hitting_times(cyc3, ()).fr - 3.0) <= 1e-10
    _report(1, "first-return-time correctness", elapsed(), 1.0)


def test_acceptance_2_kac_cross_check():
    elapsed = _stopwatch()
    rng = np.random.default_rng(4242)
    worst = 0.0
    for inst in build_corpus(200, seed0=10_000, n_lo=3, n_hi=12, z_lo=0, z_hi=10):
        y = random_selection(rng, inst.z_count)
        pi = ps.stationary(inst, y)
        fr = ps.hitting_times(inst, y).fr
        worst = max(worst, abs(pi[inst.target] * fr - 1.0))
    assert worst <= 1e-8, f"worst Kac residual {worst:.3e}"
    _report(2, "stationary/return-time cross-check", elapsed(), 30.0)


def test_acceptance_3_oracle_gate():
    elapsed = _stopwatch()
    rng = np.random.default_rng(777)
    worst = 0.0
    for inst in build_corpus(100, seed0=11_000, n_lo=3, n_hi=12, z_lo=0, z_hi=10):
        for _ in range(50):
            tri = rng.integers(0, 3, size=inst.z_count)
            forced_on = frozenset(int(k) for k in np.where(tri == 0)[0])
            forced_off = frozenset(int(k) for k in np.where(tri == 1)[0])
            fast = ps.gamma(inst, GammaQuery(forced_on=forced_on, forced_off=forced_off)).value
            slow = ps.bf_gamma(inst, forced_on, forced_off)
            gap = abs(fast - slow) / max(1.0, slow)
            worst = max(worst, gap)
    assert worst <= 1e-9, f"worst relative oracle gap {worst:.3e}"
    _report(3, "oracle vs exhaustive gate", elapsed(), 300.0)


def test_acceptance_4_cut_validity(cut_corpus):
    elapsed = _stopwatch()
    worst = -math.inf
    for inst, points, frs, entries in cut_corpus:
        for cuts in entries:
            for cut in cuts.values():
                excess = float((_cut_values(cut, points) - frs).max())
                worst = max(worst, excess)
                assert excess <= 1e-8, (inst, cut.family, excess)
    _report(4, f"cut validity (worst excess {worst:.2e})", elapsed(), 300.0)


def test_acceptance_5_strength_ordering(cut_corpus):
    elapsed = _stopwatch()
    violations = 0
    for inst, _, _, entries in cut_corpus:
        for cuts in entries:
            for e in range(inst.z_count):
                lshaped = construction_coefficient(cuts["lshaped"], e)
                new = construction_coefficient(cuts["new"], e)
                for key in ("lifted_" + BY_INDEX, "lifted_" + BY_GAMMA):
                    if construction_coefficient(cuts[key], e) < new - 1e-9:
                        violations += 1
                if new < lshaped - 1e-9:
                    violations += 1
    assert violations == 0
    _report(5, "coefficientwise strength ordering", elapsed(), 60.0)


def test_acceptance_6_separation_cost(cut_corpus, cut_memos):
    elapsed = _stopwatch()
    violations = 0
    assert len(cut_memos) == 3 * sum(len(entries) for _, _, _, entries in cut_corpus)
    for inst, memo in cut_memos:
        if memo.gamma_calls > inst.z_count:
            violations += 1
    assert violations == 0
    _report(6, "separation stays within |Z| oracle calls", elapsed(), 10.0)


def test_acceptance_7_end_to_end_exactness():
    elapsed = _stopwatch()
    rng = np.random.default_rng(31_337)
    for inst in build_corpus(100, seed0=12_000, n_lo=3, n_hi=10, z_lo=1, z_hi=8):
        z = inst.z_count
        cover = sorted(
            int(k) for k in rng.choice(z, size=int(rng.integers(1, z + 1)), replace=False)
        )
        regimes = [
            ps.EMPTY_CONSTRAINTS,
            ConstraintSet(cardinality=("<=", math.ceil(z / 2))),
            ConstraintSet(rows=(Row(tuple(1 if k in cover else 0 for k in range(z)), ">=", 1),)),
        ]
        for cons in regimes:
            _, best = ps.bf_min(inst, cons)
            feasible_count = sum(1 for _ in ps.enumerate_feasible(cons, z))
            for family in ps.FAMILIES:
                report = ps.solve(inst, cons, family=family)
                assert report.status == "optimal"
                assert abs(report.best_value - best) <= 1e-9, (family, report.best_value, best)
                assert report.iterations <= feasible_count + 1
    _report(7, "cutting-plane solves match brute force", elapsed(), 600.0)


def test_acceptance_8_exact_lift_dominance():
    elapsed = _stopwatch()
    rng = np.random.default_rng(99_999)
    for idx, inst in enumerate(build_corpus(30, seed0=13_000, n_lo=3, n_hi=8, z_lo=2, z_hi=6)):
        z = inst.z_count
        cons = (
            ps.EMPTY_CONSTRAINTS
            if idx % 2 == 0
            else ConstraintSet(cardinality=("<=", max(1, z // 2)))
        )
        feasible = list(ps.enumerate_feasible(cons, z))
        incumbent = feasible[int(rng.integers(len(feasible)))]
        ordering = ps.make_lift_ordering(inst, incumbent, BY_INDEX)
        if not ordering.order:
            continue
        lifted = ps.lifted_cut(inst, incumbent, ordering)
        pi_hat = [construction_coefficient(lifted, k) for k in ordering.order]
        # relaxation: the exact coefficient, given the relaxed priors, clipped
        # at zero, dominates the relaxed coefficient at every position
        for r in range(1, len(ordering.order) + 1):
            exact = ps.bf_exact_lift(inst, cons, incumbent, ordering.order, pi_hat[: r - 1], r)
            assert min(0.0, exact) >= pi_hat[r - 1] - 1e-9
        # the fully exact chain yields a valid cut over the feasible set
        chain_coeffs = []
        for r in range(1, len(ordering.order) + 1):
            chain_coeffs.append(
                ps.bf_exact_lift(inst, cons, incumbent, ordering.order, chain_coeffs, r)
            )
        fr_bar = ps.hitting_times(inst, incumbent).fr
        sel = ps.support(incumbent)
        for point in feasible:
            rhs = fr_bar
            for e in sel:
                rhs += construction_coefficient(lifted, e) * (1 - point[e])
            for pos, k in enumerate(ordering.order):
                rhs += chain_coeffs[pos] * point[k]
            assert ps.hitting_times(inst, point).fr >= rhs - 1e-8
    _report(8, "exact lifting dominates its relaxation", elapsed(), 300.0)
