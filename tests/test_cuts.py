import math
from itertools import combinations, product

import numpy as np
import pytest

import pagerank_select as ps
from pagerank_select import LiftOrdering, cuts
from pagerank_select.cuts import BY_GAMMA, BY_INDEX, FAMILIES, L_SHAPED, NEW, construction_coefficient
from pagerank_select.errors import DampingRangeError, DimensionMismatch, InvalidOrdering, LTooLarge
from helpers import AskingMemo, build_corpus, family_cut, fr_table, random_selection


def no_fragile_instance():
    return ps.validate(
        {"n": 2, "target": 0, "edges": [[0, 1], [1, 0]], "fragile": [], "damping": 0.85}
    )


@pytest.fixture(scope="module")
def frozen():
    inst, _ = ps.generate_random(6, 0.3, 4, None, seed=42, damping=0.85)
    return inst


class TestLShaped:
    def test_no_fragile_edges(self):
        inst = no_fragile_instance()
        memo = ps.Memo(inst)
        cut = ps.l_shaped_cut(inst, (), 0.0, memo=memo)
        assert cut.coeffs == ()
        assert cut.constant == ps.hitting_times(inst, ()).fr
        assert memo.gamma_calls == 0

    def test_tight_at_incumbent(self, frozen):
        incumbent = (1, 0, 1, 0)
        low = ps.min_unconstrained(frozen)
        memo = ps.Memo(frozen)
        cut = ps.l_shaped_cut(frozen, incumbent, low, memo=memo)
        fr_bar = ps.hitting_times(frozen, incumbent).fr
        assert ps.eval_cut(cut, incumbent) == pytest.approx(fr_bar, abs=1e-9)
        assert memo.gamma_calls == 0

    def test_decays_with_flip_count(self, frozen):
        incumbent = (0, 1, 1, 0)
        low = ps.min_unconstrained(frozen)
        fr_bar = ps.hitting_times(frozen, incumbent).fr
        cut = ps.l_shaped_cut(frozen, incumbent, low)
        for m in range(5):
            for flips in combinations(range(4), m):
                point = tuple(1 - b if k in flips else b for k, b in enumerate(incumbent))
                expected = fr_bar + m * (low - fr_bar)
                assert ps.eval_cut(cut, point) == pytest.approx(expected, abs=1e-9)

    def test_zero_lower_bound_is_always_legal(self, frozen):
        cut = ps.l_shaped_cut(frozen, (1, 1, 1, 1), 0.0)
        assert ps.eval_cut(cut, (1, 1, 1, 1)) > 0

    def test_rejects_bound_above_incumbent_value(self, frozen):
        fr_bar = ps.hitting_times(frozen, (0, 0, 0, 0)).fr
        with pytest.raises(LTooLarge):
            ps.l_shaped_cut(frozen, (0, 0, 0, 0), fr_bar + 1.0)

    @pytest.mark.parametrize("bound", [math.nan, -math.inf, math.inf])
    def test_rejects_a_bound_that_is_not_finite(self, frozen, bound, monkeypatch):
        # with an empty support, -inf * 0 would make the constant nan
        def unread(memo, y):
            raise AssertionError("the memo was read")

        monkeypatch.setattr(ps.Memo, "evaluate", unread)
        with pytest.raises(ValueError, match=f"lower bound must be a finite number, got {bound}"):
            ps.l_shaped_cut(frozen, (0,) * frozen.z_count, bound)

    def test_constant_cut_when_bound_matches_incumbent(self):
        # with the incumbent at the optimum and the bound equal to it, every
        # coefficient vanishes and the cut pins theta at that value
        inst, _ = ps.generate_random(6, 0.3, 4, None, seed=42, damping=0.85)
        argmin, value = ps.bf_min(inst)
        cut = ps.l_shaped_cut(inst, argmin, value)
        for bits in product((0, 1), repeat=4):
            assert ps.eval_cut(cut, bits) == pytest.approx(value, abs=1e-9)

    def test_damping_one_rejected(self):
        inst = ps.validate({"n": 2, "target": 0, "edges": [[0, 1], [1, 0]], "fragile": [[0, 0]], "damping": 1.0})
        with pytest.raises(DampingRangeError):
            ps.l_shaped_cut(inst, (0,), 0.0)

    def test_constant_and_coefficients_bitwise_from_the_support(self):
        # the cut reads the incumbent's bits directly; the support form of
        # the same arithmetic must give the same bytes
        rng = np.random.default_rng(30)
        for inst in build_corpus(10, seed0=31, z_lo=0, z_hi=10):
            memo = ps.Memo(inst)
            low = ps.min_unconstrained(inst, memo=memo)
            for _ in range(6):
                incumbent = random_selection(rng, inst.z_count)
                as_bools = tuple(bool(b) for b in incumbent)
                cut = ps.l_shaped_cut(inst, as_bools, low, memo=memo)
                fr_bar = memo.evaluate(incumbent).fr
                gap = low - fr_bar
                sel = ps.support(incumbent)
                assert cut.constant.hex() == (fr_bar + gap * len(sel)).hex()
                assert cut.coeffs == tuple(-gap if k in sel else gap for k in range(inst.z_count))
                assert cut.incumbent == incumbent
                assert all(type(b) is int for b in cut.incumbent)


class TestNewCut:
    def test_no_fragile_edges(self):
        inst = no_fragile_instance()
        memo = ps.Memo(inst)
        cut = ps.new_cut(inst, (), memo=memo)
        assert cut.constant == ps.hitting_times(inst, ()).fr
        assert memo.gamma_calls == 0

    def test_coefficient_clipped_to_zero_at_optimum_edge(self, frozen):
        # at the global argmin, dropping a selected edge cannot help, so the
        # clipped coefficient is exactly zero
        argmin, value = ps.bf_min(frozen)
        cut = ps.new_cut(frozen, argmin)
        selected = ps.support(argmin)
        assert selected
        for e in selected:
            assert construction_coefficient(cut, e) == 0.0

    def test_gamma_call_count(self, frozen):
        memo = ps.Memo(frozen)
        ps.new_cut(frozen, (0, 1, 0, 1), memo=memo)
        assert memo.gamma_calls == frozen.z_count

    def test_signs_after_normalization(self, frozen):
        cut = ps.new_cut(frozen, (1, 0, 0, 1))
        sel = ps.support(cut.incumbent)
        for k in range(4):
            if k in sel:
                assert cut.coeffs[k] >= 0.0
            else:
                assert cut.coeffs[k] <= 0.0
            assert construction_coefficient(cut, k) <= 0.0

    def test_valid_at_every_cube_point(self):
        rng = np.random.default_rng(3)
        for inst in build_corpus(6, seed0=144, n_lo=4, n_hi=8, z_lo=1, z_hi=5):
            table = fr_table(inst)
            for _ in range(3):
                incumbent = random_selection(rng, inst.z_count)
                cut = ps.new_cut(inst, incumbent)
                for point, fr in table.items():
                    assert fr >= ps.eval_cut(cut, point) - 1e-8


class TestLiftedCut:
    def test_everything_selected_matches_new(self, frozen):
        incumbent = (1, 1, 1, 1)
        memo = ps.Memo(frozen)
        ordering = ps.make_lift_ordering(frozen, incumbent, BY_INDEX, memo=memo)
        assert ordering.order == ()
        assert memo.gamma_calls == 0
        lifted = ps.lifted_cut(frozen, incumbent, ordering)
        new = ps.new_cut(frozen, incumbent)
        assert lifted.constant == pytest.approx(new.constant)
        assert lifted.coeffs == pytest.approx(new.coeffs)

    def test_last_position_matches_new_coefficient(self, frozen):
        incumbent = (0, 1, 0, 0)
        ordering = ps.make_lift_ordering(frozen, incumbent, BY_INDEX)
        lifted = ps.lifted_cut(frozen, incumbent, ordering)
        new = ps.new_cut(frozen, incumbent)
        last = ordering.order[-1]
        assert construction_coefficient(lifted, last) == pytest.approx(
            construction_coefficient(new, last), abs=1e-12
        )

    def test_selected_side_identical_to_new(self, frozen):
        incumbent = (1, 0, 1, 0)
        ordering = ps.make_lift_ordering(frozen, incumbent, BY_INDEX)
        lifted = ps.lifted_cut(frozen, incumbent, ordering)
        new = ps.new_cut(frozen, incumbent)
        for e in ps.support(incumbent):
            assert lifted.coeffs[e] == pytest.approx(new.coeffs[e], abs=1e-12)

    def test_invalid_ordering_rejected(self, frozen):
        with pytest.raises(InvalidOrdering):
            ps.lifted_cut(frozen, (1, 0, 0, 0), LiftOrdering(order=(1, 2)))

    def test_gamma_call_budget(self, frozen):
        for incumbent in [(0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1)]:
            ordering = ps.make_lift_ordering(frozen, incumbent, BY_INDEX)
            memo = ps.Memo(frozen)
            ps.lifted_cut(frozen, incumbent, ordering, memo=memo)
            assert memo.gamma_calls == frozen.z_count

    def test_valid_and_dominant_for_both_orderings(self):
        rng = np.random.default_rng(4)
        for inst in build_corpus(6, seed0=155, n_lo=4, n_hi=8, z_lo=1, z_hi=5):
            table = fr_table(inst)
            low = ps.min_unconstrained(inst)
            for _ in range(3):
                incumbent = random_selection(rng, inst.z_count)
                lsh = ps.l_shaped_cut(inst, incumbent, low)
                new = ps.new_cut(inst, incumbent)
                for strategy in (BY_INDEX, BY_GAMMA):
                    ordering = ps.make_lift_ordering(inst, incumbent, strategy)
                    lifted = ps.lifted_cut(inst, incumbent, ordering)
                    for point, fr in table.items():
                        assert fr >= ps.eval_cut(lifted, point) - 1e-8
                        assert ps.eval_cut(lifted, point) >= ps.eval_cut(new, point) - 1e-9
                        assert ps.eval_cut(new, point) >= ps.eval_cut(lsh, point) - 1e-9
                    for e in range(inst.z_count):
                        assert construction_coefficient(lifted, e) >= construction_coefficient(new, e) - 1e-9
                        assert construction_coefficient(new, e) >= construction_coefficient(lsh, e) - 1e-9


class TestOrderings:
    def test_index_strategy(self, frozen):
        memo = ps.Memo(frozen)
        ordering = ps.make_lift_ordering(frozen, (0, 1, 0, 0), BY_INDEX, memo=memo)
        assert ordering.order == (0, 2, 3)
        assert memo.gamma_calls == 0

    def test_gamma_strategy_costs_one_call_per_edge(self, frozen):
        memo = ps.Memo(frozen)
        ordering = ps.make_lift_ordering(frozen, (0, 1, 0, 0), BY_GAMMA, memo=memo)
        assert sorted(ordering.order) == [0, 2, 3]
        assert memo.gamma_calls == 3
        again = ps.make_lift_ordering(frozen, (0, 1, 0, 0), BY_GAMMA)
        assert again == ordering

    def test_unknown_strategy(self, frozen):
        with pytest.raises(ValueError):
            ps.make_lift_ordering(frozen, (0, 0, 0, 0), "alphabetical")


class TestEvalCut:
    def test_tightness_for_all_families(self, frozen):
        incumbent = (0, 1, 1, 0)
        fr_bar = ps.hitting_times(frozen, incumbent).fr
        low = ps.min_unconstrained(frozen)
        ordering = ps.make_lift_ordering(frozen, incumbent, BY_INDEX)
        for cut in (
            ps.l_shaped_cut(frozen, incumbent, low),
            ps.new_cut(frozen, incumbent),
            ps.lifted_cut(frozen, incumbent, ordering),
        ):
            assert ps.eval_cut(cut, incumbent) == pytest.approx(fr_bar, abs=1e-9)

    def test_zero_coefficients_give_the_constant(self):
        cut = ps.Cut(constant=4.5, coeffs=(0.0, 0.0), family=NEW, incumbent=(0, 0))
        assert ps.eval_cut(cut, (1, 0)) == 4.5
        assert ps.eval_cut(cut, (1, 1)) == 4.5

    def test_dimension_mismatch(self):
        cut = ps.Cut(constant=1.0, coeffs=(1.0,), family=NEW, incumbent=(0,))
        with pytest.raises(DimensionMismatch):
            ps.eval_cut(cut, (0, 1))

    def test_json_shape(self, frozen):
        cut = ps.new_cut(frozen, (1, 0, 0, 0))
        blob = cut.to_json()
        assert set(blob) == {"family", "a0", "coeffs", "incumbent"}
        assert blob["family"] == NEW
        assert blob["incumbent"] == [1, 0, 0, 0]
        assert len(blob["coeffs"]) == 4
        assert isinstance(blob["a0"], float)


class TestSharedMemo:
    def test_warm_memo_builds_the_standalone_cuts(self):
        rng = np.random.default_rng(21)
        for inst in build_corpus(6, seed0=211, n_lo=5, n_hi=12, z_lo=1, z_hi=8):
            memo = ps.Memo(inst)
            low = ps.min_unconstrained(inst, memo=memo)
            assert low == ps.min_unconstrained(inst)
            for _ in range(4):
                incumbent = random_selection(rng, inst.z_count)
                pairs = [
                    (ps.l_shaped_cut(inst, incumbent, low, memo=memo), ps.l_shaped_cut(inst, incumbent, low)),
                    (ps.new_cut(inst, incumbent, memo=memo), ps.new_cut(inst, incumbent)),
                ]
                for strategy in (BY_INDEX, BY_GAMMA):
                    shared = ps.make_lift_ordering(inst, incumbent, strategy, memo=memo)
                    alone = ps.make_lift_ordering(inst, incumbent, strategy)
                    assert shared == alone
                    pairs.append(
                        (ps.lifted_cut(inst, incumbent, shared, memo=memo), ps.lifted_cut(inst, incumbent, alone))
                    )
                for warm, cold in pairs:
                    assert repr(warm) == repr(cold)


class TestSeparator:
    @pytest.mark.parametrize("strategy", [BY_INDEX, BY_GAMMA])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_builds_the_family_cut(self, frozen, family, strategy):
        # the separator asks, in the same order, the queries the family's
        # builder asks on a fresh memo, and returns the cut's own; the
        # builder then finds every answer in the memo the separator filled
        # and builds the same cut there
        incumbent = (0, 1, 0, 0)
        alone = AskingMemo(frozen)
        direct = family_cut(family, frozen, incumbent, strategy, alone)
        memo = AskingMemo(frozen)
        queries = cuts.separator(family, memo, strategy)(incumbent)
        assert memo.asked == alone.asked
        assert len(queries) == (0 if family == L_SHAPED else frozen.z_count)
        assert queries == memo.asked[len(memo.asked) - len(queries) :]
        solves = memo.gamma_solves
        assert repr(family_cut(family, frozen, incumbent, strategy, memo)) == repr(direct)
        assert memo.gamma_solves == solves

    def test_lshaped_bound_is_asked_once(self, frozen):
        memo = ps.Memo(frozen)
        separate = cuts.separator(L_SHAPED, memo)
        for incumbent in [(0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1)]:
            separate(incumbent)
        assert memo.gamma_calls == 1

    def test_builder_looked_up_at_each_cut(self, frozen, monkeypatch):
        # a wrapper set on the module after the separators are made, as a
        # tracer sets one, still sees every separation
        separators = {family: cuts.separator(family, ps.Memo(frozen)) for family in (NEW, ps.LIFTED)}
        seen = []
        real = cuts.forced_queries

        def watched(incumbent, order, tails):
            seen.append((incumbent, tails))
            return real(incumbent, order, tails)

        monkeypatch.setattr(cuts, "forced_queries", watched)
        for family, separate in separators.items():
            tails = family == ps.LIFTED
            assert separate((0, 1, 0, 0)) == real((0, 1, 0, 0), (0, 2, 3), tails)
            separate((1, 0, 0, 1))
        assert seen == [((0, 1, 0, 0), False), ((1, 0, 0, 1), False), ((0, 1, 0, 0), True), ((1, 0, 0, 1), True)]

    def test_unknown_family(self, frozen):
        with pytest.raises(ValueError, match="unknown cut family"):
            cuts.separator("benders", ps.Memo(frozen))
