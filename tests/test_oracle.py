import numpy as np
import pytest

import pagerank_select as ps
from pagerank_select import GammaQuery, chain, oracle
from pagerank_select.errors import DampingRangeError, DimensionMismatch, OverlapError
from helpers import build_corpus, reference_gamma, reference_greedy_subset


def random_disjoint_query(rng, z_count):
    tri = rng.integers(0, 3, size=z_count)
    return GammaQuery(
        forced_on=frozenset(int(k) for k in np.where(tri == 0)[0]),
        forced_off=frozenset(int(k) for k in np.where(tri == 1)[0]),
    )


def hand_instance():
    # 3-cycle toward the target plus one fragile shortcut back to it
    return ps.validate(
        {
            "n": 3,
            "target": 0,
            "edges": [[0, 1], [1, 2], [2, 0]],
            "fragile": [[1, 0]],
            "damping": 0.9,
        }
    )


class TestGammaBasics:
    def test_no_fragile_edges(self):
        inst = ps.validate({"n": 2, "target": 0, "edges": [[0, 1], [1, 0]], "fragile": [], "damping": 0.85})
        res = ps.gamma(inst, GammaQuery())
        assert res.value == ps.hitting_times(inst, ()).fr
        assert res.argmin == ()
        assert res.iterations == 1

    def test_everything_forced(self):
        inst, _ = ps.generate_random(6, 0.3, 4, None, seed=3)
        query = GammaQuery(forced_on=frozenset({0, 2}), forced_off=frozenset({1, 3}))
        res = ps.gamma(inst, query)
        assert res.argmin == (1, 0, 1, 0)
        assert res.value == chain.low_rank_hitting_times(chain.factor_walk(inst), (1, 0, 1, 0)).fr
        assert res.value == pytest.approx(ps.hitting_times(inst, (1, 0, 1, 0)).fr, rel=1e-12, abs=0)

    def test_shortcut_is_taken(self):
        inst = hand_instance()
        res = ps.gamma(inst, GammaQuery())
        assert res.argmin == (1,)
        # frozen from the enumeration oracle (fr with the shortcut active)
        assert res.value == pytest.approx(2.509981851179673, abs=1e-12)

    def test_shortcut_strictly_beats_the_empty_selection(self):
        inst = hand_instance()
        assert ps.min_unconstrained(inst) < ps.hitting_times(inst, (0,)).fr

    def test_overlapping_forcings_rejected(self):
        inst, _ = ps.generate_random(5, 0.3, 3, None, seed=1)
        with pytest.raises(OverlapError):
            ps.gamma(inst, GammaQuery(forced_on=frozenset({0}), forced_off=frozenset({0})))

    def test_edge_id_out_of_range(self):
        inst, _ = ps.generate_random(5, 0.3, 3, None, seed=1)
        with pytest.raises(DimensionMismatch):
            ps.gamma(inst, GammaQuery(forced_on=frozenset({7})))

    def test_damping_one_rejected(self):
        inst = ps.validate({"n": 2, "target": 0, "edges": [[0, 1], [1, 0]], "fragile": [[0, 0]], "damping": 1.0})
        with pytest.raises(DampingRangeError):
            ps.gamma(inst, GammaQuery())

    def test_deterministic(self):
        inst, _ = ps.generate_random(8, 0.3, 6, None, seed=9)
        q = GammaQuery(forced_on=frozenset({1}), forced_off=frozenset({4}))
        assert ps.gamma(inst, q) == ps.gamma(inst, q)

    def test_value_matches_argmin(self):
        rng = np.random.default_rng(5)
        for inst in build_corpus(8, seed0=77, z_lo=1, z_hi=8):
            query = random_disjoint_query(rng, inst.z_count)
            res = ps.gamma(inst, query)
            assert abs(res.value - ps.hitting_times(inst, res.argmin).fr) < 1e-9
            for k in query.forced_on:
                assert res.argmin[k] == 1
            for k in query.forced_off:
                assert res.argmin[k] == 0


class TestGammaAgainstBruteForce:
    def test_unconstrained_queries(self):
        for inst in build_corpus(10, seed0=88, n_lo=4, n_hi=8, z_lo=1, z_hi=6):
            res = ps.gamma(inst, GammaQuery())
            bf = ps.bf_gamma(inst, frozenset(), frozenset())
            assert abs(res.value - bf) <= 1e-9 * max(1.0, bf)

    def test_random_forced_queries(self):
        rng = np.random.default_rng(6)
        for inst in build_corpus(12, seed0=99, z_lo=1, z_hi=8):
            for _ in range(10):
                q = random_disjoint_query(rng, inst.z_count)
                res = ps.gamma(inst, q)
                bf = ps.bf_gamma(inst, q.forced_on, q.forced_off)
                assert abs(res.value - bf) <= 1e-9 * max(1.0, bf)

    def test_min_unconstrained_on_frozen_instance(self):
        inst, _ = ps.generate_random(6, 0.3, 4, None, seed=42, damping=0.85)
        # frozen from bf_min on the same instance
        assert ps.min_unconstrained(inst) == pytest.approx(3.348392650200081, abs=1e-9)
        assert ps.min_unconstrained(inst) == pytest.approx(ps.bf_min(inst)[1], abs=1e-9)


class TestGammaProperties:
    def test_forcing_never_helps(self):
        rng = np.random.default_rng(7)
        for inst in build_corpus(10, seed0=111, z_lo=1, z_hi=8):
            free_min = ps.gamma(inst, GammaQuery()).value
            for _ in range(8):
                q = random_disjoint_query(rng, inst.z_count)
                assert ps.gamma(inst, q).value >= free_min - 1e-9

    def test_monotone_under_nested_forcings(self):
        rng = np.random.default_rng(8)
        for inst in build_corpus(8, seed0=122, z_lo=2, z_hi=8):
            big = random_disjoint_query(rng, inst.z_count)
            small = GammaQuery(
                forced_on=frozenset(k for k in big.forced_on if rng.random() < 0.5),
                forced_off=frozenset(k for k in big.forced_off if rng.random() < 0.5),
            )
            assert ps.gamma(inst, big).value >= ps.gamma(inst, small).value - 1e-9

    def test_lower_bounds_consistent_points(self):
        rng = np.random.default_rng(9)
        for inst in build_corpus(8, seed0=133, z_lo=1, z_hi=8):
            q = random_disjoint_query(rng, inst.z_count)
            val = ps.gamma(inst, q).value
            for _ in range(5):
                y = [int(rng.integers(0, 2)) for _ in range(inst.z_count)]
                for k in q.forced_on:
                    y[k] = 1
                for k in q.forced_off:
                    y[k] = 0
                assert val <= ps.hitting_times(inst, tuple(y)).fr + 1e-9

    def test_policy_iteration_value_trace_is_monotone(self, monkeypatch):
        inst, _ = ps.generate_random(10, 0.3, 8, None, seed=17, damping=0.9)
        trace = []
        real = chain.low_rank_hitting_times

        def spy(walk, y):
            prof = real(walk, y)
            trace.append(prof.fr)
            return prof

        monkeypatch.setattr(chain, "low_rank_hitting_times", spy)
        res = ps.gamma(inst, GammaQuery())
        assert len(trace) == res.iterations
        assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))
        assert trace[-1] == res.value


class TestGammaMemo:
    def test_shared_memo_gives_the_standalone_result(self):
        rng = np.random.default_rng(13)
        for inst in build_corpus(6, seed0=144, z_lo=1, z_hi=8):
            memo = oracle.Memo(inst)
            for _ in range(4):
                q = random_disjoint_query(rng, inst.z_count)
                assert ps.gamma(inst, q, memo=memo) == ps.gamma(inst, q)

    def test_memo_of_another_instance_rejected(self):
        inst = ps.generate_random(8, 0.3, 6, None, seed=9)[0]
        other = ps.generate_random(8, 0.3, 6, None, seed=10)[0]
        with pytest.raises(ValueError):
            ps.gamma(inst, GammaQuery(), memo=oracle.Memo(other))


class TestGammaRoundingCycle:
    # The target has no in-edge, so every selection has the closed-form
    # value n / (1 - c) = 10000; rounding noise in h at that scale exceeds
    # MEAN_IMPROVEMENT and once made the greedy step alternate without end.
    @pytest.fixture()
    def flat(self):
        return ps.generate_random(100, 0.05, 14, "card_le:3", seed=1, damping=0.99)

    def test_recurring_selection_stops_policy_iteration(self, flat):
        inst, _ = flat
        res = ps.gamma(inst, GammaQuery(forced_on=frozenset({9})))
        assert res.iterations <= 10
        assert res.value == pytest.approx(10000.0, rel=1e-9)
        assert res.argmin[9] == 1
        assert res.value == chain.low_rank_hitting_times(chain.factor_walk(inst), res.argmin).fr
        assert res.value == pytest.approx(ps.hitting_times(inst, res.argmin).fr, rel=1e-12, abs=0)

    def test_solve_closes(self, flat):
        inst, cons = flat
        report = ps.solve(inst, cons, family="new")
        assert report.status == "optimal"
        assert report.best_value == pytest.approx(10000.0, rel=1e-9)


class TestMemo:
    @pytest.fixture()
    def inst(self):
        return ps.generate_random(8, 0.3, 6, None, seed=9)[0]

    @pytest.fixture()
    def spy(self, monkeypatch):
        calls = []
        real = oracle.gamma

        def counted(instance, query, **kwargs):
            calls.append(query)
            return real(instance, query, **kwargs)

        monkeypatch.setattr(oracle, "gamma", counted)
        return calls

    def test_hit_returns_what_gamma_returns(self, inst):
        memo = oracle.Memo(inst)
        rng = np.random.default_rng(11)
        for _ in range(10):
            q = random_disjoint_query(rng, inst.z_count)
            first = memo.gamma(q)
            assert first == ps.gamma(inst, q)
            assert memo.gamma(q) is first

    def test_repeated_query_solved_once(self, inst, spy):
        memo = oracle.Memo(inst)
        q = GammaQuery(forced_on=frozenset({1}), forced_off=frozenset({4}))
        for _ in range(3):
            memo.gamma(q)
        assert len(spy) == 1
        assert memo.gamma_solves == 1

    def test_set_and_frozenset_share_a_key(self, inst, spy):
        memo = oracle.Memo(inst)
        a = memo.gamma(GammaQuery(forced_on={0, 2}, forced_off={5}))
        b = memo.gamma(GammaQuery(forced_on=frozenset({2, 0}), forced_off=frozenset({5})))
        assert a is b
        assert len(spy) == 1

    @pytest.mark.parametrize(
        "query, error",
        [
            (GammaQuery(forced_on=frozenset({0}), forced_off=frozenset({0})), OverlapError),
            (GammaQuery(forced_on=frozenset({7})), DimensionMismatch),
        ],
    )
    def test_bad_query_raises_every_time_and_is_not_stored(self, inst, spy, query, error):
        memo = oracle.Memo(inst)
        for _ in range(2):
            with pytest.raises(error):
                memo.gamma(query)
        assert len(spy) == 2
        assert memo.gamma_solves == 0

    def test_return_time_evaluated_once_per_selection(self, inst, monkeypatch):
        evaluated = []
        real = chain.low_rank_hitting_times

        def counted(walk, y):
            evaluated.append(y)
            return real(walk, y)

        monkeypatch.setattr(chain, "low_rank_hitting_times", counted)
        memo = oracle.Memo(inst)
        y = (1, 0, 1, 0, 0, 1)
        assert memo.evaluate(y).fr == real(chain.factor_walk(inst), y).fr
        assert memo.evaluate(y).fr == pytest.approx(ps.hitting_times(inst, y).fr, rel=1e-12, abs=0)
        assert memo.evaluate(list(y)) is memo.evaluate(y)
        assert evaluated == [y]

    def test_one_factored_walk_built_with_the_memo(self, inst, monkeypatch):
        built = []
        real = chain.factor_walk

        def counted(instance):
            built.append(instance)
            return real(instance)

        monkeypatch.setattr(chain, "factor_walk", counted)
        memo = oracle.Memo(inst)
        assert built == [inst]
        memo.evaluate((1, 0, 1, 0, 0, 1))
        memo.gamma(GammaQuery(forced_on=frozenset({1})))
        memo.gamma(GammaQuery(forced_off=frozenset({2})))
        memo.evaluate((0, 1, 1, 0, 0, 0))
        assert built == [inst]

    def test_damping_one_raises_when_made(self):
        inst = ps.validate({"n": 2, "target": 0, "edges": [[0, 1], [1, 0]], "fragile": [[0, 0]], "damping": 1.0})
        with pytest.raises(DampingRangeError):
            oracle.Memo(inst)

    def test_memo_of_another_instance_rejected(self, inst):
        other = ps.generate_random(8, 0.3, 6, None, seed=10)[0]
        with pytest.raises(ValueError):
            ps.min_unconstrained(inst, memo=oracle.Memo(other))


class TestAgainstReferenceBookkeeping:
    """The memo groups the fragile edges by source once and each query masks
    its forced edges; the answers must equal, bitwise, those of the
    bookkeeping rebuilt per query (``helpers.reference_gamma``)."""

    def test_gamma_results_bitwise_on_random_queries(self):
        rng = np.random.default_rng(1201)
        queries = 0
        seen = set()
        while queries < 540:
            n = int(rng.integers(3, 121))
            z = int(rng.integers(1, min(12, n * (n - 1)) + 1))
            p = float(rng.choice([0.0, rng.uniform(0.01, 0.4)]))
            damping = float(rng.uniform(0.5, 0.99))
            try:
                inst, _ = ps.generate_random(n, p, z, None, seed=int(rng.integers(2**31)), damping=damping)
            except ps.errors.InfeasibleSpec:
                continue
            memo = oracle.Memo(inst)
            with_fixed = {i for i, _ in inst.edges}
            for i, _ in inst.fragile:
                seen.add("source with fixed out-edges" if i in with_fixed else "source without fixed out-edges")
                if i == inst.target:
                    seen.add("target as a source")
            for q in [GammaQuery()] + [random_disjoint_query(rng, z) for _ in range(5)]:
                free = [j for j in range(z) if j not in q.forced_on and j not in q.forced_off]
                if any(inst.fragile[k][0] == inst.fragile[j][0] for k in q.forced_on for j in free):
                    seen.add("forced-on edge at a source with a free edge")
                result = oracle.gamma(inst, q, memo=memo)
                expected = reference_gamma(inst, q, memo)
                assert result.value.hex() == expected.value.hex()
                assert result == expected
                queries += 1
        assert seen == {
            "source with fixed out-edges",
            "source without fixed out-edges",
            "target as a source",
            "forced-on edge at a source with a free edge",
        }

    def test_queries_share_the_memo_grouping_read_only(self):
        # queries with and without forced edges at the sources read the
        # memo's per-source grouping; it is made of tuples and stays as built
        inst = ps.generate_random(30, 0.1, 10, None, seed=1203)[0]
        memo = oracle.Memo(inst)
        built = list(memo._sources)
        assert all(type(fixed) is tuple and type(edges) is tuple for _, fixed, edges in built)
        rng = np.random.default_rng(1203)
        for q in [GammaQuery()] + [random_disjoint_query(rng, inst.z_count) for _ in range(20)]:
            assert oracle.gamma(inst, q, memo=memo) == reference_gamma(inst, q, memo)
        assert memo._sources == built

    def test_greedy_step_bitwise_on_random_nodes(self):
        # 0, 1 and many free edges, with and without base targets, with
        # mean_all below, at and above the cheapest free target; few
        # distinct values, so that ties and equal means occur.
        rng = np.random.default_rng(1202)
        shapes = set()
        for _ in range(4000):
            h = [float(v) for v in rng.choice([1.0, 2.5, 3.0, 7.25, 1e4, rng.uniform(1, 50)], size=8)]
            base = [int(j) for j in rng.choice(8, size=int(rng.integers(0, 4)))]
            free_count = int(rng.choice([0, 1, 1, 2, 3, 5]))
            free = [(int(k), int(rng.integers(8))) for k in rng.permutation(20)[:free_count]]
            cheapest = min((h[j] for _, j in free), default=2.5)
            side = int(rng.integers(-1, 2))
            mean_all = cheapest + side * float(rng.choice([1e-13, 0.5, 10.0]))
            if not free and not base:  # no caller asks; both index an empty order
                with pytest.raises(IndexError):
                    oracle._greedy_subset(h, base, free, mean_all)
                with pytest.raises(IndexError):
                    reference_greedy_subset(h, base, free, mean_all)
                continue
            assert oracle._greedy_subset(h, base, free, mean_all) == reference_greedy_subset(h, base, free, mean_all)
            shapes.add((min(free_count, 2), bool(base), side))
        assert len(shapes) == 3 * 2 * 3 - 3  # every shape but no free edge and no base

    def test_greedy_step_sums_the_base_targets_in_order(self):
        # 2**53 absorbs a 1 added after it: summed in order the base mean is
        # 2**53 / 3, and the free target above it stays off; summed in
        # reverse it would be (2**53 + 2) / 3, and the target would go on
        h = [2.0**53, 1.0, 1.0, 3002399751580330.0]
        free = [(0, 3)]
        assert reference_greedy_subset(h, [2, 1, 0], free, 1e20) == {0}
        assert oracle._greedy_subset(h, [0, 1, 2], free, 1e20) == reference_greedy_subset(h, [0, 1, 2], free, 1e20) == set()


class TestQueryIds:
    @pytest.fixture()
    def inst(self):
        return ps.generate_random(8, 0.3, 6, None, seed=9)[0]

    @pytest.mark.parametrize(
        "query, named",
        [
            (GammaQuery(forced_on={True}), "True"),
            (GammaQuery(forced_off={False}), "False"),
            (GammaQuery(forced_on={1.5}), "1.5"),
            (GammaQuery(forced_on={2.0}), "2.0"),
            (GammaQuery(forced_off={"3"}), "'3'"),
            (GammaQuery(forced_on={np.True_}), "np.True_"),
            (GammaQuery(forced_on={0}, forced_off={None}), "None"),
        ],
    )
    def test_non_integer_id_rejected_before_any_evaluation(self, inst, monkeypatch, query, named):
        built = []
        monkeypatch.setattr(chain, "factor_walk", lambda instance: built.append(instance))
        with pytest.raises(DimensionMismatch, match=f"fragile edge id {named} is not an integer"):
            ps.gamma(inst, query)
        assert built == []

    def test_numpy_integer_ids_accepted(self, inst):
        as_numpy = GammaQuery(forced_on=frozenset({np.int64(1)}), forced_off=frozenset({np.intp(4)}))
        assert ps.gamma(inst, as_numpy) == ps.gamma(inst, GammaQuery(forced_on={1}, forced_off={4}))

    def test_memo_keys_by_value(self, inst):
        # {True} == {1} as sets, so once edge 1's query is held the memo
        # answers {True} from it without checking the ids again
        memo = oracle.Memo(inst)
        held = memo.gamma(GammaQuery(forced_on=frozenset({1})))
        assert memo.gamma(GammaQuery(forced_on=frozenset({True}))) is held
        assert memo.gamma_solves == 1
        with pytest.raises(DimensionMismatch):
            oracle.Memo(inst).gamma(GammaQuery(forced_on=frozenset({True})))


class TestSelectionKeys:
    @pytest.mark.parametrize("first", range(4))
    def test_every_form_of_a_selection_hits_one_entry(self, monkeypatch, first):
        inst = ps.generate_random(8, 0.3, 6, None, seed=9)[0]
        evaluated = []
        real = chain.low_rank_hitting_times

        def counted(walk, y):
            evaluated.append(y)
            return real(walk, y)

        monkeypatch.setattr(chain, "low_rank_hitting_times", counted)
        memo = oracle.Memo(inst)
        bits = (1, 0, 1, 0, 0, 1)
        forms = [list(bits), tuple(np.array(bits, dtype=np.int64)), tuple(bool(b) for b in bits), bits]
        forms = forms[first:] + forms[:first]
        entries = [memo.evaluate(y) for y in forms]
        assert all(entry is entries[0] for entry in entries)
        assert evaluated == [bits]
        assert all(type(b) is int for b in evaluated[0])
        assert list(memo._evaluations) == [bits]
