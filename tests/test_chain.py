import dataclasses
from itertools import product

import numpy as np
import pytest

import pagerank_select as ps
from pagerank_select import chain, oracle
from pagerank_select.errors import (
    DampingRangeError,
    DimensionMismatch,
    NodeIndexError,
    OverlapError,
    ParseError,
    SingularSystem,
    TooLargeForDense,
)
from pagerank_select.oracle import GammaQuery
from helpers import build_corpus, random_selection


def make(n, target, edges, fragile=(), damping=0.85):
    return ps.validate(
        {
            "n": n,
            "target": target,
            "edges": [list(e) for e in edges],
            "fragile": [list(e) for e in fragile],
            "damping": damping,
        }
    )


def loop_transition_matrix(inst, y):
    """Row-by-row reference for ps.transition_matrix: collect each node's
    active out-neighbors, then fill its row.  Same arithmetic in the same
    order, so the vectorised builder must match it bitwise."""
    n, c = inst.n, inst.damping
    targets = [set() for _ in range(n)]
    for (i, j) in inst.edges:
        targets[i].add(j)
    for k, (i, j) in enumerate(inst.fragile):
        if y[k]:
            targets[i].add(j)
    P = np.empty((n, n))
    for i, outs in enumerate(targets):
        if outs:
            P[i, :] = (1.0 - c) / n
            share = c / len(outs)
            for j in outs:
                P[i, j] += share
        else:
            P[i, :] = 1.0 / n
    return P


def mc_first_return(inst, y, rollouts, seed):
    """Monte Carlo estimate of the mean first return time, with its standard
    error; the simulation is an independent check on the linear solve."""
    P = ps.transition_matrix(inst, y)
    cum = np.cumsum(P, axis=1)
    rng = np.random.default_rng(seed)
    states = np.full(rollouts, inst.target)
    steps = np.zeros(rollouts, dtype=np.int64)
    active = np.arange(rollouts)
    t = 0
    while active.size:
        t += 1
        assert t < 10**6, "rollout failed to return"
        u = rng.random(active.size)
        nxt = (u[:, None] > cum[states[active]]).sum(axis=1)
        nxt = np.minimum(nxt, inst.n - 1)
        states[active] = nxt
        returned = nxt == inst.target
        steps[active[returned]] = t
        active = active[~returned]
    mean = float(steps.mean())
    stderr = float(steps.std(ddof=1) / np.sqrt(rollouts))
    return mean, stderr


def walk_instance(rng, n, damping):
    """Random instance with the shapes that stress the low-rank update:
    fixed and fragile self-loops, dangling nodes, fragile edges out of the
    target and out of a node that dangles at the all-off selection, and
    fragile edges sharing a source."""
    target = int(rng.integers(n))
    dangling = int(rng.integers(n))
    edges = {
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != dangling and rng.random() < min(0.5, 4.0 / n)
    }
    picks = {(target, int(rng.integers(n))), (dangling, int(rng.integers(n))), (dangling, dangling)}
    shared = int(rng.integers(n))
    picks |= {(shared, int(j)) for j in rng.integers(n, size=3)}
    picks |= {(int(i), int(j)) for i, j in rng.integers(n, size=(int(rng.integers(0, 8)), 2))}
    fragile = sorted(picks - edges)
    rng.shuffle(fragile)
    return make(n, target, edges, fragile, damping)


def assert_profiles_close(got, want):
    np.testing.assert_allclose(got.h, want.h, rtol=1e-12, atol=0)
    assert got.fr == pytest.approx(want.fr, rel=1e-12, abs=0)


class TestTransitionRow:
    # rows of transition_matrix, the one public view of the walk
    def test_single_state_self_loop(self):
        inst = make(1, 0, [(0, 0)])
        assert ps.transition_matrix(inst, ())[0] == pytest.approx([1.0])

    def test_single_out_edge_split(self):
        inst = make(2, 0, [(0, 1)])
        row = ps.transition_matrix(inst, ())[0]
        assert row == pytest.approx([0.075, 0.925], abs=1e-15)

    def test_dangling_node_is_uniform(self):
        inst = make(4, 0, [(0, 1)])
        assert ps.transition_matrix(inst, ())[2] == pytest.approx([0.25] * 4)

    def test_activated_fragile_edge_joins_the_row(self):
        inst = make(3, 0, [(0, 1)], fragile=[(0, 2)], damping=0.9)
        off = ps.transition_matrix(inst, (0,))[0]
        on = ps.transition_matrix(inst, (1,))[0]
        assert off[2] == pytest.approx(0.1 / 3)
        assert on[1] == on[2] == pytest.approx(0.45 + 0.1 / 3)

    def test_rows_are_distributions_on_random_instances(self):
        rng = np.random.default_rng(0)
        for inst in build_corpus(10, seed0=21):
            y = random_selection(rng, inst.z_count)
            P = ps.transition_matrix(inst, y)
            assert np.all(P >= 0)
            assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12

    def test_selection_length_checked(self):
        inst = make(2, 0, [(0, 1)], fragile=[(1, 0)])
        with pytest.raises(DimensionMismatch):
            ps.transition_matrix(inst, ())


class TestTransitionMatrix:
    def test_matches_loop_reference_on_random_instances(self):
        rng = np.random.default_rng(3)
        for inst in build_corpus(30, seed0=77):
            for y in (
                random_selection(rng, inst.z_count),
                (0,) * inst.z_count,
                (1,) * inst.z_count,
            ):
                assert np.array_equal(ps.transition_matrix(inst, y), loop_transition_matrix(inst, y))

    @pytest.mark.parametrize(
        "n, edges, fragile, y, damping",
        [
            (1, [], [], (), 0.85),  # no edges at all
            (1, [(0, 0)], [], (), 0.85),  # self-loop
            (3, [(0, 0), (0, 1)], [(1, 2)], (1,), 0.9),  # self-loop among other targets
            (4, [(0, 1)], [(1, 2)], (0,), 0.85),  # dangling nodes
            (3, [(0, 1), (1, 2), (2, 0)], [(1, 0)], (1,), 1.0),  # damping 1
            (3, [(0, 1)], [(2, 1)], (0,), 1.0),  # dangling at damping 1
        ],
    )
    def test_matches_loop_reference_by_hand(self, n, edges, fragile, y, damping):
        inst = make(n, 0, edges, fragile, damping)
        assert np.array_equal(ps.transition_matrix(inst, y), loop_transition_matrix(inst, y))

    def test_selection_length_checked(self):
        inst = make(2, 0, [(0, 1)], fragile=[(1, 0)])
        with pytest.raises(DimensionMismatch):
            ps.transition_matrix(inst, (1, 1))

    def test_unvalidated_overlap_is_rejected(self):
        inst = ps.Instance(n=2, target=0, edges=frozenset({(0, 1)}), fragile=((0, 1),))
        with pytest.raises(OverlapError):
            ps.transition_matrix(inst, (1,))

    def test_edge_arrays_are_read_only(self):
        inst = make(3, 0, [(1, 2), (0, 1)], fragile=[(2, 0)])
        assert inst.edge_array.tolist() == [[0, 1], [1, 2]]
        assert inst.fragile_array.tolist() == [[2, 0]]
        with pytest.raises(ValueError):
            inst.fragile_array[0, 0] = 1


class TestHittingTimes:
    def test_single_state(self):
        inst = make(1, 0, [(0, 0)])
        prof = ps.hitting_times(inst, ())
        assert prof.fr == 1.0
        assert prof.h == pytest.approx([0.0])

    def test_deterministic_three_cycle(self):
        inst = make(3, 0, [(0, 1), (1, 2), (2, 0)], damping=1.0)
        assert ps.hitting_times(inst, ()).fr == pytest.approx(3.0, abs=1e-10)

    @pytest.mark.parametrize("c", [0.5, 0.85, 0.99])
    def test_two_cycle_returns_in_two_steps(self, c):
        # hand solve: h1 = 1/q with q = c + (1-c)/2, so fr = 1 + q*h1 = 2
        # regardless of damping; the Monte Carlo check below agrees
        inst = make(2, 0, [(0, 1), (1, 0)], damping=c)
        prof = ps.hitting_times(inst, ())
        assert prof.fr == pytest.approx(2.0, abs=1e-10)
        q = c + (1 - c) / 2
        assert prof.h[1] == pytest.approx(1 / q)

    def test_chain_with_dangling_node_at_damping_one(self):
        # node 1 has no out-edges and teleports uniformly, so the system
        # stays solvable: h1 = 1 + h1/2 gives h1 = 2 and fr = 3
        inst = make(2, 0, [(0, 1)], damping=1.0)
        assert ps.hitting_times(inst, ()).fr == pytest.approx(3.0)

    def test_singular_when_target_unreachable_at_damping_one(self):
        inst = make(2, 0, [(0, 1), (1, 1)], damping=1.0)
        with pytest.raises(SingularSystem):
            ps.hitting_times(inst, ())

    def test_singular_dense_solve_names_the_target(self, monkeypatch):
        def refuse(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        inst = make(4, 2, [(0, 1), (1, 2), (2, 3), (3, 0)], fragile=[(1, 3)])
        monkeypatch.setattr(np.linalg, "solve", refuse)
        for call in (lambda: ps.hitting_times(inst, (0,)), lambda: chain.factor_walk(inst)):
            with pytest.raises(SingularSystem, match="for target 2 is singular"):
                call()

    def test_reachability_at_damping_one_follows_the_selection(self):
        # node 1 reaches the target only through the fragile edge (1, 0)
        inst = make(2, 0, [(0, 1), (1, 1)], fragile=[(1, 0)], damping=1.0)
        with pytest.raises(SingularSystem, match="unreachable from node 1"):
            ps.hitting_times(inst, (0,))
        # with it on, h1 = 1 + h1 / 2 gives h1 = 2 and fr = 3
        assert ps.hitting_times(inst, (1,)).fr == pytest.approx(3.0)

    def test_profile_invariants_on_random_instances(self):
        rng = np.random.default_rng(1)
        for inst in build_corpus(10, seed0=33):
            y = random_selection(rng, inst.z_count)
            prof = ps.hitting_times(inst, y)
            assert prof.h[inst.target] == 0.0
            others = [j for j in range(inst.n) if j != inst.target]
            assert all(prof.h[j] >= 1.0 - 1e-12 for j in others)
            assert prof.fr >= 1.0 - 1e-12
            P = ps.transition_matrix(inst, y)
            assert prof.fr == pytest.approx(1.0 + float(P[inst.target] @ prof.h))

    def test_first_return_exceeds_one_without_a_self_loop(self):
        for inst in build_corpus(6, seed0=44, n_lo=2):
            if ps.transition_matrix(inst, (0,) * inst.z_count)[inst.target, inst.target] < 1.0:
                assert ps.hitting_times(inst, (0,) * inst.z_count).fr > 1.0

    def test_first_return_is_one_iff_target_self_loops_surely(self):
        inst = make(3, 0, [(0, 0), (1, 0), (2, 0)], damping=1.0)
        assert ps.transition_matrix(inst, ())[0, 0] == 1.0
        assert ps.hitting_times(inst, ()).fr == 1.0

    @pytest.mark.parametrize("c", [0.85, 1.0])
    def test_first_passage_matrix_is_bitwise_eye_minus_q(self, c):
        # compared as bytes, so a -0.0 where eye - Q has +0.0 (a zero entry
        # of P, which damping 1 has) fails too
        for inst in build_corpus(8, seed0=66, n_lo=2, c_lo=c, c_hi=c):
            P = ps.transition_matrix(inst, (0,) * inst.z_count)
            for v in {0, inst.target, inst.n - 1}:
                others = [j for j in range(inst.n) if j != v]
                expected = np.eye(inst.n - 1) - P[np.ix_(others, others)]
                assert chain._first_passage_matrix(P, v).tobytes() == expected.tobytes()

    def test_monte_carlo_agreement(self):
        for seed, inst in enumerate(build_corpus(2, seed0=55, n_lo=4, n_hi=6, z_lo=1, z_hi=4)):
            y = tuple(1 for _ in range(inst.z_count))
            fr = ps.hitting_times(inst, y).fr
            mean, stderr = mc_first_return(inst, y, rollouts=10**5, seed=seed)
            assert abs(fr - mean) <= 3 * stderr, (fr, mean, stderr)


class TestLowRankHittingTimes:
    @pytest.mark.parametrize("damping", [0.5, 0.85, 0.99, 0.999])
    def test_matches_dense_on_random_instances(self, damping, monkeypatch):
        dense = chain.hitting_times
        fallbacks = []
        monkeypatch.setattr(chain, "hitting_times", lambda instance, y: fallbacks.append(y) or dense(instance, y))
        rng = np.random.default_rng(int(damping * 1000))
        evaluations = 0
        for n in (2, 3, 5, 9, 17, 40, 120, 300):
            inst = walk_instance(rng, n, damping)
            walk = chain.factor_walk(inst)
            z = inst.z_count
            assert fallbacks.pop() == (0,) * z  # the factor's own all-off base
            for y in [(0,) * z, (1,) * z] + [random_selection(rng, z) for _ in range(4)]:
                assert_profiles_close(chain.low_rank_hitting_times(walk, y), dense(inst, y))
                evaluations += 1
        # the update, not its dense fallback, answers most of them (all but
        # 0, 0, 1 and 13 of 48 at the four dampings)
        assert len(fallbacks) < evaluations / 2

    @pytest.mark.parametrize("damping", [0.5, 0.99, 0.999])
    def test_every_selection_of_a_hand_instance(self, damping):
        # target 0 has fragile out-edges (0, 0) and (0, 3); node 4 dangles
        # unless its fragile edges (4, 1) and (4, 4) are on; node 1 has three
        # fragile edges; node 2 has a fixed self-loop
        inst = make(
            6,
            0,
            [(0, 1), (1, 2), (2, 2), (2, 5), (3, 0), (5, 4)],
            fragile=[(0, 3), (4, 1), (1, 3), (0, 0), (1, 5), (4, 4), (1, 0), (2, 0)],
            damping=damping,
        )
        walk = chain.factor_walk(inst)
        for y in product((0, 1), repeat=inst.z_count):
            assert_profiles_close(chain.low_rank_hitting_times(walk, y), ps.hitting_times(inst, y))

    def test_all_off_and_edgeless_cases_equal_dense_bitwise(self):
        inst = make(4, 2, [(0, 1), (1, 2), (2, 3), (3, 0)])
        got, want = chain.low_rank_hitting_times(chain.factor_walk(inst), ()), ps.hitting_times(inst, ())
        assert np.array_equal(got.h, want.h) and got.fr == want.fr
        rich, _ = ps.generate_random(60, 0.05, 9, None, seed=4)
        off = (0,) * rich.z_count
        got, want = chain.low_rank_hitting_times(chain.factor_walk(rich), off), ps.hitting_times(rich, off)
        assert np.array_equal(got.h, want.h) and got.fr == want.fr
        single = make(1, 0, [], fragile=[(0, 0)])
        for y in ((0,), (1,)):
            got, want = chain.low_rank_hitting_times(chain.factor_walk(single), y), ps.hitting_times(single, y)
            assert np.array_equal(got.h, want.h) and got.fr == want.fr

    def test_factor_holds_rows_and_columns_only_at_fragile_sources(self):
        inst, _ = ps.generate_random(60, 0.05, 9, None, seed=4)
        walk = chain.factor_walk(inst)
        sources = sorted({i for i, _ in inst.fragile} - {inst.target})
        assert walk.sources.tolist() == sources
        assert walk.column_pairs.shape == (2, len(sources), inst.n)
        assert walk.base_rows.shape == (len(sources), inst.n)
        # the row deltas and the update read both halves C-ordered
        assert walk.column_pairs.flags.c_contiguous
        assert not walk.column_pairs[:, :, inst.target].any()
        assert np.array_equal(walk.column_pairs[1], np.abs(walk.column_pairs[0]))
        assert np.array_equal(walk.base_rows, ps.transition_matrix(inst, (0,) * inst.z_count)[sources])
        from_fragile = {i for i, _ in inst.fragile}
        assert walk.fixed_edges.tolist() == [[i, j] for i, j in sorted(inst.edges) if i in from_fragile]

    def test_failed_error_bound_falls_back_to_dense(self, monkeypatch):
        # a zero threshold fails every error bound that is not exactly zero
        monkeypatch.setattr(chain, "UPDATE_RTOL", 0.0)
        dense = []
        real = chain.hitting_times

        def counted(instance, y):
            dense.append(y)
            return real(instance, y)

        monkeypatch.setattr(chain, "hitting_times", counted)
        rng = np.random.default_rng(12)
        inst, _ = ps.generate_random(30, 0.1, 8, None, seed=6)
        walk = chain.factor_walk(inst)
        for _ in range(5):
            y = random_selection(rng, inst.z_count)
            y = (1,) + y[1:] if inst.fragile[0][0] != inst.target else y[:-1] + (1,)
            got = chain.low_rank_hitting_times(walk, y)
            want = real(inst, y)
            assert dense[-1] == y
            assert np.array_equal(got.h, want.h)
            assert got.fr == want.fr

    def test_singular_update_falls_back_to_dense(self, monkeypatch):
        refused = []

        def refuse(a):
            refused.append(a)
            raise np.linalg.LinAlgError("Singular matrix")

        rng = np.random.default_rng(13)
        inst, _ = ps.generate_random(30, 0.1, 8, None, seed=6)
        walk = chain.factor_walk(inst)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        for y in [(1,) * inst.z_count] + [random_selection(rng, inst.z_count) for _ in range(4)]:
            got, want = chain.low_rank_hitting_times(walk, y), ps.hitting_times(inst, y)
            assert np.array_equal(got.h, want.h) and got.fr == want.fr
        assert len(refused) == 5

    def test_damping_one_rejected_before_any_work(self, monkeypatch):
        inst = make(2, 0, [(0, 1), (1, 1)], fragile=[(1, 0)], damping=1.0)
        calls = []
        for name in ("hitting_times", "transition_matrix", "_transition_rows"):
            monkeypatch.setattr(chain, name, lambda *args, name=name: calls.append(name))
        with pytest.raises(DampingRangeError, match="damping < 1"):
            chain.factor_walk(inst)
        assert calls == []

    def test_selection_length_checked(self):
        inst = make(2, 0, [(0, 1)], fragile=[(1, 0)])
        with pytest.raises(DimensionMismatch):
            chain.low_rank_hitting_times(chain.factor_walk(inst), ())

    def test_every_form_of_a_selection_gives_the_same_bits(self):
        # every form that instance.check_selection accepts gives the int tuple's bits
        rng = np.random.default_rng(40)
        for inst in build_corpus(6, seed0=41, z_lo=1, z_hi=10):
            walk = chain.factor_walk(inst)
            for _ in range(5):
                y = random_selection(rng, inst.z_count)
                expected = chain.low_rank_hitting_times(walk, y)
                for form in (list(y), tuple(bool(b) for b in y), tuple(np.array(y, dtype=np.int64)), np.array(y)):
                    profile = chain.low_rank_hitting_times(walk, form)
                    assert profile.h.tobytes() == expected.h.tobytes()
                    assert profile.fr.hex() == expected.fr.hex()


class TestEdgeSetOrder:
    def test_walk_and_answers_do_not_depend_on_how_the_edge_set_was_built(self):
        # equal instances whose frozensets were built in another order, and
        # so iterate in another order
        reordered = 0
        for seed in range(20):
            inst, _ = ps.generate_random(60, 0.08, 10, None, seed=seed)
            twin = dataclasses.replace(inst, edges=frozenset(sorted(inst.edges, reverse=True)))
            assert twin == inst
            reordered += list(twin.edges) != list(inst.edges)
            walks = [chain.factor_walk(i) for i in (inst, twin)]
            for name in ("fixed_edges", "sources"):
                assert np.array_equal(getattr(walks[0], name), getattr(walks[1], name))
            assert walks[0].edge_places == walks[1].edge_places
            memos = [oracle.Memo(i) for i in (inst, twin)]
            for memo in memos:
                for q in [GammaQuery()] + [GammaQuery(forced_on=frozenset({k})) for k in range(inst.z_count)]:
                    memo.gamma(q)
            assert list(memos[0].answers.items()) == list(memos[1].answers.items())
        assert reordered


class TestRowDeltas:
    def test_each_source_subset_built_once_per_walk(self, monkeypatch):
        built = []
        real = chain._transition_rows

        def spy(instance, y, source=None, fixed=None):
            if source is not None:
                built.append((source, tuple(k for k, bit in enumerate(y) if bit)))
            return real(instance, y, source, fixed)

        rng = np.random.default_rng(21)
        inst = walk_instance(rng, 40, 0.85)
        walk = chain.factor_walk(inst)
        monkeypatch.setattr(chain, "_transition_rows", spy)
        selections = [random_selection(rng, inst.z_count) for _ in range(30)]
        for _ in range(3):
            for y in selections:
                chain.low_rank_hitting_times(walk, y)
        assert len(built) == len(set(built)) == len(walk.deltas)
        for node, edges in built:
            assert {inst.fragile[k][0] for k in edges} == {node}
            assert edges in walk.deltas

    def test_cached_and_fresh_entries_give_bitwise_equal_answers(self):
        rng = np.random.default_rng(22)
        for damping in (0.5, 0.99):
            inst = walk_instance(rng, 60, damping)
            selections = [random_selection(rng, inst.z_count) for _ in range(20)]
            warm = chain.factor_walk(inst)
            for y in selections:
                chain.low_rank_hitting_times(warm, y)
            for y in selections[::-1]:
                got = chain.low_rank_hitting_times(warm, y)
                want = chain.low_rank_hitting_times(chain.factor_walk(inst), y)
                assert np.array_equal(got.h, want.h) and got.fr == want.fr


def plain_low_rank_hitting_times(factor, y):
    """The low-rank update in its plain form, as (h, fr, whether the update
    answered): fancy gathers, C formed by a negation and a write through
    ``C.flat``, and ``columns[at]`` / ``abs_columns[at]`` read from a
    C-ordered copy of M's columns (``column_pairs[0]``) and an F-ordered
    copy of their absolute values, a layout ``factor_walk`` does not use:
    the absolute values feed only the rounding bound, so their layout must
    move no answer.  Row deltas are built here, as ``d M`` at the sources,
    and not read from the factor's cache.  The update must match it
    bitwise."""
    inst = factor.instance
    columns = np.array(factor.column_pairs[0], order="C")
    abs_columns = np.asfortranarray(np.abs(columns))

    def row_delta(edges):
        sel = np.zeros(inst.z_count, dtype=bool)
        sel[list(edges)] = True
        source = inst.fragile[edges[0]][0]
        row = chain._transition_rows(inst, sel, source, factor.fixed_edges)[0]
        if source == inst.target:
            return row
        d = row - factor.base_rows[factor.edge_places[edges[0]]]
        abs_d = np.abs(d)
        return np.concatenate((columns @ d, abs_columns @ abs_d, [d @ factor.h0, abs_d @ factor.h0]))

    def dense():
        profile = chain.hitting_times(inst, y)
        return profile.h, profile.fr, False

    picked = {}
    for k, bit in enumerate(y):
        if bit:
            picked.setdefault(factor.edge_places[k], []).append(k)
    target_row = factor.target_row
    if -1 in picked:
        target_row = row_delta(tuple(picked.pop(-1)))
    h = factor.h0
    if picked:
        at = sorted(picked)
        r, s = len(at), len(factor.sources)
        parts = np.array([row_delta(tuple(picked[p])) for p in at])
        parts = parts[:, at + [s + p for p in at] + [2 * s, 2 * s + 1]]
        C = -parts[:, :r]
        C.flat[:: r + 1] += 1.0
        try:
            C_inv = np.linalg.inv(C)
        except np.linalg.LinAlgError:
            return dense()
        w = C_inv @ parts[:, 2 * r]
        dw = chain.EPS * (np.abs(C_inv) @ (parts[:, 2 * r + 1] + parts[:, r : 2 * r] @ np.abs(w)))
        h = h + w @ columns[at]
        if not (dw @ abs_columns[at] <= chain.UPDATE_RTOL * h).all():
            return dense()
    else:
        h = h.copy()
    return h, 1.0 + float(target_row @ h), True


def distinct_source_instance(rng, n, z_count, damping):
    """Random instance whose fragile edges leave z_count distinct nodes other
    than the target, so that the all-on selection moves z_count rows."""
    target = int(rng.integers(n))
    edges = {(i, j) for i in range(n) for j in range(n) if rng.random() < min(0.5, 4.0 / n)}
    sources = rng.permutation([i for i in range(n) if i != target])[:z_count]
    fragile = [(int(i), int(rng.integers(n))) for i in sources]
    return make(n, target, edges - set(fragile), fragile, damping)


class TestUpdateAgainstPlainForm:
    """``low_rank_hitting_times`` gathers its block and its column rows with
    one ``take`` each and reads C from the row deltas; the answers must equal
    the plain form's bit for bit."""

    @staticmethod
    def selections(rng, inst):
        z = inst.z_count
        at_target = [k for k, (i, _) in enumerate(inst.fragile) if i == inst.target]
        with_target = [list(random_selection(rng, z)) for _ in range(2)]
        for y in with_target:
            for k in at_target:
                y[k] = 1
        return [(0,) * z, (1,) * z, *map(tuple, with_target)] + [random_selection(rng, z) for _ in range(4)]

    def check(self, inst, selections):
        walk = chain.factor_walk(inst)
        answered = []
        for y in selections:
            got = chain.low_rank_hitting_times(walk, y)
            h, fr, updated = plain_low_rank_hitting_times(walk, y)
            assert got.h.tobytes() == h.tobytes(), (inst.n, inst.damping, y)
            assert got.fr == fr, (inst.n, inst.damping, y)
            answered.append(updated)
        return answered

    @pytest.mark.parametrize("damping", [0.5, 0.85, 0.99, 0.999])
    def test_bitwise_on_random_instances(self, damping):
        rng = np.random.default_rng(int(damping * 1000) + 7)
        answered, widest, from_target = [], 0, 0
        for n in (2, 3, 5, 9, 17, 40, 120, 300):
            inst = walk_instance(rng, n, damping)
            from_target += any(i == inst.target for i, _ in inst.fragile)
            answered += self.check(inst, self.selections(rng, inst))
            if n > 3:
                z = min(n - 1, 12)
                inst = distinct_source_instance(rng, n, z, damping)
                answered += self.check(inst, [(1,) * z] + [random_selection(rng, z) for _ in range(3)])
                widest = max(widest, z)
        assert widest == 12 and from_target >= 4
        assert sum(answered) > len(answered) / 2  # mostly the update, not the dense solve

    def test_bitwise_when_the_dense_solve_answers(self, monkeypatch):
        # a zero threshold fails every error bound that is not exactly zero
        monkeypatch.setattr(chain, "UPDATE_RTOL", 0.0)
        rng = np.random.default_rng(31)
        answered = []
        for n, damping in ((9, 0.5), (40, 0.85), (120, 0.999)):
            inst = walk_instance(rng, n, damping)
            answered += self.check(inst, self.selections(rng, inst)[1:])
        assert not any(answered)

    @pytest.mark.parametrize("damping", [0.5, 0.85, 0.99, 0.999])
    def test_absolute_columns_reach_only_the_rounding_bound(self, damping, monkeypatch):
        # with every bound accepted, doubling |M| may move no bit of h or fr:
        # the factor keeps M's columns once, and |M| never enters the answer
        monkeypatch.setattr(chain, "UPDATE_RTOL", 1.0)
        dense = []
        real = chain.hitting_times

        def counted(instance, y):
            dense.append(y)
            return real(instance, y)

        monkeypatch.setattr(chain, "hitting_times", counted)
        rng = np.random.default_rng(int(damping * 1000) + 11)
        evaluations = 0
        for n in (3, 5, 9, 17, 40, 120):
            inst = walk_instance(rng, n, damping)
            walk = chain.factor_walk(inst)
            columns, abs_columns = walk.column_pairs
            doubled = dataclasses.replace(walk, column_pairs=np.array((columns, 2.0 * abs_columns)), deltas={})
            dense.clear()
            for y in self.selections(rng, inst) + [random_selection(rng, inst.z_count) for _ in range(4)]:
                got, want = chain.low_rank_hitting_times(doubled, y), chain.low_rank_hitting_times(walk, y)
                assert got.h.tobytes() == want.h.tobytes(), (n, y)
                assert got.fr == want.fr, (n, y)
                evaluations += 1
            assert dense == []  # the update answered every one
        assert evaluations == 72


class TestDenseSizeGuard:
    @pytest.fixture()
    def wide(self):
        # no edges, so nothing of size n^2 is ever built
        return make(5000, 0, [])

    def test_raised_before_any_dense_array(self, wide):
        for call in (
            lambda: ps.transition_matrix(wide, ()),
            lambda: ps.hitting_times(wide, ()),
            lambda: chain.factor_walk(wide),
            lambda: ps.stationary(wide, ()),
            lambda: ps.solve(wide),
        ):
            with pytest.raises(TooLargeForDense, match="128 MiB"):
                call()

    def test_limit_is_one_array_of_dense_max_bytes(self, monkeypatch):
        monkeypatch.setattr(chain, "DENSE_MAX_BYTES", 8 * 10 * 10)
        assert ps.transition_matrix(make(10, 0, [(0, 1)]), ()).shape == (10, 10)
        with pytest.raises(TooLargeForDense):
            ps.transition_matrix(make(11, 0, [(0, 1)]), ())


class TestStationary:
    def test_single_state(self):
        inst = make(1, 0, [(0, 0)])
        assert ps.stationary(inst, ()) == pytest.approx([1.0])

    def test_two_cycle_symmetry(self):
        inst = make(2, 0, [(0, 1), (1, 0)])
        assert ps.stationary(inst, ()) == pytest.approx([0.5, 0.5])

    def test_kac_cross_check(self):
        rng = np.random.default_rng(2)
        for inst in build_corpus(15, seed0=66):
            y = random_selection(rng, inst.z_count)
            pi = ps.stationary(inst, y)
            fr = ps.hitting_times(inst, y).fr
            assert abs(pi[inst.target] * fr - 1.0) < 1e-8

    def test_rejects_damping_one(self):
        inst = make(2, 0, [(0, 1), (1, 0)], damping=1.0)
        with pytest.raises(DampingRangeError):
            ps.stationary(inst, ())

    def test_balance_holds_on_a_slow_mixing_walk(self):
        # a 300-node directed cycle with one chord, at damping 0.999: a walk
        # that takes thousands of steps to mix, at both selections
        n = 300
        cycle = [(i, (i + 1) % n) for i in range(n)] + [(0, 150)]
        inst = make(n, 0, cycle, fragile=[(1, 0)], damping=0.999)
        for y in ((0,), (1,)):
            pi = ps.stationary(inst, y)
            assert np.abs(pi @ ps.transition_matrix(inst, y) - pi).sum() <= 1e-13
            assert abs(pi[inst.target] * ps.hitting_times(inst, y).fr - 1.0) <= 1e-12


def invalid(**fields):
    """A three-node Instance, built without validation, with ``fields`` replaced."""
    valid = {"n": 3, "target": 0, "edges": frozenset({(0, 1), (1, 2), (2, 0)}), "fragile": ((1, 0), (2, 1))}
    return ps.Instance(**{**valid, **fields})


WALK_ENTRIES = {
    "solve": ps.solve,
    "gamma": lambda inst: ps.gamma(inst, GammaQuery()),
    "factor_walk": chain.factor_walk,
    "Memo": oracle.Memo,
    "new_cut": lambda inst: ps.new_cut(inst, (0,) * inst.z_count),
    "min_unconstrained": ps.min_unconstrained,
    "stationary": lambda inst: ps.stationary(inst, (0,) * inst.z_count),
    "transition_matrix": lambda inst: ps.transition_matrix(inst, (0,) * inst.z_count),
    "hitting_times": lambda inst: ps.hitting_times(inst, (0,) * inst.z_count),
}
INVALID = {
    "fixed endpoint past intp": (invalid(edges=frozenset({(0, 1), (1, 2), (2, 0), (1, 2**70)})), NodeIndexError),
    "fragile entry of three ids": (invalid(fragile=((1, 0), (1, 2, 0))), ParseError),
    "damping a string": (invalid(damping="0.5"), ParseError),
    "damping None": (invalid(damping=None), ParseError),
    "node count a string": (invalid(n="3"), ParseError),
}


class TestInvalidInstanceAtEveryEntry:
    @pytest.mark.parametrize("entry", WALK_ENTRIES)
    @pytest.mark.parametrize("case", INVALID)
    def test_raises_the_error_validate_names(self, case, entry):
        inst, error = INVALID[case]
        with pytest.raises(error) as named:
            ps.validate(inst)
        with pytest.raises(error) as raised:
            WALK_ENTRIES[entry](inst)
        assert type(raised.value) is type(named.value)
        assert str(raised.value) == str(named.value)
