"""Shared helpers for the test suite: deterministic instance corpora and
exhaustive objective tables.  Test modules import them by name; this is not a
``conftest`` module, so ``python -m pytest tests perfbench`` runs as one
session."""

from __future__ import annotations

from itertools import product

import numpy as np

import pagerank_select as ps
from pagerank_select import ConstraintSet, Row, oracle
from pagerank_select.errors import InfeasibleSpec


def build_corpus(
    count,
    seed0,
    *,
    n_lo=3,
    n_hi=12,
    z_lo=0,
    z_hi=10,
    p_lo=0.15,
    p_hi=0.45,
    c_lo=0.5,
    c_hi=0.95,
):
    """Deterministic list of `count` random instances.

    Draw parameters from a generator seeded with seed0 and instances from
    derived seeds; draws that run out of non-edges are skipped, so the
    returned length is exact and the sequence is reproducible.
    """
    rng = np.random.default_rng(seed0)
    out = []
    attempt = 0
    while len(out) < count:
        n = int(rng.integers(n_lo, n_hi + 1))
        p = float(rng.uniform(p_lo, p_hi))
        z_cap = min(z_hi, n * (n - 1))
        z = int(rng.integers(z_lo, z_cap + 1)) if z_cap >= z_lo else z_lo
        c = float(rng.uniform(c_lo, c_hi))
        seed = seed0 * 100_003 + attempt
        attempt += 1
        try:
            inst, _ = ps.generate_random(n, p, z, None, seed=seed, damping=c)
        except InfeasibleSpec:
            continue
        out.append(inst)
    return out


# The differential corpus: two instances per damping and constraint spec
DAMPINGS = (0.5, 0.85, 0.99, 0.999)
SPECS = ("none", "card_le:3", "card_ge:2", "card_eq:3", "cover:2", "rows")


def mixed_rows(z_count):
    """Rows of each sense with mixed signs, feasible for any |Z| >= 5."""
    pad = (0,) * (z_count - 5)
    return ConstraintSet(rows=(
        Row((1, -1, 2, -1, 0) + pad, "<=", 1),
        Row((0, 1, 0, 1, -1) + pad, "=", 1),
        Row((1,) * z_count, ">=", 2),
    ))


def differential_case(damping, spec, draw):
    """The differential corpus's instance ``draw`` of (damping, spec): n in
    8..60 and |Z| in 5..10, drawn from a generator seeded by the case's place
    in the grid."""
    index = 2 * (DAMPINGS.index(damping) * len(SPECS) + SPECS.index(spec)) + draw
    rng = np.random.default_rng(4_000 + index)
    n, z_count = int(rng.integers(8, 61)), int(rng.integers(5, 11))
    density = float(rng.uniform(0.05, 0.3)) * 12 / n
    inst, cons = ps.generate_random(
        n, density, z_count, None if spec == "rows" else spec, seed=index, damping=damping
    )
    return inst, mixed_rows(z_count) if spec == "rows" else cons


def fr_table(inst):
    """First return time at every point of the binary cube."""
    return {
        bits: ps.hitting_times(inst, bits).fr
        for bits in product((0, 1), repeat=inst.z_count)
    }


def random_selection(rng, z_count):
    return tuple(int(b) for b in rng.integers(0, 2, size=z_count))


def reference_greedy_subset(h, base_targets, free_edges, mean_all):
    """``oracle._greedy_subset`` in its plain form: always sorts, and sums the
    base targets by a generator.  The tests hold the rewritten step to it
    bitwise."""
    order = sorted(free_edges, key=lambda kj: (h[kj[1]], kj[0]))
    total = float(sum(h[j] for j in base_targets))
    count = len(base_targets)
    chosen = set()
    if count == 0:
        k0, j0 = order[0]
        if h[j0] < mean_all - oracle.MEAN_IMPROVEMENT:
            chosen.add(k0)
            total, count = float(h[j0]), 1
        else:
            return chosen
    for k, j in order:
        if k in chosen:
            continue
        if (total + h[j]) / (count + 1) < total / count - oracle.MEAN_IMPROVEMENT:
            chosen.add(k)
            total += float(h[j])
            count += 1
    return chosen


def reference_gamma(instance, query, memo):
    """``oracle.gamma`` with per-query bookkeeping: the free edges, base
    targets and first selection are rebuilt from ``instance`` for every
    query, the greedy step is ``reference_greedy_subset``, and each sweep
    flips bits in place and checks both exits, a fixed point and a
    recurrence; either answers with the lowest ``(fr, selection)``
    evaluated.  A node's base targets are its fixed targets, in
    ``walk.fixed_edges`` order, then its forced-on targets by id.
    Evaluations go through ``memo``, whose place map (``_watched``) it
    reads; the ids are taken as valid."""
    place = {j: at for at, j in enumerate(memo._watched.tolist())}
    fixed_at = {}
    for i, j in memo.walk.fixed_edges.tolist():
        fixed_at.setdefault(i, []).append(place[j])
    fragile_at = [place[j] for _, j in instance.fragile]
    forced_on = frozenset(query.forced_on)
    forced_off = frozenset(query.forced_off)

    free_by_node = {}
    for k, (i, _) in enumerate(instance.fragile):
        if k not in forced_on and k not in forced_off:
            free_by_node.setdefault(i, []).append((k, fragile_at[k]))
    base_targets = {i: list(fixed_at.get(i, ())) for i in free_by_node}
    for k in sorted(forced_on):
        i = instance.fragile[k][0]
        if i in base_targets:
            base_targets[i].append(fragile_at[k])
    nodes = sorted(free_by_node.items())

    y = [0] * instance.z_count
    for k in forced_on:
        y[k] = 1
    for _, node_edges in nodes:
        for k, _ in node_edges:
            y[k] = 1

    evaluated = {}
    while True:
        current = tuple(y)
        profile = memo.evaluate(current)
        evaluated[current] = profile.fr
        h = profile.h
        mean_all = profile.h_sum / instance.n
        changed = False
        for node, node_free in nodes:
            chosen = reference_greedy_subset(h, base_targets[node], node_free, mean_all)
            for k, _ in node_free:
                bit = 1 if k in chosen else 0
                if y[k] != bit:
                    y[k] = bit
                    changed = True
        if not changed or tuple(y) in evaluated:  # a fixed point, or a recurrence
            best = min(evaluated, key=lambda sel: (evaluated[sel], sel))
            return oracle.GammaResult(value=evaluated[best], argmin=best, iterations=len(evaluated))


def family_cut(family, instance, incumbent, strategy, memo):
    """The ``family`` cut at ``incumbent``, from its public builder through
    ``memo``: the ``lshaped`` bound is the unconstrained minimum, and the
    ``lifted`` ordering follows ``strategy``."""
    if family == ps.L_SHAPED:
        return ps.l_shaped_cut(instance, incumbent, ps.min_unconstrained(instance, memo=memo), memo=memo)
    if family == ps.NEW:
        return ps.new_cut(instance, incumbent, memo=memo)
    ordering = ps.make_lift_ordering(instance, incumbent, strategy, memo=memo)
    return ps.lifted_cut(instance, incumbent, ordering, memo=memo)


class AskingMemo(oracle.Memo):
    """A memo that records every query asked of it, repeats included."""

    def __init__(self, instance):
        super().__init__(instance)
        self.asked = []

    def gamma(self, query):
        self.asked.append(query)
        return super().gamma(query)
