"""Shared helpers for the test suite: deterministic instance corpora and
exhaustive objective tables.  Test modules import them by name; this is not a
``conftest`` module, so ``python -m pytest tests perfbench`` runs as one
session."""

from __future__ import annotations

from itertools import product

import numpy as np

import pagerank_select as ps
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


def fr_table(inst):
    """First return time at every point of the binary cube."""
    return {
        bits: ps.hitting_times(inst, bits).fr
        for bits in product((0, 1), repeat=inst.z_count)
    }


def random_selection(rng, z_count):
    return tuple(int(b) for b in rng.integers(0, 2, size=z_count))
