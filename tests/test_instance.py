import json
import time
from itertools import product

import numpy as np
import pytest

import pagerank_select as ps
from pagerank_select import ConstraintSet, Row
from pagerank_select.instance import instance_from_json
from pagerank_select.errors import (
    DampingRangeError,
    DimensionMismatch,
    DuplicateEdgeError,
    InfeasibleSpec,
    NodeIndexError,
    OverlapError,
    ParseError,
    TooLargeToEnumerate,
)
from helpers import build_corpus


def minimal_dict(**overrides):
    data = {
        "n": 2,
        "target": 0,
        "edges": [[0, 1], [1, 0]],
        "fragile": [],
        "damping": 0.85,
    }
    data.update(overrides)
    return data


class TestValidate:
    def test_minimal_legal_instance(self):
        inst = ps.validate(minimal_dict())
        assert inst.n == 2
        assert inst.target == 0
        assert inst.edges == frozenset({(0, 1), (1, 0)})
        assert inst.fragile == ()
        assert inst.z_count == 0

    def test_fragile_overlapping_fixed_is_rejected(self):
        with pytest.raises(OverlapError):
            ps.validate(minimal_dict(edges=[[0, 1]], fragile=[[0, 1]]))

    def test_damping_out_of_range(self):
        with pytest.raises(DampingRangeError):
            ps.validate(minimal_dict(damping=1.3))
        with pytest.raises(DampingRangeError):
            ps.validate(minimal_dict(damping=0.0))

    def test_damping_one_is_legal(self):
        assert ps.validate(minimal_dict(damping=1.0)).damping == 1.0

    def test_endpoint_out_of_range(self):
        with pytest.raises(NodeIndexError):
            ps.validate(minimal_dict(edges=[[0, 2]]))
        with pytest.raises(NodeIndexError):
            ps.validate(minimal_dict(fragile=[[-1, 0]]))

    def test_target_out_of_range(self):
        with pytest.raises(NodeIndexError):
            ps.validate(minimal_dict(target=2))

    def test_nonpositive_node_count(self):
        with pytest.raises(NodeIndexError):
            ps.validate({"n": 0, "target": 0, "edges": [], "fragile": []})

    def test_duplicate_edges(self):
        with pytest.raises(DuplicateEdgeError):
            ps.validate(minimal_dict(edges=[[0, 1], [0, 1]]))
        with pytest.raises(DuplicateEdgeError):
            ps.validate(minimal_dict(edges=[], fragile=[[0, 1], [0, 1]]))

    def test_duplicate_in_a_large_file_is_found_in_linear_time(self, tmp_path):
        # 29,995 distinct fixed edges plus one repeat: at this size a
        # quadratic duplicate count takes tens of seconds
        n = 3000
        edges = [[i, (i + k) % n] for k in range(1, 11) for i in range(n)][:29995]
        data = {"n": n, "target": 0, "edges": edges + [edges[1234]], "fragile": [[0, 20], [5, 17], [0, 20]]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        begin = time.perf_counter()
        with pytest.raises(DuplicateEdgeError) as caught:
            ps.read_instance(path)
        assert str(caught.value) == "duplicate fixed edge(s): [(1234, 1235)]"
        assert ps.validation_errors(data) == [
            "duplicate fixed edge(s): [(1234, 1235)]",
            "duplicate fragile edge(s): [(0, 20)]",
        ]
        assert time.perf_counter() - begin < 10.0

    def test_missing_field(self):
        data = minimal_dict()
        del data["target"]
        with pytest.raises(ParseError):
            ps.validate(data)

    def test_bad_types(self):
        with pytest.raises(ParseError):
            ps.validate(minimal_dict(n="2"))
        with pytest.raises(ParseError):
            ps.validate(minimal_dict(edges=[[0]]))
        with pytest.raises(ParseError):
            ps.validate(minimal_dict(edges=[[0, 1.5]]))

    def test_validation_errors_collects_everything(self):
        msgs = ps.validation_errors(
            {
                "n": 2,
                "target": 5,
                "edges": [[0, 1], [0, 1]],
                "fragile": [[0, 1]],
                "damping": 2.0,
            }
        )
        assert len(msgs) == 4  # target, duplicate, overlap, damping

    def test_validation_errors_empty_when_valid(self):
        assert ps.validation_errors(minimal_dict()) == []

    def test_accepts_existing_instance(self):
        inst = ps.validate(minimal_dict())
        assert ps.validate(inst) == inst


class TestFeasibility:
    def test_empty_constraints_accept_everything(self):
        assert ps.is_feasible(ps.EMPTY_CONSTRAINTS, (0, 1, 1))
        assert ps.is_feasible(ps.EMPTY_CONSTRAINTS, ())

    def test_cardinality_shortcut(self):
        cons = ConstraintSet(cardinality=("<=", 1))
        assert not ps.is_feasible(cons, (1, 1))
        assert ps.is_feasible(cons, (1, 0))

    def test_covering_row(self):
        cons = ConstraintSet(rows=(Row((1, 1), ">=", 1),))
        assert ps.is_feasible(cons, (0, 1))
        assert not ps.is_feasible(cons, (0, 0))

    def test_equality_row(self):
        cons = ConstraintSet(rows=(Row((1, -1), "=", 0),))
        assert ps.is_feasible(cons, (1, 1))
        assert not ps.is_feasible(cons, (1, 0))

    def test_dimension_mismatch(self):
        cons = ConstraintSet(rows=(Row((1, 1), "<=", 1),))
        with pytest.raises(DimensionMismatch):
            ps.is_feasible(cons, (1, 0, 0))


class TestEnumerate:
    def test_unconstrained_cube(self):
        points = list(ps.enumerate_feasible(ps.EMPTY_CONSTRAINTS, 2))
        assert points == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_cardinality_equals_one(self):
        cons = ConstraintSet(cardinality=("=", 1))
        assert list(ps.enumerate_feasible(cons, 2)) == [(0, 1), (1, 0)]

    def test_limit_guard(self):
        with pytest.raises(TooLargeToEnumerate):
            ps.enumerate_feasible(ps.EMPTY_CONSTRAINTS, 21)

    def test_matches_filtering_the_cube(self):
        cons = ConstraintSet(
            rows=(Row((1, 2, -1, 0), "<=", 1),), cardinality=(">=", 1)
        )
        listed = list(ps.enumerate_feasible(cons, 4))
        direct = [
            bits for bits in product((0, 1), repeat=4) if ps.is_feasible(cons, bits)
        ]
        assert listed == direct


class TestGenerator:
    def test_deterministic_for_fixed_seed(self):
        a = ps.generate_random(6, 0.3, 4, "card_le:2", seed=7)
        b = ps.generate_random(6, 0.3, 4, "card_le:2", seed=7)
        assert a == b

    def test_counting_guard(self):
        with pytest.raises(InfeasibleSpec):
            ps.generate_random(3, 0.0, 7, None, seed=0)  # 7 > 3*2

    def test_negative_fragile_count_rejected_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew a random number"))
        with pytest.raises(InfeasibleSpec, match="-2"):
            ps.generate_random(6, 0.3, -2, None, seed=0)

    def test_requested_shape(self):
        inst, cons = ps.generate_random(5, 0.3, 4, None, seed=1)
        assert inst.z_count == 4
        assert not (inst.edges & set(inst.fragile))
        assert cons.is_empty

    def test_corpus_invariants(self):
        for inst in build_corpus(15, seed0=5):
            assert not (inst.edges & set(inst.fragile))
            assert ps.validation_errors(inst) == []

    def test_constraint_specs(self):
        _, cons = ps.generate_random(5, 0.2, 3, "card_le:2", seed=0)
        assert cons.cardinality == ("<=", 2)
        _, cons = ps.generate_random(5, 0.2, 3, "cover:2", seed=0)
        assert len(cons.rows) == 1
        assert cons.rows[0].sense == ">="
        assert sum(cons.rows[0].coeffs) == 2
        with pytest.raises(ParseError):
            ps.generate_random(5, 0.2, 3, "bogus:1", seed=0)
        with pytest.raises(ParseError):
            ps.generate_random(5, 0.2, 3, "card_le", seed=0)


class TestFileRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        inst, cons = ps.generate_random(6, 0.3, 4, "card_le:2", seed=11)
        path = tmp_path / "inst.json"
        ps.write_instance(path, inst, cons)
        back_inst, back_cons = ps.read_instance(path)
        assert back_inst == inst
        assert back_cons == cons

    def test_round_trip_with_rows(self, tmp_path):
        inst = ps.validate(minimal_dict(fragile=[[1, 1]], edges=[[0, 1]]))
        cons = ConstraintSet(rows=(Row((1,), ">=", 1),), cardinality=("<=", 1))
        path = tmp_path / "inst.json"
        ps.write_instance(path, inst, cons)
        assert ps.read_instance(path) == (inst, cons)

    def test_missing_target_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "edges": [], "fragile": []}))
        with pytest.raises(ParseError):
            ps.read_instance(path)

    def test_overlap_surfaces_from_validate(self, tmp_path):
        path = tmp_path / "overlap.json"
        path.write_text(
            json.dumps(minimal_dict(edges=[[0, 1]], fragile=[[0, 1]]))
        )
        with pytest.raises(OverlapError):
            ps.read_instance(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            ps.read_instance(path)

    def test_constraint_row_length_checked(self, tmp_path):
        data = minimal_dict(fragile=[[1, 1]], edges=[[0, 1]])
        data["constraints"] = {"rows": [{"coeffs": [1, 1], "sense": "<=", "rhs": 1}]}
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError):
            ps.read_instance(path)


def row(**fields):
    return {"rows": [{"coeffs": [1, 1], "sense": "<=", "rhs": 1, **fields}]}


def card(k):
    return {"cardinality": {"sense": "<=", "k": k}}


# Malformed instance files: (top-level fields to set, a field name the
# ParseError must give).  Floats and bools where integers are expected are
# rejected, not truncated.
MALFORMED = [
    pytest.param({"edges": 5}, '"edges"', id="edges-not-a-list"),
    pytest.param({"fragile": 5}, '"fragile"', id="fragile-not-a-list"),
    pytest.param({"constraints": {"rows": 5}}, '"rows"', id="rows-not-a-list"),
    pytest.param({"constraints": {"rows": [5]}}, "constraint row 0", id="row-not-an-object"),
    pytest.param({"constraints": row(coeffs=1)}, '"coeffs"', id="coeffs-not-a-list"),
    pytest.param({"constraints": row(coeffs=[0.5, 1])}, '"coeffs"', id="coeffs-float"),
    pytest.param({"constraints": row(coeffs=[True, 1])}, '"coeffs"', id="coeffs-bool"),
    pytest.param({"constraints": row(rhs=1.5)}, '"rhs"', id="rhs-float"),
    pytest.param({"constraints": row(rhs=True)}, '"rhs"', id="rhs-bool"),
    pytest.param({"constraints": card(None)}, '"k"', id="k-null"),
    pytest.param({"constraints": card(2.7)}, '"k"', id="k-float"),
    pytest.param({"constraints": card(True)}, '"k"', id="k-bool"),
]


def malformed_dict(fields):
    return {**minimal_dict(n=3, edges=[[0, 1], [1, 2]], fragile=[[2, 0], [1, 0]]), **fields}


class TestMalformedFields:
    @pytest.mark.parametrize("fields, named", MALFORMED)
    def test_parse_error_names_the_field(self, fields, named):
        with pytest.raises(ParseError, match=named):
            instance_from_json(malformed_dict(fields))


class TestSelectionHelpers:
    def test_support(self):
        assert ps.support((1, 0, 1)) == frozenset({0, 2})
        assert ps.support(()) == frozenset()

    def test_from_support(self):
        assert ps.from_support({0, 2}, 3) == (1, 0, 1)
        assert ps.from_support([], 2) == (0, 0)
