import json
import math
import re
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest

import pagerank_select as ps
from pagerank_select import ConstraintSet, Row, chain, oracle
from pagerank_select.instance import check_selection, instance_from_json, instance_to_json, parse_constraint_spec
from pagerank_select.errors import (
    DampingRangeError,
    DimensionMismatch,
    DuplicateEdgeError,
    InfeasibleSpec,
    NodeIndexError,
    OverlapError,
    ParseError,
)
from helpers import build_corpus

INTP_MAX = int(np.iinfo(np.intp).max)


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
        with pytest.raises(ParseError, match="expected a mapping or an Instance, got int"):
            ps.validate(42)

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


    def test_validation_errors_include_the_constraints(self):
        data = minimal_dict(target=5, fragile=[[1, 1]], edges=[[0, 1]])
        data["constraints"] = {"rows": [{"coeffs": [1], "sense": "<=", "rhs": 1.5}]}
        assert ps.validation_errors(data) == [
            "target 5 outside [0, 2)",
            'constraint row 0 "rhs" must be an integer, got 1.5',
        ]


class TestValidateInstance:
    """validate of an Instance checks its edges as arrays; the messages name
    the first violation as they always have, fixed edges in sorted order."""

    def test_out_of_range_edges(self):
        inst = ps.Instance(n=3, target=0, edges=frozenset({(2, 5), (0, 1), (-1, 2)}), fragile=((1, 3),))
        with pytest.raises(NodeIndexError) as caught:
            ps.validate(inst)
        assert str(caught.value) == "fixed edge (-1, 2) has an endpoint outside [0, 3)"
        assert ps.validation_errors(inst) == [
            "fixed edge (-1, 2) has an endpoint outside [0, 3)",
            "fixed edge (2, 5) has an endpoint outside [0, 3)",
            "fragile edge (1, 3) has an endpoint outside [0, 3)",
        ]

    def test_endpoint_too_large_for_an_array(self):
        big = 10**30
        with pytest.raises(NodeIndexError, match=f"fixed edge \\(0, {big}\\)"):
            ps.validate(ps.Instance(n=3, target=0, edges=frozenset({(0, 1), (0, big)}), fragile=()))
        with pytest.raises(NodeIndexError, match=f"fragile edge \\({big}, 1\\)"):
            ps.validate(minimal_dict(fragile=[[big, 1]]))

    def test_overlap(self):
        inst = ps.Instance(n=3, target=0, edges=frozenset({(1, 2), (0, 1)}), fragile=((1, 2), (2, 0), (0, 1)))
        with pytest.raises(OverlapError) as caught:
            ps.validate(inst)
        assert str(caught.value) == "edge(s) listed as both fixed and fragile: [(0, 1), (1, 2)]"

    def test_edge_array_is_sorted(self):
        for n, density, seed in [(30, 0.1, 4), (40, 0.1, 0), (300, 0.02, 1)]:
            inst, _ = ps.generate_random(n, density, 3, None, seed=seed)
            assert inst.edge_array.tolist() == [list(e) for e in sorted(inst.edges)]

    def test_edge_array_is_sorted_where_a_source_major_key_wraps(self, tmp_path):
        # source * n + target passes 2**63 here
        n = 2**40
        inst = ps.Instance(n=n, target=0, edges=frozenset({(n - 1, 0), (0, 1), (n - 2, 5)}), fragile=())
        assert inst.edge_array.tolist() == [[0, 1], [n - 2, 5], [n - 1, 0]]
        ps.write_instance(tmp_path / "wide.json", inst)
        assert json.loads((tmp_path / "wide.json").read_text())["edges"] == [[0, 1], [n - 2, 5], [n - 1, 0]]

    FIELDS = dict(n=3, target=0, edges=frozenset({(0, 1), (1, 2)}), fragile=((2, 0),))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n", 3.0, '"n" must be an integer, got 3.0'),
            ("target", 1.0, '"target" must be an integer, got 1.0'),
            ("fragile", ((2, 0.5),), '"fragile" endpoints must be integers, got (2, 0.5)'),
            ("edges", frozenset({(0, 1), (1.0, 2)}), '"edges" endpoints must be integers, got (1.0, 2)'),
        ],
    )
    def test_a_float_id_is_refused_as_the_file_reader_refuses_it(self, tmp_path, field, value, message):
        self.assert_refused_everywhere(tmp_path, ps.Instance(**{**self.FIELDS, field: value}), message)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("edges", frozenset({(0, 1), (0, 1, 2)}), '"edges" entries must be [i, j] pairs, got (0, 1, 2)'),
            ("fragile", ((2, 0, 1), (1, 0, 2)), '"fragile" entries must be [i, j] pairs, got (2, 0, 1)'),
            ("edges", frozenset({(0, 1), (1,)}), '"edges" entries must be [i, j] pairs, got (1,)'),
            # four ids in all, as two pairs would have
            ("fragile", ((0, 1, 2), (2,)), '"fragile" entries must be [i, j] pairs, got (0, 1, 2)'),
        ],
    )
    def test_an_entry_that_is_no_pair_is_refused_as_the_file_reader_refuses_it(self, tmp_path, field, value, message):
        self.assert_refused_everywhere(tmp_path, ps.Instance(**{**self.FIELDS, field: value}), message)

    def test_fixed_entries_that_are_no_pairs_are_refused_whatever_their_order(self):
        inst = ps.Instance(**{**self.FIELDS, "edges": frozenset({(0, 1, 2), (2,)})})
        with pytest.raises(ParseError, match=r'^"edges" entries must be \[i, j\] pairs, got \((0, 1, 2|2,)\)$'):
            ps.validate(inst)

    @staticmethod
    def assert_refused_everywhere(tmp_path, inst, message, error=ParseError, in_file=True):
        """validate and validation_errors refuse ``inst`` and the dict of its
        fields with ``error`` and ``message``; the evaluators, write_instance
        and, when ``in_file``, the file reader refuse it with ``error``, the
        file reader with ``message`` too when JSON gives the entries back as
        they were."""
        data = {"n": inst.n, "target": inst.target, "edges": list(inst.edges), "fragile": list(inst.fragile)}
        for raw in (inst, data):
            with pytest.raises(error) as raised:
                ps.validate(raw)
            assert str(raised.value) == message
            assert ps.validation_errors(raw) == [message]
        with pytest.raises(error):
            ps.hitting_times(inst, (0,) * inst.z_count)  # no walk on truncated ids
        with pytest.raises(error):
            ps.write_instance(tmp_path / "written.json", inst)
        assert not (tmp_path / "written.json").exists()
        if not in_file:
            return
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        with pytest.raises(error) as raised:
            ps.read_instance(path)
        if json.loads(path.read_text()) == data:  # a tuple comes back as a list, and prints as one
            assert str(raised.value) == message

    # Entry forms for the one edge reader, each the fragile edge of FIELDS,
    # written as JSON reads it back: (entry, error, message of every reader)
    ENTRY_FORMS = [
        pytest.param([True, 2], ParseError, '"fragile" endpoints must be integers, got [True, 2]', id="bool-source"),
        pytest.param([2, False], ParseError, '"fragile" endpoints must be integers, got [2, False]', id="bool-target"),
        pytest.param("ab", ParseError, '"fragile" entries must be [i, j] pairs, got \'ab\'', id="string"),
        pytest.param(5, ParseError, '"fragile" entries must be [i, j] pairs, got 5', id="integer"),
        pytest.param({"i": 2, "j": 0}, ParseError, "\"fragile\" entries must be [i, j] pairs, got {'i': 2, 'j': 0}",
                     id="dict"),
        pytest.param([0, 1, 2], ParseError, '"fragile" entries must be [i, j] pairs, got [0, 1, 2]', id="triple"),
        pytest.param([1], ParseError, '"fragile" entries must be [i, j] pairs, got [1]', id="single"),
        pytest.param([2, 0.5], ParseError, '"fragile" endpoints must be integers, got [2, 0.5]', id="float"),
        pytest.param([2, 10**30], NodeIndexError, f"fragile edge (2, {10**30}) has an endpoint outside [0, 3)",
                     id="past-intp"),
    ]

    @pytest.mark.parametrize("entry, error, message", ENTRY_FORMS)
    def test_every_entry_form_gets_one_verdict(self, tmp_path, entry, error, message):
        self.assert_refused_everywhere(tmp_path, ps.Instance(**{**self.FIELDS, "fragile": (entry,)}), message, error)

    @pytest.mark.parametrize("entry", [(True, 2), (2, False)])
    def test_a_bool_endpoint_is_refused_as_the_file_reader_refuses_it(self, tmp_path, entry):
        inst = ps.Instance(**{**self.FIELDS, "edges": frozenset({(0, 1), entry})})
        self.assert_refused_everywhere(tmp_path, inst, f'"edges" endpoints must be integers, got {entry!r}')

    def test_an_array_entry_is_refused(self, tmp_path):
        inst = ps.Instance(**{**self.FIELDS, "fragile": (np.array([2, 0]),)})
        message = '"fragile" entries must be [i, j] pairs, got array([2, 0])'
        self.assert_refused_everywhere(tmp_path, inst, message, in_file=False)

    def test_a_list_entry_reads_as_its_pair(self):
        as_list = ps.Instance(**{**self.FIELDS, "fragile": ([2, 0],)})
        assert ps.validate(as_list) is as_list
        assert ps.validation_errors(as_list) == []
        assert as_list.fragile_array.tolist() == [[2, 0]]
        as_tuple = ps.Instance(**self.FIELDS)
        assert ps.hitting_times(as_list, (1,)).fr == ps.hitting_times(as_tuple, (1,)).fr
        repeated = ps.Instance(**{**self.FIELDS, "fragile": ([2, 0], (2, 0))})
        assert ps.validation_errors(repeated) == ["duplicate fragile edge(s): [(2, 0)]"]

    @pytest.mark.parametrize("n", [INTP_MAX + 1, 2**80])
    def test_a_node_count_past_intp_is_refused(self, tmp_path, n):
        # before any array of ids is built: edge_array and write_instance
        # raised a bare TypeError on such an instance
        inst = ps.Instance(n=n, target=0, edges=frozenset({(2**70, 1)}), fragile=())
        data = {"n": n, "target": 0, "edges": [[2**70, 1]], "fragile": []}
        message = f"node count {n} does not fit in intp (at most {INTP_MAX})"
        for raw in (inst, data):
            with pytest.raises(NodeIndexError) as raised:
                ps.validate(raw)
            assert str(raised.value) == message
            assert ps.validation_errors(raw) == [message]
        with pytest.raises(NodeIndexError, match=re.escape(message)):
            ps.write_instance(tmp_path / "written.json", inst)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        with pytest.raises(NodeIndexError, match=re.escape(message)):
            ps.read_instance(path)

    def test_the_largest_intp_node_count_validates(self):
        n = INTP_MAX
        inst = ps.Instance(n=n, target=n - 1, edges=frozenset({(n - 1, 0)}), fragile=((0, n - 1),))
        assert ps.validation_errors(inst) == []

    def test_float_endpoint_is_refused_before_the_node_count(self):
        inst = ps.Instance(**{**self.FIELDS, "n": 0, "fragile": ((2, 0.5),)})
        with pytest.raises(ParseError, match="endpoints must be integers"):
            ps.validate(inst)

    @pytest.mark.parametrize("damping", ["0.5", None, True, np.float32(0.85)])
    def test_damping_follows_the_file_readers_rule(self, damping):
        message = f'"damping" must be a number, got {damping!r}'
        inst = ps.Instance(**self.FIELDS, damping=damping)
        with pytest.raises(ParseError, match=re.escape(message)):
            ps.validate(inst)
        assert ps.validation_errors(inst) == [message]
        with pytest.raises(ParseError, match=re.escape(message)):
            ps.hitting_times(inst, (0,))
        if not isinstance(damping, np.floating):  # no JSON value
            assert ps.validation_errors(minimal_dict(damping=damping)) == [message]

    @pytest.mark.parametrize("damping", [1, 0.5, np.float64(0.85)])
    def test_python_ints_and_floats_are_dampings(self, damping):
        inst = ps.Instance(**self.FIELDS, damping=damping)
        assert ps.validate(inst) is inst
        assert ps.hitting_times(inst, (0,)).fr == ps.hitting_times(ps.Instance(**self.FIELDS, damping=float(damping)), (0,)).fr

    def test_numpy_integer_ids_still_validate(self):
        i = np.int64
        inst = ps.Instance(n=i(3), target=i(0), edges=frozenset({(i(0), i(1)), (1, 2)}), fragile=((i(2), 0),))
        assert ps.validate(inst) is inst
        assert inst.edge_array.tolist() == [[0, 1], [1, 2]]


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

    @pytest.mark.parametrize(
        "args, message",
        [
            ((6, math.nan, 2), "fixed edge density must lie in [0, 1], got nan"),
            ((6, -3.0, 2), "fixed edge density must lie in [0, 1], got -3.0"),
            ((6, 1.5, 2), "fixed edge density must lie in [0, 1], got 1.5"),
            ((10.0, 0.3, 2), "node count must be an integer, got 10.0"),
            ((True, 0.3, 0), "node count must be an integer, got True"),
            ((10, 0.3, 2.0), "fragile edge count must be an integer, got 2.0"),
            ((10, 0.3, "2"), "fragile edge count must be an integer, got '2'"),
        ],
    )
    def test_arguments_are_checked_before_any_draw(self, monkeypatch, args, message):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew a random number"))
        with pytest.raises(InfeasibleSpec) as caught:
            ps.generate_random(*args, None, seed=0)
        assert str(caught.value) == message

    def test_numpy_integer_counts_give_the_same_instance(self):
        plain = ps.generate_random(12, 0.3, 4, "card_le:2", seed=7)
        assert ps.generate_random(np.int64(12), np.float64(0.3), np.int32(4), "card_le:2", seed=7) == plain
        assert ps.generate_random(12, 0, 4, None, seed=7)[0] == ps.generate_random(12, 0.0, 4, None, seed=7)[0]

    @pytest.mark.parametrize(
        "spec, constraints",
        [
            (None, ConstraintSet()),
            ("none", ConstraintSet()),
            ("card_le:2", ConstraintSet(cardinality=("<=", 2))),
            ("card_ge:0", ConstraintSet(cardinality=(">=", 0))),
            ("card_eq:3", ConstraintSet(cardinality=("=", 3))),
            ("card_le:-1", ConstraintSet(cardinality=("<=", -1))),
            ("cover:2", ConstraintSet(rows=(Row((0, 1, 1), ">=", 1),))),
        ],
    )
    def test_constraint_spec_compiles_to(self, spec, constraints):
        assert parse_constraint_spec(spec, 3, np.random.default_rng(0)) == constraints

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("card_le", "constraint spec 'card_le' is missing its :K argument"),
            ("card_ge:x", "constraint spec argument must be an integer, got 'x'"),
            ("card_lt:2", "unknown constraint spec 'card_lt:2'"),
            ("CARD_LE:2", "unknown constraint spec 'CARD_LE:2'"),
            ("cover:4", "cover size 4 outside [1, 3]"),
        ],
    )
    def test_constraint_spec_refused_with_its_message(self, spec, message):
        with pytest.raises(ParseError) as caught:
            parse_constraint_spec(spec, 3, np.random.default_rng(0))
        assert str(caught.value) == message


# generate_random's output, recorded from the tuple-per-pair generator it
# replaced: (n, density, fragile count, spec, seed) -> (target, list(edges)
# in iteration order, fragile, constraints).  The edge order is pinned too,
# since the walk factor and the greedy's sums follow it.
GOLDEN = {
    (6, 0.3, 4, "card_le:2", 7): (
        1,
        [(4, 0), (1, 2), (0, 4), (2, 1), (4, 3), (2, 3), (4, 5), (4, 1)],
        ((2, 4), (1, 5), (1, 3), (5, 4)),
        ConstraintSet(cardinality=("<=", 2)),
    ),
    (6, 1.0, 0, None, 1): (
        2,
        [(4, 0), (3, 4), (4, 3), (3, 1), (5, 4), (5, 1), (0, 2), (0, 5), (1, 0), (2, 5), (1, 3), (4, 2), (3, 0),
         (4, 5), (5, 0), (5, 3), (0, 1), (2, 4), (1, 2), (0, 4), (2, 1), (1, 5), (3, 2), (4, 1), (3, 5), (5, 2),
         (0, 3), (2, 0), (1, 4), (2, 3)],
        (),
        ConstraintSet(),
    ),
    (6, 0.0, 5, "cover:2", 3): (
        1,
        [],
        ((2, 4), (2, 0), (3, 4), (1, 3), (0, 3)),
        ConstraintSet(rows=(Row(coeffs=(0, 0, 1, 1, 0), sense=">=", rhs=1),)),
    ),
    (12, 0.15, 6, "cover:3", 11): (
        0,
        [(4, 3), (4, 9), (8, 0), (0, 5), (9, 11), (0, 8), (2, 11), (2, 8), (6, 8), (5, 6), (5, 3), (5, 9), (9, 1),
         (8, 11), (10, 2), (0, 1), (0, 7), (10, 11), (0, 4), (11, 10), (6, 7), (3, 2), (4, 10), (3, 8), (11, 0),
         (9, 6), (10, 7), (1, 4), (7, 11), (11, 6), (6, 0), (6, 3)],
        ((1, 2), (6, 10), (11, 5), (1, 3), (8, 1), (10, 5)),
        ConstraintSet(rows=(Row(coeffs=(0, 0, 1, 0, 1, 1), sense=">=", rhs=1),)),
    ),
    (12, 0.2, 0, None, 2): (
        0,
        [(5, 4), (4, 6), (5, 7), (8, 0), (5, 10), (10, 0), (1, 0), (0, 8), (1, 9), (2, 8), (7, 10), (4, 5), (5, 6),
         (5, 9), (9, 7), (8, 5), (8, 11), (0, 7), (10, 11), (0, 4), (2, 7), (7, 3), (8, 1), (8, 10), (10, 1),
         (10, 7), (6, 0), (7, 8)],
        (),
        ConstraintSet(),
    ),
    (40, 0.02, 8, "card_ge:2", 5): (
        22,
        [(13, 30), (0, 30), (15, 21), (24, 30), (7, 23), (14, 4), (25, 29), (34, 4), (39, 18), (39, 27), (35, 39),
         (29, 35), (20, 32), (3, 13), (5, 10), (7, 38), (8, 3), (30, 18), (19, 15), (2, 11), (10, 18), (18, 7),
         (6, 14), (0, 32), (11, 32), (2, 35), (13, 35), (21, 12), (29, 37), (39, 35), (29, 34), (11, 7), (22, 31),
         (35, 4), (27, 33), (24, 22), (18, 21), (24, 37), (13, 34), (29, 30), (4, 25), (15, 0), (1, 10), (30, 37),
         (20, 2)],
        ((38, 4), (16, 26), (2, 16), (35, 31), (25, 14), (38, 25), (23, 16), (4, 17)),
        ConstraintSet(cardinality=(">=", 2)),
    ),
}

# Specs the generator refuses, with the exact message.
REFUSED = [
    ((6, 1.0, 1, None, 0), InfeasibleSpec, "1 fragile edges requested but only 0 non-edges remain"),
    ((3, 0.0, 7, None, 0), InfeasibleSpec, "7 fragile edges requested but only 6 ordered pairs exist"),
    ((6, 0.3, -1, None, 0), InfeasibleSpec, "fragile edge count must be nonnegative, got -1"),
    ((12, 0.95, 10, None, 4), InfeasibleSpec, "10 fragile edges requested but only 8 non-edges remain"),
    ((0, 0.5, 0, None, 0), NodeIndexError, "node count must be positive, got 0"),
    ((6, 0.3, 0, "cover:1", 0), ParseError, "cover constraint needs at least one fragile edge"),
]


def tuple_per_pair_generate(n, density, z_count, seed):
    """The generator's draws with one Python tuple per ordered pair: the
    reference for the array version.  Returns (fixed edges in insertion
    order, fragile edges, target), or None when too few non-edges remain."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    mask = rng.random(len(pairs)) < density
    non_edges = [p for p, hit in zip(pairs, mask) if not hit]
    if z_count > len(non_edges):
        return None
    picks = rng.choice(len(non_edges), size=z_count, replace=False) if z_count else []
    fragile = tuple(non_edges[int(k)] for k in picks)
    return [p for p, hit in zip(pairs, mask) if hit], fragile, int(rng.integers(n))


class TestGeneratorGolden:
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 60])
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
    def test_matches_the_tuple_per_pair_reference(self, n, density):
        for z_count, seed in product((0, 1, 4), (0, 1, 2)):
            expected = tuple_per_pair_generate(n, density, z_count, seed)
            if expected is None:
                with pytest.raises(InfeasibleSpec):
                    ps.generate_random(n, density, z_count, None, seed=seed)
                continue
            inst, _ = ps.generate_random(n, density, z_count, None, seed=seed)
            edges, fragile, target = expected
            assert list(inst.edges) == list(frozenset(edges))
            assert (inst.fragile, inst.target) == (fragile, target)

    @pytest.mark.parametrize("spec", list(GOLDEN), ids=str)
    def test_same_instance_as_recorded(self, spec):
        n, density, z_count, constraint, seed = spec
        inst, cons = ps.generate_random(n, density, z_count, constraint, seed=seed)
        target, edges, fragile, constraints = GOLDEN[spec]
        assert (inst.n, inst.target, inst.damping) == (n, target, 0.85)
        assert list(inst.edges) == edges
        assert inst.fragile == fragile
        assert cons == constraints

    @pytest.mark.parametrize("spec, error, message", REFUSED, ids=[str(r[0]) for r in REFUSED])
    def test_refused_with_the_recorded_message(self, spec, error, message):
        n, density, z_count, constraint, seed = spec
        with pytest.raises(error) as caught:
            ps.generate_random(n, density, z_count, constraint, seed=seed)
        assert str(caught.value) == message

    @pytest.mark.parametrize("damping", [True, np.float32(0.85), "0.5"])
    def test_damping_follows_the_file_readers_rule(self, damping):
        with pytest.raises(ParseError) as caught:
            ps.generate_random(6, 0.3, 4, None, seed=42, damping=damping)
        assert str(caught.value) == f'"damping" must be a number, got {damping!r}'

    def test_memory_per_ordered_pair(self):
        # A float and a bit per ordered pair, plus the edges drawn: at most
        # 32 bytes per pair.  A Python tuple per pair costs about 100.
        n = 1000
        tracemalloc.start()
        try:
            ps.generate_random(n, 0.02, 10, None, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (n * (n - 1)) <= 32


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

    def test_written_file_is_the_json_of_the_instance(self, tmp_path):
        inst, cons = ps.generate_random(30, 0.1, 5, "cover:2", seed=3)
        path = tmp_path / "inst.json"
        ps.write_instance(path, inst, cons)
        with open(path) as fh:
            assert json.load(fh) == instance_to_json(inst, cons)
        assert ps.read_instance(path) == (inst, cons)

    def test_one_top_level_field_per_line(self, tmp_path):
        inst, cons = ps.generate_random(6, 0.3, 2, "card_le:1", seed=1)
        path = tmp_path / "inst.json"
        ps.write_instance(path, inst, cons)
        lines = path.read_text().splitlines()
        keys = ["n", "target", "edges", "fragile", "damping", "constraints"]
        assert lines[0] == "{" and lines[-1] == "}"
        assert [line.split(":")[0] for line in lines[1:-1]] == [f'  "{key}"' for key in keys]

    def test_indented_files_still_load(self, tmp_path):
        inst, cons = ps.generate_random(8, 0.3, 3, "cover:1", seed=2)
        path = tmp_path / "indented.json"
        path.write_text(json.dumps(instance_to_json(inst, cons), indent=2) + "\n")
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
    pytest.param({"constraints": 5}, '"constraints"', id="constraints-not-an-object"),
    pytest.param({"constraints": {"rows": [{"coeffs": [1, 1], "sense": "<="}]}}, "rhs", id="row-without-rhs"),
    pytest.param({"constraints": {"cardinality": {"sense": "<="}}}, '"cardinality"', id="cardinality-without-k"),
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


# API-built constraint sets on 3 fragile edges that the row check rejects,
# with a field its ParseError names
BAD_ROWS = [
    pytest.param(ConstraintSet(rows=(Row((0.5, 0.5, 0.5), ">=", 1),)), '"coeffs"', id="half-coefficients"),
    pytest.param(ConstraintSet(rows=(Row((True, 0, 1), ">=", 1),)), '"coeffs"', id="bool-coefficient"),
    pytest.param(ConstraintSet(rows=(Row((1, 0, 1), ">=", 1.0),)), '"rhs"', id="float-bound"),
    pytest.param(ConstraintSet(cardinality=("<=", 1.5)), '"k"', id="float-cardinality"),
    pytest.param(ConstraintSet(cardinality=("<>", 1)), "cardinality sense '<>' unknown", id="unknown-cardinality-sense"),
    pytest.param(ConstraintSet(rows=(Row((1, 0, 1), "<=", 2**60),)), "2\\*\\*53", id="bound-2**60"),
]


class TestOneRowVerdict:
    """Rows are checked in one place, so the master, the twins and the file
    reader give one verdict on every row."""

    @pytest.mark.parametrize("cons, named", BAD_ROWS)
    def test_every_consumer_rejects_the_row(self, cons, named):
        inst, _ = ps.generate_random(8, 0.3, 3, None, seed=3)
        with pytest.raises(ParseError, match=named):
            ps.solve(inst, cons)
        with pytest.raises(ParseError, match=named):
            ps.bf_min(inst, cons)
        with pytest.raises(ParseError, match=named):
            list(ps.enumerate_feasible(cons, 3))
        with pytest.raises(ParseError, match=named):
            ps.is_feasible(cons, 3, (1, 0, 1))
        with pytest.raises(ParseError, match=named):
            instance_from_json(instance_to_json(inst, cons))

    def test_numpy_integers_are_integers(self):
        inst, _ = ps.generate_random(8, 0.3, 3, None, seed=3)
        as_numpy = ConstraintSet(rows=(Row(tuple(np.int64(c) for c in (1, 0, 1)), ">=", np.int64(1)),))
        plain = ConstraintSet(rows=(Row((1, 0, 1), ">=", 1),))
        assert ps.solve(inst, as_numpy) == ps.solve(inst, plain)
        assert ps.bf_min(inst, as_numpy) == ps.bf_min(inst, plain)


class TestMalformedFields:
    @pytest.mark.parametrize("fields, named", MALFORMED)
    def test_parse_error_names_the_field(self, fields, named):
        with pytest.raises(ParseError, match=named):
            instance_from_json(malformed_dict(fields))


class TestEdgeListPairs:
    """Every entry of an edge list goes through the per-entry check: well-formed
    pairs are read as pairs, anything else is rejected with its message."""

    @pytest.mark.parametrize(
        "edges",
        [
            [[0, 1], [1, 2]],
            [(0, 1), (1, 2)],
            [[0, 1], (1, 2)],
            [],
        ],
    )
    def test_well_formed_lists_read_as_pairs(self, edges):
        inst, _ = instance_from_json(malformed_dict({"edges": edges}))
        assert inst.edges == frozenset((int(i), int(j)) for i, j in edges)

    def test_list_subclasses_and_int_subclasses_still_accepted(self):
        class Pair(tuple):
            pass

        class Id(int):
            pass

        inst, _ = instance_from_json(malformed_dict({"edges": [[0, 1], Pair((1, 2)), [Id(2), 1]]}))
        assert inst.edges == frozenset({(0, 1), (1, 2), (2, 1)})

    def test_numpy_integer_endpoints_read_as_in_an_instance(self):
        i = np.int64
        inst, _ = instance_from_json(malformed_dict({"edges": [[i(0), 1], [1, i(2)]], "fragile": [[i(2), i(0)]]}))
        assert inst.edges == frozenset({(0, 1), (1, 2)}) and inst.fragile == ((2, 0),)
        assert all(type(v) is int for edge in (*inst.edges, *inst.fragile) for v in edge)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([1, 2, 3], "entries must be [i, j] pairs"),
            ("ab", "entries must be [i, j] pairs"),
            ({1, 2}, "entries must be [i, j] pairs"),
            ([1, True], "endpoints must be integers"),
            ([1.0, 2], "endpoints must be integers"),
            ([np.True_, 2], "endpoints must be integers"),
            ([1, np.float64(2.0)], "endpoints must be integers"),
        ],
    )
    @pytest.mark.parametrize("field", ["edges", "fragile"])
    @pytest.mark.parametrize("where", [0, -1])
    def test_bad_entry_anywhere_raises_the_per_entry_message(self, bad, message, field, where):
        entries = [[0, 1], [1, 2], [2, 1]] if field == "edges" else [[2, 0], [1, 0]]
        entries.insert(len(entries) if where == -1 else 0, bad)
        with pytest.raises(ParseError) as raised:
            instance_from_json(malformed_dict({field: entries}))
        assert str(raised.value) == f'"{field}" {message}, got {bad!r}'


class TestSelectionHelpers:
    def test_support(self):
        assert ps.support((1, 0, 1)) == frozenset({0, 2})
        assert ps.support(()) == frozenset()

    def test_from_support(self):
        assert ps.from_support({0, 2}, 3) == (1, 0, 1)
        assert ps.from_support([], 2) == (0, 0)


def _profile(p):
    return p.h.tobytes(), p.fr.hex()


# Every public function that takes a selection, as (name, call), each call
# made with the instance of selection_case and a selection; the result is
# reduced to something whose equality is bitwise equality.
SELECTION_TAKERS = [
    ("hitting_times", lambda c, y: _profile(ps.hitting_times(c.inst, y))),
    ("low_rank_hitting_times", lambda c, y: _profile(chain.low_rank_hitting_times(c.walk, y))),
    ("transition_matrix", lambda c, y: chain.transition_matrix(c.inst, y).tobytes()),
    ("stationary", lambda c, y: chain.stationary(c.inst, y).tobytes()),
    ("Memo.evaluate", lambda c, y: repr(oracle.Memo(c.inst).evaluate(y))),
    ("l_shaped_cut", lambda c, y: ps.l_shaped_cut(c.inst, y, 0.0).to_json()),
    ("new_cut", lambda c, y: ps.new_cut(c.inst, y).to_json()),
    ("lifted_cut", lambda c, y: ps.lifted_cut(c.inst, y, ps.LiftOrdering((2, 1))).to_json()),
    ("make_lift_ordering", lambda c, y: ps.make_lift_ordering(c.inst, y, ps.BY_GAMMA)),
    ("eval_cut", lambda c, y: ps.eval_cut(c.cut, y).hex()),
    ("is_feasible", lambda c, y: ps.is_feasible(c.cons, c.inst.z_count, y)),
    ("compiled_rows.admits", lambda c, y: c.cons.compiled_rows(3).admits(y)),
    ("bf_exact_lift", lambda c, y: ps.bf_exact_lift(c.inst, c.cons, y, (2, 1), [], 1).hex()),
    ("support", lambda c, y: ps.support(y)),
]

# One selection, (1, 0, 0), in every form the rule accepts
GOOD_FORMS = [
    pytest.param([1, 0, 0], id="list"),
    pytest.param((True, False, False), id="bools"),
    pytest.param(tuple(np.array([1, 0, 0], dtype=np.int64)), id="numpy-ints"),
    pytest.param(np.array([1, 0, 0], dtype=bool), id="numpy-bool-array"),
    pytest.param((1.0, 0.0, 0.0), id="floats"),
]

BAD_FORMS = [
    pytest.param((0.5, 0, 0), id="half"),
    pytest.param((2, 0, 0), id="two"),
    pytest.param((-1, 0, 0), id="minus-one"),
    pytest.param(("x", 0, 0), id="string"),
    pytest.param((math.nan, 0, 0), id="nan"),
    pytest.param(([0], 0, 0), id="unhashable"),
    pytest.param((0, 0), id="too-short"),
    pytest.param((0, 0, 0, 0), id="too-long"),
]


class _Case:
    def __init__(self):
        self.inst, _ = ps.generate_random(8, 0.3, 3, None, seed=3)
        self.cons = ConstraintSet(cardinality=("<=", 1))
        self.walk = chain.factor_walk(self.inst)
        self.cut = ps.new_cut(self.inst, (0, 1, 0))


@pytest.fixture(scope="module")
def selection_case():
    return _Case()


class TestOneSelectionRule:
    """instance.check_selection is the one selection rule: every function
    that takes a selection accepts exactly the same inputs and gives one
    answer for every form of a selection."""

    @pytest.mark.parametrize("name, call", SELECTION_TAKERS, ids=[name for name, _ in SELECTION_TAKERS])
    @pytest.mark.parametrize("y", GOOD_FORMS)
    def test_every_form_gives_the_int_tuple_answer(self, selection_case, name, call, y):
        assert call(selection_case, y) == call(selection_case, (1, 0, 0))

    @pytest.mark.parametrize(
        "call, y",
        [
            pytest.param(call, form.values[0], id=f"{name}-{form.id}")
            for name, call in SELECTION_TAKERS
            for form in BAD_FORMS
            if name != "support" or len(form.values[0]) == 3  # support takes its arity from y
        ],
    )
    def test_every_bad_selection_raises(self, selection_case, call, y):
        with pytest.raises(DimensionMismatch):
            call(selection_case, y)

    def test_the_rule(self):
        assert check_selection(3, np.array([True, False, True])) == (1, 0, 1)
        assert all(type(b) is int for b in check_selection(2, (np.True_, 1.0)))
        assert check_selection(0, ()) == ()
        with pytest.raises(DimensionMismatch):
            check_selection(1, 1)

    def test_a_memo_holds_one_entry_per_selection(self, selection_case):
        memo = oracle.Memo(selection_case.inst)
        first = memo.evaluate((1, 0, 0))
        for form in GOOD_FORMS:
            assert memo.evaluate(form.values[0]) is first

    @pytest.mark.parametrize("edge_id", [-1, 3, True, 1.5])
    def test_edge_ids_follow_the_forced_id_rule(self, selection_case, edge_id):
        with pytest.raises(DimensionMismatch):
            ps.construction_coefficient(selection_case.cut, edge_id)
        with pytest.raises(DimensionMismatch):
            ps.from_support({edge_id}, 3)


class TestWriterAppliesTheReadersRules:
    @pytest.mark.parametrize(
        "cons",
        [
            pytest.param(ConstraintSet(rows=(Row((0.5, 0.5, 0.5), ">=", 1),)), id="half-row"),
            pytest.param(ConstraintSet(rows=(Row((1, 1), "<=", 1),)), id="short-row"),
            pytest.param(ConstraintSet(cardinality=("<=", True)), id="bool-cardinality"),
        ],
    )
    def test_a_row_the_reader_refuses_is_not_written(self, tmp_path, cons):
        inst, _ = ps.generate_random(8, 0.3, 3, None, seed=3)
        path = tmp_path / "inst.json"
        with pytest.raises(ParseError):
            ps.write_instance(path, inst, cons)
        assert not path.exists()

    def test_numpy_integers_round_trip(self, tmp_path):
        inst, _ = ps.generate_random(8, 0.3, 3, None, seed=3)
        as_numpy = ps.Instance(
            n=np.int64(inst.n),
            target=np.int64(inst.target),
            edges=inst.edges,
            fragile=tuple(tuple(np.int64(e) for e in edge) for edge in inst.fragile),
            damping=inst.damping,
        )
        cons = ConstraintSet(
            rows=(Row(tuple(np.ones(3, dtype=np.int64)), "<=", np.int64(2)),), cardinality=(">=", np.int64(1))
        )
        path = tmp_path / "inst.json"
        ps.write_instance(path, as_numpy, cons)
        back_inst, back_cons = ps.read_instance(path)
        assert (back_inst, back_cons) == (inst, cons)
        assert type(back_inst.n) is int and type(back_cons.rows[0].rhs) is int
