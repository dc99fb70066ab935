"""Problem data model: graphs with fragile edges, selection constraints, file I/O.

An instance is a directed graph on ``n`` nodes with a distinguished target
node, a set of fixed edges that are always present, and an ordered list of
fragile edges that can be switched on individually.  A selection assigns 0/1
to each fragile edge (by position in the fragile list); the constraint set
restricts which selections are admissible.

Instances and constraint sets are immutable after validation and safe to
share across concurrent solves.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import (
    DampingRangeError,
    DimensionMismatch,
    DuplicateEdgeError,
    InfeasibleSpec,
    InvalidOrdering,
    NodeIndexError,
    OverlapError,
    ParseError,
)

Edge = tuple[int, int]
Selection = tuple[int, ...]

DEFAULT_DAMPING = 0.85
SENSES = ("<=", "=", ">=")
_CARDINALITY_SPECS = {"card_le": "<=", "card_ge": ">=", "card_eq": "="}  # spec name -> sense
_INTP_MAX = int(np.iinfo(np.intp).max)
_BIT = {0: 0, 1: 1}.__getitem__  # finds any bit equal to 0 or 1; gives it as a Python int


def check_selection(z_count: int, y) -> Selection:
    """The one selection rule: ``y`` as a tuple of Python ints, checked to
    hold exactly ``z_count`` entries, each equal to 0 or 1 (a Python or numpy
    int or bool, or 0.0 / 1.0).  DimensionMismatch for anything else."""
    try:
        bits = tuple(map(_BIT, y))
        if len(bits) == z_count:
            return bits
    except (KeyError, TypeError):  # an entry other than 0 or 1, or one that cannot be hashed; y not iterable
        pass
    raise DimensionMismatch(f"selection {y!r} is not {z_count} bits, each 0 or 1")


def support(y: Selection) -> frozenset[int]:
    """Indices of the activated fragile edges, the bits checked by check_selection."""
    return frozenset(k for k, bit in enumerate(check_selection(len(y), y)) if bit)


def from_support(ids: Iterable[int], z_count: int) -> Selection:
    """Selection vector with ones exactly at the given fragile-edge ids, checked as check_forced checks them."""
    on = check_forced(z_count, ids, ())[0]
    return tuple(1 if k in on else 0 for k in range(z_count))


def _is_integer(value) -> bool:
    """The integer rule of edge ids and constraint rows: no bool, no float."""
    return _is_integer_type(type(value))


def _is_integer_type(kind: type) -> bool:
    """The integer rule on a value's type: an int or a numpy integer, not a bool."""
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _is_number(value) -> bool:
    """The number rule of damping, density and the gap tolerance: a Python
    int or float, never a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_forced(z_count: int, forced_on, forced_off) -> tuple[frozenset[int], frozenset[int]]:
    """The forced ids as frozensets, checked for ``gamma`` and ``bf_gamma``
    alike: DimensionMismatch for an id that is not an integer, OverlapError
    for one forced both on and off, DimensionMismatch for one out of range."""
    forced_on, forced_off = frozenset(forced_on), frozenset(forced_off)
    forced = forced_on | forced_off
    for k in forced:
        if not _is_integer(k):
            raise DimensionMismatch(f"fragile edge id {k!r} is not an integer")
    both = forced_on & forced_off
    if both:
        raise OverlapError(f"fragile edge(s) {sorted(both)} forced both on and off")
    for k in forced:
        if not 0 <= k < z_count:
            raise DimensionMismatch(f"fragile edge id {k} outside [0, {z_count})")
    return forced_on, forced_off


def check_lift_order(z_count: int, selected: frozenset[int], order) -> None:
    """Raise InvalidOrdering unless ``order`` lists each fragile-edge id outside
    ``selected`` exactly once, every id an integer as check_forced requires."""
    if not all(map(_is_integer, order)) or sorted(order) != [k for k in range(z_count) if k not in selected]:
        raise InvalidOrdering("ordering is not a permutation of the unselected fragile edges")


@dataclass(frozen=True)
class Instance:
    """A directed graph with a target node and optional fragile edges.

    ``fragile`` is ordered: position k is the fragile-edge id that selection
    vectors and cut coefficient vectors align to.
    """

    n: int
    target: int
    edges: frozenset[Edge]
    fragile: tuple[Edge, ...]
    damping: float = DEFAULT_DAMPING

    @property
    def z_count(self) -> int:
        return len(self.fragile)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Fixed edges as a read-only (m, 2) array of (source, target) rows,
        in sorted order.  Validates the instance first, as validate does, on
        the array it sorts: the walk builder counts every edge listed."""
        _, ends, fragile = _coerce(self)
        _raise_first(_violations(self, ends, fragile, sort_fixed=True))
        return _edge_array(ends[np.lexsort((ends[:, 1], ends[:, 0]))])

    @cached_property
    def fragile_array(self) -> np.ndarray:
        """Fragile edges as a read-only (|Z|, 2) array; row k is edge id k."""
        return _edge_array(_endpoints(self.fragile, "fragile"))


def _edge_array(ends: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(ends, dtype=np.intp)
    arr.setflags(write=False)
    return arr


def _endpoints(entries, field: str) -> np.ndarray:
    """The one edge reader: ``entries``, a file's edge list or an Instance's
    collection of pairs, as the (m, 2) array of their endpoints in iteration
    order.  An entry is a list or tuple of exactly two integers, each as
    _is_integer defines one (no bool, no float); the first entry that is not
    raises ParseError naming it and ``field``, its list in the file schema.
    The array is intp, or holds Python ints when an endpoint does not fit in
    intp: such an endpoint lies outside [0, n) for every n validate accepts."""
    if len(entries) == 0:  # no rows to unpack
        return np.empty((0, 2), dtype=np.intp)
    # Both rules depend on the type alone, so each runs once per type present.
    # A refusal, or an id past intp, falls through to the walk below, which
    # names the first entry refused.
    pairs = all(issubclass(kind, (list, tuple)) for kind in set(map(type, entries)))
    if pairs and set(map(len, entries)) == {2}:
        ids = list(chain.from_iterable(entries))
        if all(map(_is_integer_type, set(map(type, ids)))):
            try:
                return np.array(ids, dtype=np.intp).reshape(-1, 2)
            except OverflowError:
                pass
    rows = []
    for entry in entries:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ParseError(f'"{field}" entries must be [i, j] pairs, got {entry!r}')
        if not all(map(_is_integer, entry)):
            raise ParseError(f'"{field}" endpoints must be integers, got {entry!r}')
        rows.append(tuple(map(int, entry)))
    return np.array(rows, dtype=object)  # every entry a pair: an endpoint overflowed intp


def _rows(ends: np.ndarray) -> list[Edge]:
    """The rows of an endpoint array as tuples of Python ints."""
    return list(zip(ends[:, 0].tolist(), ends[:, 1].tolist()))


@dataclass(frozen=True)
class Row:
    """One linear constraint over the selection bits."""

    coeffs: tuple[int, ...]
    sense: str
    rhs: int


class CompiledRows:
    """The checked rows over ``z_count`` fragile edges, and the one row test:
    the Rows, their coefficients as a (z_count, m) int64 array, and each
    row's bounds, at -inf / +inf where its sense sets none (floats, exact
    since every row sum stays below 2**53)."""

    def __init__(self, z_count: int, rows: tuple[Row, ...]):
        self.z_count = z_count
        self.rows = rows
        self.coeffs = np.array([row.coeffs for row in rows], dtype=np.int64).reshape(len(rows), z_count).T
        self.lower = np.array([-np.inf if row.sense == "<=" else row.rhs for row in rows], dtype=float)
        self.upper = np.array([np.inf if row.sense == ">=" else row.rhs for row in rows], dtype=float)
        # the same rows as Python ints and floats: the twins call admits at every point
        self._bounded = list(zip(self.coeffs.T.tolist(), self.lower.tolist(), self.upper.tolist()))

    def admits(self, y) -> bool:
        """True iff ``y``, checked by check_selection, meets every row: each
        row's integer sum lies within its bounds."""
        y = check_selection(self.z_count, y)
        for coeffs, lo, hi in self._bounded:
            if not lo <= sum(map(operator.mul, coeffs, y)) <= hi:
                return False
        return True


@dataclass(frozen=True)
class ConstraintSet:
    """Linear rows over the selection bits plus an optional cardinality shortcut.

    An empty constraint set means every point of the binary cube is feasible.
    """

    rows: tuple[Row, ...] = ()
    cardinality: tuple[str, int] | None = None

    def compiled_rows(self, z_count: int) -> CompiledRows:
        """All rows, with the cardinality shortcut expanded to an all-ones row,
        as the CompiledRows that test a selection against them; the one row
        check.  Raises ParseError for a coefficient or bound that
        is not an integer, an unknown sense, or absolute values summing to
        2**53 or more; DimensionMismatch for a wrong-length row."""
        for idx, row in enumerate(self.rows):
            what = f"constraint row {idx}"
            for c in row.coeffs:
                if not _is_integer(c):
                    raise ParseError(f'{what} "coeffs" entry must be an integer, got {c!r}')
            if not _is_integer(row.rhs):
                raise ParseError(f'{what} "rhs" must be an integer, got {row.rhs!r}')
            if row.sense not in SENSES:
                raise ParseError(f"{what}: unknown sense {row.sense!r}")
            if len(row.coeffs) != z_count:
                raise DimensionMismatch(f"{what} has {len(row.coeffs)} coefficients for {z_count} fragile edges")
        rows = self.rows
        if self.cardinality is not None:
            sense, k = self.cardinality
            if sense not in SENSES:
                raise ParseError(f"cardinality sense {sense!r} unknown")
            if not _is_integer(k):
                raise ParseError(f'cardinality "k" must be an integer, got {k!r}')
            rows = rows + (Row(coeffs=(1,) * z_count, sense=sense, rhs=k),)
        for row in rows:
            if sum(abs(int(c)) for c in row.coeffs) + abs(int(row.rhs)) >= 2**53:
                raise ParseError("constraint rows with coefficients or bounds of 2**53 and more are not supported")
        return CompiledRows(z_count, rows)

    @property
    def is_empty(self) -> bool:
        return not self.rows and self.cardinality is None


EMPTY_CONSTRAINTS = ConstraintSet()


# ---------------------------------------------------------------------------
# validation


def _as_list(value, what: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{what} must be a list, got {value!r}")
    return value


def _coerce(raw) -> tuple[Instance, np.ndarray, np.ndarray]:
    """The Instance of ``raw``, an Instance or a schema dict, with its fixed
    and fragile endpoints as _endpoints reads them.  The damping of either
    is a Python int or float, never a bool.  A dict's edge lists are read
    once, and its Instance is built from their arrays; the fixed array keeps
    the repeats that the Instance's frozenset drops."""
    if not isinstance(raw, (Instance, dict)):
        raise ParseError(f"expected a mapping or an Instance, got {type(raw).__name__}")
    fields = vars(raw) if isinstance(raw, Instance) else raw
    missing = [k for k in ("n", "target", "edges", "fragile") if k not in fields]
    if missing:
        raise ParseError("missing field(s): " + ", ".join(missing))
    for field in ("n", "target"):
        if not _is_integer(fields[field]):
            raise ParseError(f'"{field}" must be an integer, got {fields[field]!r}')
    damping = fields.get("damping", DEFAULT_DAMPING)
    _check_damping(damping)
    if isinstance(raw, Instance):
        return raw, _endpoints(raw.edges, "edges"), _endpoints(raw.fragile, "fragile")
    fixed, fragile = (_endpoints(_as_list(raw[field], f'"{field}"'), field) for field in ("edges", "fragile"))
    return _instance_of_arrays(raw["n"], raw["target"], fixed, fragile, float(damping)), fixed, fragile


def _check_damping(damping) -> None:
    """The one damping rule: a number, as _is_number defines one."""
    if not _is_number(damping):
        raise ParseError(f'"damping" must be a number, got {damping!r}')


def _instance_of_arrays(n, target, fixed: np.ndarray, fragile: np.ndarray, damping) -> Instance:
    """The Instance whose edges are the rows of two endpoint arrays, as tuples
    of Python ints; the same rows in the same order give the same frozenset
    iteration order."""
    return Instance(n=n, target=target, edges=frozenset(_rows(fixed)), fragile=tuple(_rows(fragile)), damping=damping)


def _repeated(rows: list[Edge]) -> list[Edge]:
    return sorted(e for e, count in Counter(rows).items() if count > 1)


def _violations(inst: Instance, fixed: np.ndarray, fragile: np.ndarray, sort_fixed: bool) -> list[tuple[type, str]]:
    """Every instance violation, in the order validate reports them, found
    on the endpoint arrays.  Fixed edges are reported in ``fixed``'s order,
    or sorted when ``sort_fixed`` (an Instance's set has no order)."""
    found: list[tuple[type, str]] = []
    n = inst.n
    if n < 1:
        found.append((NodeIndexError, f"node count must be positive, got {n}"))
        return found
    if n > _INTP_MAX:  # no walk could be built; endpoint arrays assume every id fits
        found.append((NodeIndexError, f"node count {n} does not fit in intp (at most {_INTP_MAX})"))
        return found
    if not 0 <= inst.target < n:
        found.append((NodeIndexError, f"target {inst.target} outside [0, {n})"))
    for name, ends, ordered in (("fixed", fixed, sort_fixed), ("fragile", fragile, False)):
        bad = _rows(ends[((ends < 0) | (ends >= n)).any(axis=1)])
        for (i, j) in sorted(bad) if ordered else bad:
            found.append((NodeIndexError, f"{name} edge ({i}, {j}) has an endpoint outside [0, {n})"))
    fragile_rows = _rows(fragile)
    fixed_dupes = [] if len(inst.edges) == len(fixed) else _repeated(_rows(fixed))
    for name, dupes in (("fixed", fixed_dupes), ("fragile", _repeated(fragile_rows))):
        if dupes:
            found.append((DuplicateEdgeError, f"duplicate {name} edge(s): {dupes}"))
    overlap = sorted({e for e in fragile_rows if e in inst.edges})
    if overlap:
        found.append((OverlapError, f"edge(s) listed as both fixed and fragile: {overlap}"))
    if not 0.0 < inst.damping <= 1.0:
        found.append((DampingRangeError, f"damping must lie in (0, 1], got {inst.damping}"))
    return found


def _check(raw, with_constraints: bool = False) -> tuple[Instance, ConstraintSet, list[tuple[type, str]]]:
    """The one validation path: the instance, its constraint set (empty
    unless asked for, which needs a mapping) and every violation found, the
    instance's first.  Raises ParseError when the instance fields are
    malformed; a malformed constraint field or row, a wrong row length
    included, is listed as a ParseError violation."""
    inst, fixed, fragile = _coerce(raw)
    found = _violations(inst, fixed, fragile, sort_fixed=inst is raw)
    constraints = EMPTY_CONSTRAINTS
    if with_constraints:
        try:
            constraints = _constraints_from_json(raw.get("constraints"), inst.z_count)
        except (ParseError, DimensionMismatch) as exc:
            found.append((ParseError, str(exc)))
    return inst, constraints, found


def _raise_first(found: list[tuple[type, str]]) -> None:
    if found:
        cls, msg = found[0]
        raise cls(msg)


def validate(raw) -> Instance:
    """Check every instance invariant; return the validated Instance.

    Accepts an Instance or a dict in the file schema (any "constraints" key is
    handled separately by instance_from_json).  Raises the specific error for
    the first violation found: ParseError, NodeIndexError, DuplicateEdgeError,
    OverlapError, or DampingRangeError.
    """
    inst, _, found = _check(raw)
    _raise_first(found)
    return inst


def diagnose(raw) -> tuple[Instance | None, list[str]]:
    """validation_errors, with the Instance read in the same pass (None when
    its fields are malformed)."""
    try:
        inst, _, found = _check(raw, with_constraints=isinstance(raw, dict))
    except ParseError as exc:
        return None, [str(exc)]
    return inst, [msg for _, msg in found]


def validation_errors(raw) -> list[str]:
    """All violations as human-readable strings (empty when valid): of an
    Instance, or of a dict in the file schema, its "constraints" included."""
    return diagnose(raw)[1]


# ---------------------------------------------------------------------------
# random generation


def parse_constraint_spec(spec: str | None, z_count: int, rng) -> ConstraintSet:
    """Compile a constraint spec string into a ConstraintSet.

    Supported forms: "none", "card_le:K", "card_ge:K", "card_eq:K" and
    "cover:M" (one covering row over M fragile edges, drawn by the numpy
    Generator ``rng``; the other forms leave it unread)."""
    if spec is None or spec == "none":
        return EMPTY_CONSTRAINTS
    name, _, arg = spec.partition(":")
    if not arg:
        raise ParseError(f"constraint spec {spec!r} is missing its :K argument")
    try:
        k = int(arg)
    except ValueError:
        raise ParseError(f"constraint spec argument must be an integer, got {arg!r}") from None
    if name in _CARDINALITY_SPECS:
        return ConstraintSet(cardinality=(_CARDINALITY_SPECS[name], k))
    if name == "cover":
        if z_count == 0:
            raise ParseError("cover constraint needs at least one fragile edge")
        if not 1 <= k <= z_count:
            raise ParseError(f"cover size {k} outside [1, {z_count}]")
        chosen = set(int(i) for i in rng.choice(z_count, size=k, replace=False))
        coeffs = tuple(1 if i in chosen else 0 for i in range(z_count))
        return ConstraintSet(rows=(Row(coeffs=coeffs, sense=">=", rhs=1),))
    raise ParseError(f"unknown constraint spec {spec!r}")


def _decode_pairs(flat: np.ndarray, n: int) -> np.ndarray:
    """The ordered pairs (i, j) numbered ``flat`` (see generate_random), as
    the rows of an endpoint array in that order."""
    i, j = np.divmod(flat, max(n - 1, 1))
    j += j >= i
    return np.column_stack((i, j))


def generate_random(
    n: int,
    fixed_edge_prob: float,
    fragile_count: int,
    constraint_spec: str | None = None,
    seed: int = 0,
    damping: float = DEFAULT_DAMPING,
) -> tuple[Instance, ConstraintSet]:
    """Seeded random instance: fixed edges drawn Bernoulli over ordered pairs,
    fragile edges sampled from the remaining non-edges, target drawn uniformly.

    Deterministic for a fixed seed.  Raises InfeasibleSpec for an ``n`` or
    ``fragile_count`` that is not an integer (as _is_integer defines one), a
    ``fixed_edge_prob`` that is not a number (as _is_number defines one) or
    lies outside [0, 1] (NaN included), a negative
    fragile_count, or when fewer than fragile_count non-edges remain after
    the fixed draw; NodeIndexError for a node count below 1; ParseError for
    a damping that _coerce would refuse, before any draw.

    The ordered pairs (i, j), i != j, are numbered row-major: pair p is row
    ``i = p // (n - 1)``, and column ``j' = p % (n - 1)`` skipping the
    diagonal, ``j = j' + (j' >= i)``.  Only the drawn pairs are decoded, so
    the work is O(m) plus a float and a bit per ordered pair.
    """
    for what, count in (("node count", n), ("fragile edge count", fragile_count)):
        if not _is_integer(count):
            raise InfeasibleSpec(f"{what} must be an integer, got {count!r}")
    if not _is_number(fixed_edge_prob):
        raise InfeasibleSpec(f"fixed edge density must be a number, got {fixed_edge_prob!r}")
    if not 0.0 <= fixed_edge_prob <= 1.0:
        raise InfeasibleSpec(f"fixed edge density must lie in [0, 1], got {fixed_edge_prob}")
    if n < 1:
        raise NodeIndexError(f"node count must be positive, got {n}")
    if fragile_count < 0:
        raise InfeasibleSpec(f"fragile edge count must be nonnegative, got {fragile_count}")
    _check_damping(damping)
    rng = np.random.default_rng(seed)
    pair_count = n * (n - 1)
    if fragile_count > pair_count:
        raise InfeasibleSpec(f"{fragile_count} fragile edges requested but only {pair_count} ordered pairs exist")
    hits = np.flatnonzero(rng.random(pair_count) < fixed_edge_prob)
    non_edge_count = pair_count - len(hits)
    if fragile_count > non_edge_count:
        raise InfeasibleSpec(
            f"{fragile_count} fragile edges requested but only {non_edge_count} non-edges remain"
        )
    picks = rng.choice(non_edge_count, size=fragile_count, replace=False) if fragile_count else []
    # Non-edge k is pair k + t, with t the number of hits before it: hit s
    # (ascending) comes before it exactly when the hits[s] - s non-edges
    # ahead of hit s number at most k.
    picks = np.asarray(picks, dtype=np.intp)
    picks += np.searchsorted(hits - np.arange(len(hits)), picks, side="right")
    target = int(rng.integers(n))
    fixed, fragile = _decode_pairs(hits, n), _decode_pairs(picks, n)
    inst = _instance_of_arrays(n, target, fixed, fragile, damping)
    _raise_first(_violations(inst, fixed, fragile, sort_fixed=False))  # validate's checks; no entry to read
    constraints = parse_constraint_spec(constraint_spec, fragile_count, rng)
    return inst, constraints


# ---------------------------------------------------------------------------
# file I/O


def _constraints_from_json(obj, z_count: int) -> ConstraintSet:
    """The constraint set of a parsed file: the JSON shapes are checked here,
    the rows by ConstraintSet.compiled_rows."""
    if obj is None:
        return EMPTY_CONSTRAINTS
    if not isinstance(obj, dict):
        raise ParseError(f'"constraints" must be an object or null, got {obj!r}')
    rows = []
    for idx, entry in enumerate(_as_list(obj.get("rows", []), '"rows"')):
        if not isinstance(entry, dict):
            raise ParseError(f"constraint row {idx} must be an object, got {entry!r}")
        missing = [k for k in ("coeffs", "sense", "rhs") if k not in entry]
        if missing:
            raise ParseError(f"constraint row {idx}: missing field(s): " + ", ".join(missing))
        coeffs = tuple(_as_list(entry["coeffs"], f'constraint row {idx} "coeffs"'))
        rows.append(Row(coeffs=coeffs, sense=entry["sense"], rhs=entry["rhs"]))
    card = obj.get("cardinality")
    if card is not None and (not isinstance(card, dict) or "sense" not in card or "k" not in card):
        raise ParseError('"cardinality" must be {"sense": ..., "k": ...} or null')
    constraints = ConstraintSet(rows=tuple(rows), cardinality=None if card is None else (card["sense"], card["k"]))
    constraints.compiled_rows(z_count)
    return constraints


def instance_to_json(instance: Instance, constraints: ConstraintSet = EMPTY_CONSTRAINTS) -> dict:
    """The file schema of an instance, every integer a Python int.  The rows
    are checked first, by the rules read_instance applies (ParseError, a
    wrong row length included); the fixed edges come sorted from
    ``Instance.edge_array``, read before any other instance field, so an
    invalid instance raises as validate does."""
    try:
        constraints.compiled_rows(instance.z_count)
    except DimensionMismatch as exc:
        raise ParseError(str(exc)) from None
    edges = instance.edge_array.tolist()
    rows = [{"coeffs": [int(c) for c in r.coeffs], "sense": r.sense, "rhs": int(r.rhs)} for r in constraints.rows]
    card = constraints.cardinality
    return {
        "n": operator.index(instance.n),
        "target": operator.index(instance.target),
        "edges": edges,
        "fragile": instance.fragile_array.tolist(),
        "damping": instance.damping,
        "constraints": None if constraints.is_empty else {
            "rows": rows, "cardinality": None if card is None else {"sense": card[0], "k": int(card[1])}
        },
    }


def instance_from_json(data) -> tuple[Instance, ConstraintSet]:
    """Validate a parsed instance file; returns (Instance, ConstraintSet)."""
    inst, constraints, found = _check(data, with_constraints=True)
    _raise_first(found)
    return inst, constraints


def load_json(path):
    """The parsed JSON of a file; ParseError naming the file if it is not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


def read_instance(path) -> tuple[Instance, ConstraintSet]:
    """Parse and validate an instance file; returns (Instance, ConstraintSet)."""
    return instance_from_json(load_json(path))


def write_instance(path, instance: Instance, constraints: ConstraintSet = EMPTY_CONSTRAINTS) -> None:
    """Write an instance file: one top-level field per line, each value as
    ``json.dumps`` writes it (the C encoder; ``json.dump`` would take the
    pure-Python one)."""
    fields = instance_to_json(instance, constraints)
    lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in fields.items())
    with open(path, "w") as fh:
        fh.write("{\n" + lines + "\n}\n")
