"""Per-layer tracing from outside the package.

:class:`Tracer` replaces the public functions of each layer with wrappers
that record one span per call, and puts the originals back on
:meth:`Tracer.restore`.  The package calls these functions through module
attributes (``chain.hitting_times``, ``oracle.gamma``, ...), so a wrapper set
on the module catches every call, including those made inside the package.
Spans stay in memory; :func:`solve_metrics` and :func:`setup_metrics` turn
them into the per-layer figures, and :func:`write_spans` dumps them as JSON
lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter

# (module, function): the layer functions the benchmark wraps.
TRACED = (
    ("solver", "solve"),
    ("cuts", "l_shaped_cut"),
    ("cuts", "new_cut"),
    ("cuts", "lifted_cut"),
    ("master", "solve_master"),
    ("oracle", "gamma"),
    ("chain", "hitting_times"),
    ("chain", "transition_matrix"),
    ("instance", "generate_random"),
    ("instance", "write_instance"),
    ("instance", "read_instance"),
)

SOLVE = "solver.solve"
# The per-layer self times that partition the traced wall time of the solves.
SELF_TIMES = ("solver.self_s", "cuts.self_s", "master.self_s", "oracle.self_s", "chain.self_s", "chain.build_s")


@dataclass
class Span:
    name: str
    parent: int  # index of the calling span, -1 at the top
    root: int  # index of the outermost span: one solve or one set-up call
    start: float
    end: float
    key: tuple | None = None  # oracle query (forced_on, forced_off)
    count: int = 0  # oracle sweeps or master nodes

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _details(name, args, kwargs, result):
    if name == "oracle.gamma":
        query = kwargs.get("query", args[1] if len(args) > 1 else None)
        key = (tuple(sorted(query.forced_on)), tuple(sorted(query.forced_off)))
        return key, result.iterations
    if name == "master.solve_master":
        return None, result.nodes_explored
    return None, 0


class Tracer:
    """Wraps the layer functions of one imported ``pagerank_select`` package."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span | None] = []
        self._stack: list[tuple[int, int]] = []  # (span, its root)
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)  # keep ids in start order
            parent, root = stack[-1] if stack else (-1, sid)
            stack.append((sid, root))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = Span(name, parent, root, start, end)
            spans[sid].key, spans[sid].count = _details(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function, on its module and on the package."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr in TRACED:
            module = getattr(self.package, module_name)
            original = getattr(module, attr)
            traced = self._wrap(f"{module_name}.{attr}", original)
            for owner in (module, self.package):
                if getattr(owner, attr, None) is original:
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Hand over the finished spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        done = list(self.spans)
        self.spans.clear()
        return done


def write_spans(path, groups: dict[str, list[Span]]) -> None:
    """One JSON line per span, tagged with its group (set-up or pass)."""
    with open(path, "w") as fh:
        for group, spans in groups.items():
            for sid, s in enumerate(spans):
                fh.write(json.dumps({
                    "group": group, "id": sid, "parent": s.parent, "root": s.root,
                    "name": s.name, "start": s.start, "end": s.end,
                    "key": s.key, "count": s.count,
                }) + "\n")


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.seconds
    return own


def check_nesting(spans: list[Span]) -> None:
    """Every span lies inside its parent; a failure means overlapping spans."""
    for sid, s in enumerate(spans):
        if s.parent >= 0:
            p = spans[s.parent]
            if not p.start <= s.start <= s.end <= p.end:
                raise AssertionError(f"span {sid} ({s.name}) is not nested in its parent {s.parent}")


def solve_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass over the corpus.

    Self times of the solve layers add up to ``trace.solve_s``, the traced
    wall time of the solves, so nothing is counted twice; a mismatch raises.
    """
    check_nesting(spans)
    own = self_seconds(spans)
    by_name: dict[str, list[int]] = {}
    for sid, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(sid)

    def ids(*names):
        return [sid for name in names for sid in by_name.get(name, [])]

    def self_s(*names):
        return sum(own[sid] for sid in ids(*names))

    def span_s(*names):
        return sum(spans[sid].seconds for sid in ids(*names))

    chain_calls = len(ids("chain.hitting_times"))
    master_calls = len(ids("master.solve_master"))
    gammas = ids("oracle.gamma")
    distinct = len({(spans[sid].root, spans[sid].key) for sid in gammas})
    cut_names = ("cuts.l_shaped_cut", "cuts.new_cut", "cuts.lifted_cut")

    solve_wall = span_s(SOLVE)
    metrics = {
        "chain.calls": chain_calls,
        "chain.ms_per_call": 1e3 * span_s("chain.hitting_times") / max(chain_calls, 1),
        "chain.self_s": self_s("chain.hitting_times"),
        "chain.build_s": self_s("chain.transition_matrix"),
        "oracle.queries": len(gammas),
        "oracle.distinct": distinct,
        "oracle.distinct_ratio": distinct / len(gammas) if gammas else 1.0,
        "oracle.sweeps": sum(spans[sid].count for sid in gammas),
        "oracle.self_s": self_s("oracle.gamma"),
        "cuts.calls": len(ids(*cut_names)),
        "cuts.self_s": self_s(*cut_names),
        "master.calls": master_calls,
        "master.nodes": sum(spans[sid].count for sid in ids("master.solve_master")),
        "master.self_s": self_s("master.solve_master"),
        "master.ms_per_call": 1e3 * span_s("master.solve_master") / max(master_calls, 1),
        "solver.self_s": self_s(SOLVE),
        "trace.solve_s": solve_wall,
    }
    layer_sum = sum(metrics[k] for k in SELF_TIMES)
    if abs(layer_sum - solve_wall) > 1e-9 * max(solve_wall, 1.0):
        raise AssertionError(f"layer self times sum to {layer_sum} s, traced solves took {solve_wall} s")
    return metrics


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Time spent generating the corpus and in its file round trip."""
    check_nesting(spans)
    own = self_seconds(spans)

    def self_s(*names):
        return sum(t for s, t in zip(spans, own) if s.name in names)

    return {
        "instance.generate_s": self_s("instance.generate_random"),
        "instance.io_s": self_s("instance.write_instance", "instance.read_instance"),
    }
