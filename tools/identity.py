"""SHA-256 digests of solve reports, to show that a change moves no answer.

Run from the root of a checkout:

    python tools/identity.py                        # this tree's digests
    python tools/identity.py --against ../parent    # both trees', compared
    python tools/identity.py --against . --limit 4  # a small corpus

Two corpora, each solve one canonical JSON line of ``SolveReport.to_json()``
(``json.dumps`` with sorted keys, so every float by its ``repr``):

- ``bench``: the instances of perfbench's workloads (``WORKLOADS`` in
  ``perfbench/run.py``) at their base seeds, not relabelled, each solved
  by every cut family;
- ``differential``: the differential corpus of ``tests/helpers.py`` (every
  damping, constraint spec and draw), each solved by every cut family.

A solve that raises gives a line naming its error.  The first output line is
numpy's version and the BLAS it was built with: the digests depend on both,
so they compare two trees on one machine, and no digest is pinned anywhere.

Each tree's package is imported in a process of its own, from the tree's
``src``, with one BLAS thread; both processes build the corpora from this
checkout's ``perfbench/run.py`` and ``tests/helpers.py``.  With
``--against``, a corpus whose digests differ is named with the number of
solves that differ, the first of them and the report fields that differ
there, and the exit code is 1; it is 0 when every digest is equal.
``--limit N`` solves only the first N of each corpus.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPORA = ("bench", "differential")
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def cases(limit):
    """``(corpus, label, family, instance, constraints)`` for every solve, in
    order; imports the package already on the path."""
    sys.path[1:1] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    import pagerank_select as ps
    from helpers import DAMPINGS, SPECS, differential_case
    from run import CONSTRAINT, WORKLOADS

    bench = [
        (f"{wl.name} seed {seed}", ps.generate_random(wl.n, wl.density, wl.fragile, CONSTRAINT, seed=seed))
        for wl in WORKLOADS.values()
        for seed in wl.base_seeds
    ]
    differential = [
        (f"damping {damping} {spec} draw {draw}", differential_case(damping, spec, draw))
        for damping in DAMPINGS
        for spec in SPECS
        for draw in (0, 1)
    ]
    for corpus, instances in (("bench", bench), ("differential", differential)):
        solves = [(label, family, case) for label, case in instances for family in ps.FAMILIES]
        for label, family, (inst, cons) in solves[:limit]:
            yield corpus, f"{label} {family}", family, inst, cons


def worker(src: Path, limit) -> None:
    """Print one JSON line per solve, solved by the package under ``src``."""
    sys.path.insert(0, str(src))
    import pagerank_select as ps

    if Path(ps.__file__).resolve().parent != src / "pagerank_select":
        raise SystemExit(f"identity: imported pagerank_select from {ps.__file__}")
    for corpus, label, family, inst, cons in cases(limit):
        try:
            report = ps.solve(inst, cons, family=family).to_json()
        except Exception as exc:  # a raised error is part of the answer
            report = {"error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps({"corpus": corpus, "label": label, "report": json.dumps(report, sort_keys=True)}))


def solve_tree(tree: Path, limit) -> dict[str, list[tuple[str, str]]]:
    """Per corpus, ``(label, report line)`` of every solve, by ``tree``'s package."""
    src = tree.resolve() / "src"
    if not (src / "pagerank_select" / "__init__.py").is_file():
        raise SystemExit(f"identity: no pagerank_select package under {src}")
    command = [sys.executable, str(Path(__file__).resolve()), "--worker", str(src)]
    if limit is not None:
        command += ["--limit", str(limit)]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"} | ONE_THREAD
    done = subprocess.run(command, capture_output=True, text=True, env=env, check=False)
    if done.returncode:
        raise SystemExit(f"identity: solving with {src} failed:\n{done.stderr}")
    solves: dict[str, list[tuple[str, str]]] = {corpus: [] for corpus in CORPORA}
    for line in done.stdout.splitlines():
        record = json.loads(line)
        solves[record["corpus"]].append((record["label"], record["report"]))
    return solves


def digest(solves: list[tuple[str, str]]) -> str:
    return hashlib.sha256("".join(report + "\n" for _, report in solves).encode()).hexdigest()


def first_difference(mine: list[tuple[str, str]], theirs: list[tuple[str, str]]) -> str:
    """How many solves' reports differ, and the first of them, with the
    fields that differ there."""
    differ = [(label, a, b) for (label, a), (_, b) in zip(mine, theirs) if a != b]
    if not differ:
        return f"{len(mine)} solves against {len(theirs)}"
    label, a, b = differ[0]
    a, b = json.loads(a), json.loads(b)
    fields = sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))
    return f"{len(differ)} of {len(mine)} differ, the first at {label}: {', '.join(fields)}"


def blas_line() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"numpy {numpy.__version__}, BLAS {blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        return f"numpy {numpy.__version__}, BLAS unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", type=Path, help="root of another checkout to compare with")
    parser.add_argument("--limit", type=int, help="solve only the first LIMIT of each corpus")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker, args.limit)
        return 0

    print(blas_line())
    mine = solve_tree(ROOT, args.limit)
    theirs = solve_tree(args.against, args.limit) if args.against else None
    equal = True
    for corpus in CORPORA:
        line = f"{corpus}: {len(mine[corpus])} solves, sha256 {digest(mine[corpus])}"
        if theirs is not None:
            line += f", against {digest(theirs[corpus])}: "
            if mine[corpus] == theirs[corpus]:
                line += "equal"
            else:
                equal = False
                line += first_difference(mine[corpus], theirs[corpus])
        print(line)
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
