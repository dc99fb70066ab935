"""Seeded solve benchmark for pagerank_select.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lifted-n300 --seed 1 --seconds 30 --trace 0

The workload's corpus is built from ``--seed`` through the public instance
API, written to disk and read back.  The corpus is then solved, one
``pagerank_select.solve`` call per instance, in whole passes until
``--seconds`` have gone by, with a fixed calibration kernel timed between
consecutive solves (see ``corpus_seconds``).  Every answer is checked
afterwards against the numpy-only reference in ``reference.py``.  The last
line of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``layers.py`` with ``--trace 1``.
The exit code is 0 only when every solve succeeded and passed every check.
"""

import os
import sys
import time

_START = time.perf_counter()  # set-up is timed from here

# One BLAS thread; this must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import traceback
from dataclasses import dataclass
from pathlib import Path

import layers
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

EPS = 1e-9  # gap tolerance passed to every solve and to the checker
SETUP_PROBES = 6  # set-ups, each in a fresh process, for the setup_s median
CAL_POINTS = 12  # return-time solves per calibration, on the corpus's first instance
CAL_LOOP = 150_000  # pure-Python dict updates per calibration
CONSTRAINT = "card_le:3"  # every corpus instance; damping stays at the 0.85 default


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    n: int
    density: float
    fragile: int
    base_seeds: tuple[int, ...]  # generator seeds of the corpus; see README.md
    cal_ref_s: float  # median calibration time on the reference host; see README.md


WORKLOADS = {w.name: w for w in (
    Workload("lifted-n300", "lifted", n=300, density=0.02, fragile=10, base_seeds=(1, 3, 9),
             cal_ref_s=0.088),
    Workload("new-bnb", "new", n=100, density=0.05, fragile=14, base_seeds=(0, 3, 7),
             cal_ref_s=0.038),
    Workload("lshaped-enum", "lshaped", n=40, density=0.1, fragile=12, base_seeds=(0, 1),
             cal_ref_s=0.033),
)}


def import_package():
    """Import numpy and the package from this checkout's ``src``, never from
    anywhere else on the path."""
    src = ROOT / "src"
    if not (src / "pagerank_select" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pagerank_select package under {src}")
    sys.path.insert(0, str(src))
    import numpy
    import pagerank_select

    if Path(pagerank_select.__file__).resolve().parent != src / "pagerank_select":
        raise SystemExit(f"perfbench: imported pagerank_select from {pagerank_select.__file__}")
    return numpy, pagerank_select


def relabel(ps, inst, rng):
    """The same instance with its nodes renamed by a random permutation."""
    perm = rng.permutation(inst.n)

    def move(edge):
        return int(perm[edge[0]]), int(perm[edge[1]])

    return ps.validate(ps.Instance(
        n=inst.n,
        target=int(perm[inst.target]),
        edges=frozenset(map(move, inst.edges)),
        fragile=tuple(map(move, inst.fragile)),
        damping=inst.damping,
    ))


def build_corpus(np, ps, wl: Workload, seed: int, workdir: Path):
    """Generate the corpus, relabel it by ``seed``, and round-trip it through
    instance files.  Returns ``(path, instance, constraints)`` per instance."""
    corpus = []
    for i, base in enumerate(wl.base_seeds):
        inst, cons = ps.instance.generate_random(wl.n, wl.density, wl.fragile, CONSTRAINT, seed=base)
        inst = relabel(ps, inst, np.random.default_rng([seed, i]))
        path = workdir / f"{wl.name}-{i}.json"
        ps.instance.write_instance(path, inst, cons)
        inst, cons = ps.instance.read_instance(path)
        corpus.append((path, inst, cons))
    return corpus


def solve_pass(ps, wl: Workload, corpus, calibrate=None):
    """Solve every instance once.  Returns the wall time of each solve, its
    report or the exception it raised, and the time ``calibrate()`` took
    right after each solve (none without ``calibrate``)."""
    walls, outcomes, cals = [], [], []
    for _, inst, cons in corpus:
        begin = time.perf_counter()
        try:
            outcomes.append(ps.solve(inst, cons, family=wl.family, ordering_strategy="index", eps=EPS))
        except Exception as exc:  # a failed solve is counted, not fatal
            traceback.print_exc()
            outcomes.append(exc)
        walls.append(time.perf_counter() - begin)
        if calibrate:
            cals.append(calibrate())
    return walls, outcomes, cals


def calibration(ref: reference.Reference, np):
    """A fixed piece of work, timed: the mix a solve spends its time on.

    It runs ``CAL_POINTS`` dense return-time solves of the reference on one
    corpus instance (matrix build, allocation and LAPACK, at the workload's
    n) and ``CAL_LOOP`` pure-Python dict updates.  None of it calls the
    package, so a change to the program leaves its time alone."""
    points = ref.feasible[np.random.default_rng(0).integers(0, len(ref.feasible), CAL_POINTS)]

    def calibrate() -> float:
        begin = time.perf_counter()
        for y in points:
            ref.return_time(y)
        table = {}
        for i in range(CAL_LOOP):
            table[i & 1023] = table.get(i & 1023, 0) + i
        return time.perf_counter() - begin

    return calibrate


def corpus_seconds(ratios, cal_ref_s: float) -> float:
    """Time to solve the corpus once, at the reference host's speed.

    ``ratios[p][k]`` is the wall time of instance ``k``'s solve in pass
    ``p``, divided by the mean of the two calibrations timed just before and
    just after it.  The result is the sum over instances of the median ratio,
    times the calibration's time on the reference host.

    Every pass does exactly the same work, yet on a shared 2-CPU host the
    same solve runs 20-40% slower for stretches of seconds to minutes, so
    raw wall times drift between runs by more than any useful bound.  The
    calibration slows down with it: in trial runs the quartile spread of
    this figure was 0.02-0.04 of its median, against 0.09-0.33 for the sum
    of per-instance median wall times (README.md, *Timing estimator*)."""
    return cal_ref_s * sum(statistics.median(per_instance) for per_instance in zip(*ratios))


def median_corpus_wall(walls) -> float:
    """Raw wall time to solve the corpus once: the sum of per-instance medians."""
    return sum(statistics.median(per_instance) for per_instance in zip(*walls))


def probe_setup(wl: Workload, seed: int) -> float:
    """Set-up time of a fresh process: interpreter, imports and corpus."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", wl.name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def check_all(corpus, refs, passes) -> tuple[int, int, bool]:
    """Check every outcome of every pass; returns (attempted, failed, correct)."""
    attempted = failed = 0
    correct = True
    for outcomes in passes:
        for (path, _, _), ref, outcome in zip(corpus, refs, outcomes):
            attempted += 1
            if isinstance(outcome, Exception):
                failed += 1
                continue
            problems = reference.check(ref, outcome.to_json(), EPS)
            if problems:
                failed += 1
                correct = False
                for problem in problems:
                    print(f"perfbench: {path.name}: {problem}", file=sys.stderr)
    return attempted, failed, correct


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(np, ps, wl, seed, seconds, workdir):
    corpus = build_corpus(np, ps, wl, seed, workdir)
    refs = [reference.Reference(path) for path, _, _ in corpus]
    calibrate = calibration(refs[0], np)

    walls, ratios, passes = [], [], []
    setups, setup_ratios = [], []
    cals = [calibrate()]

    def probe():
        """One set-up probe, then a calibration after it."""
        setups.append(probe_setup(wl, seed))
        cals.append(calibrate())
        setup_ratios.append(setups[-1] / ((cals[-2] + cals[-1]) / 2))

    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < seconds:
        times, outcomes, after = solve_pass(ps, wl, corpus, calibrate)
        ratios.append([t / ((c0 + c1) / 2) for t, c0, c1 in zip(times, cals[-1:] + after, after)])
        cals += after
        walls.append(times)
        passes.append(outcomes)
        if len(setups) < SETUP_PROBES:  # spread the probes over the run
            probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_PROBES:
        probe()
    print(f"perfbench: raw corpus wall time {median_corpus_wall(walls):.4f} s, "
          f"raw set-up {statistics.median(setups):.4f} s, "
          f"calibration {statistics.median(cals):.4f} s (reference host {wl.cal_ref_s} s)", file=sys.stderr)

    rounds = sum(r.iterations for r in passes[0] if not isinstance(r, Exception))
    metrics = {
        "solve_s": metric(corpus_seconds(ratios, wl.cal_ref_s), "s"),
        "rounds": metric(rounds, "count"),
        "setup_s": metric(wl.cal_ref_s * statistics.median(setup_ratios), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return corpus, refs, passes, metrics


def run_traced(np, ps, wl, seed, seconds, workdir):
    tracer = layers.Tracer(ps)
    tracer.install()
    try:
        corpus = build_corpus(np, ps, wl, seed, workdir)
    finally:
        tracer.restore()
    groups = {"setup": tracer.take()}
    refs = [reference.Reference(path) for path, _, _ in corpus]

    untraced, traced, passes = [], [], []
    begin = time.perf_counter()
    while not traced or time.perf_counter() - begin < seconds:
        times, outcomes, _ = solve_pass(ps, wl, corpus)
        untraced.append(times)
        passes.append(outcomes)
        tracer.install()
        try:
            times, outcomes, _ = solve_pass(ps, wl, corpus)
        finally:
            tracer.restore()
        traced.append(times)
        passes.append(outcomes)
        groups[f"pass-{len(traced) - 1}"] = tracer.take()

    # Counts repeat exactly from pass to pass; times are medians over the
    # traced passes, raw wall time with no calibration.  Traced and untraced
    # passes alternate, so a drift in the host's speed hits both alike.
    per_pass = [layers.solve_metrics(spans) for name, spans in groups.items() if name != "setup"]
    values = {
        key: first if unit_of(key) == "count" else statistics.median(m[key] for m in per_pass)
        for key, first in per_pass[0].items()
    }
    values.update(layers.setup_metrics(groups["setup"]))
    values["trace.overhead_s"] = median_corpus_wall(traced) - median_corpus_wall(untraced)
    metrics = {key: metric(value, unit_of(key)) for key, value in values.items()}

    layers.write_spans(OUT / f"spans-{wl.name}-seed{seed}.jsonl", groups)
    return corpus, refs, passes, metrics


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("ms_per_call"):
        return "ms"
    if key.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    np, ps = import_package()
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_probe:
            build_corpus(np, ps, wl, args.seed, workdir)
            print(json.dumps({"setup_s": time.perf_counter() - _START}))
            return 0
        run = run_traced if args.trace else run_untraced
        corpus, refs, passes, metrics = run(np, ps, wl, args.seed, args.seconds, workdir)
        attempted, failed, correct = check_all(corpus, refs, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench: {wl.name} seed {args.seed}: {len(passes)} pass(es) of "
          f"{len(corpus)} solves, {failed} failed", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
