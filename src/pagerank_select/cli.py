"""Command-line surface: validate and generate instance files, run the exact
solver or the brute-force twin, and compare the cut families.

Exit codes: 0 success, 1 input error, 2 infeasible, 3 iteration or
enumeration limit.  All randomness flows from --seed flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import bruteforce, chain, cuts as cut_families, master, oracle, solver
from .errors import Infeasible, PagerankSelectError, TooLargeToEnumerate
from .instance import EMPTY_CONSTRAINTS, diagnose, generate_random, load_json, read_instance, write_instance

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3

VALIDITY_SLACK = 1e-8


def _bits(y) -> str:
    return "".join(map(str, y)) if len(y) else "-"


def cmd_validate(args) -> int:
    inst, problems = diagnose(load_json(args.file))  # the instance fields and the constraints
    if problems:
        for msg in problems:
            print(f"invalid: {msg}", file=sys.stderr)
        return EXIT_INPUT
    print(
        f"ok: {inst.n} nodes, {len(inst.edges)} fixed edges, "
        f"{inst.z_count} fragile edges, target {inst.target}, damping {inst.damping}"
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    inst, constraints = read_instance(args.file)
    report = solver.solve(
        inst,
        constraints,
        family=args.cuts,
        ordering_strategy=args.ordering,
        eps=args.eps,
        max_iters=args.max_iters,
    )
    print(
        f"optimum {report.best_value:.12g}  selection {_bits(report.best_y)}  "
        f"iterations {report.iterations}  "
        f"gamma_calls {report.gamma_calls_total}"
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_json(), fh, indent=2)
            fh.write("\n")
    return EXIT_OK if report.status == solver.OPTIMAL else EXIT_LIMIT


def cmd_brute(args) -> int:
    inst, constraints = read_instance(args.file)
    y, value = bruteforce.bf_min(inst, constraints)
    print(f"optimum {value:.12g}  selection {_bits(y)}  iterations 1  gamma_calls 0")
    return EXIT_OK


def cmd_gen(args) -> int:
    inst, constraints = generate_random(
        args.n, args.density, args.fragile, args.constraint, seed=args.seed
    )
    write_instance(args.out, inst, constraints)
    print(
        f"wrote {args.out}: n={inst.n} |E|={len(inst.edges)} |Z|={inst.z_count} "
        f"target={inst.target}"
    )
    return EXIT_OK


def _selections(constraints, z_count):
    """The feasible selections as int tuples, in lexicographic order."""
    return list(map(tuple, master.feasible_set(constraints, z_count).points.astype(np.int64).tolist()))


def _sample_incumbents(feasible, trials, rng):
    picks = rng.choice(len(feasible), size=min(trials, len(feasible)), replace=False)
    return sorted({feasible[int(i)] for i in picks})


def cmd_compare_cuts(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be nonnegative, got {args.trials}")
    inst, constraints = read_instance(args.file)
    z_count = inst.z_count
    feasible = _selections(constraints, z_count)
    cube = _selections(EMPTY_CONSTRAINTS, z_count)
    memo = oracle.Memo(inst)  # one per run, shared by every cut built below
    fr_at = {y: chain.low_rank_hitting_times(memo.walk, y).fr for y in cube}

    rng = np.random.default_rng(args.seed)
    incumbents = _sample_incumbents(feasible, args.trials, rng)
    families = cut_families.FAMILIES
    lower_bound = oracle.min_unconstrained(inst, memo=memo)  # the sharpest legal lshaped bound
    iteration_counts = [
        solver.solve(inst, constraints, family=family, ordering_strategy=args.ordering).iterations
        for family in families
    ]

    rows = []
    for incumbent in incumbents:
        lshaped = cut_families.l_shaped_cut(inst, incumbent, lower_bound, memo)
        new = cut_families.new_cut(inst, incumbent, memo)
        ordering = cut_families.make_lift_ordering(inst, incumbent, args.ordering, memo)
        built = [lshaped, new, cut_families.lifted_cut(inst, incumbent, ordering, memo)]  # in the order of families
        for family, cut in zip(families, built):
            worst = max(
                (cut_families.eval_cut(cut, y) - fr_at[y] for y in cube),
                default=0.0,
            )
            if worst > VALIDITY_SLACK:
                print(
                    f"error: {family} cut at {_bits(incumbent)} violates validity by {worst:.3e}",
                    file=sys.stderr,
                )
                return EXIT_INPUT
        for edge_id in range(z_count):
            coeffs = [f"{cut_families.construction_coefficient(cut, edge_id):.12g}" for cut in built]
            rows.append([Path(args.file).stem, _bits(incumbent), edge_id, *coeffs, *iteration_counts])
    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["instance_id", "incumbent", "edge_id"]
        + [f"coeff_{family}" for family in families]
        + [f"family_iterations_{family}" for family in families]
    )
    writer.writerows(rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pagerank-select",
        description="Exact cutting-plane solver for PageRank optimization by fragile-edge selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="run the cutting-plane solver")
    p.add_argument("file")
    p.add_argument("--cuts", choices=cut_families.FAMILIES, default=cut_families.DEFAULT_FAMILY)
    p.add_argument("--ordering", choices=cut_families.ORDERING_STRATEGIES, default=cut_families.BY_INDEX)
    p.add_argument("--eps", type=float, default=solver.DEFAULT_EPS)
    p.add_argument("--max-iters", type=int, default=solver.DEFAULT_MAX_ITERS)
    p.add_argument("--out", default=None, help="write the solve report JSON here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("brute", help="exhaustive reference solve")
    p.add_argument("file")
    p.set_defaults(func=cmd_brute)

    p = sub.add_parser("compare-cuts", help="build all cut families at random incumbents, emit CSV")
    p.add_argument("file")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ordering", choices=cut_families.ORDERING_STRATEGIES, default=cut_families.BY_INDEX)
    p.set_defaults(func=cmd_compare_cuts)

    p = sub.add_parser("gen", help="write a seeded random instance file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--fragile", type=int, required=True)
    p.add_argument("--constraint", default="none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TooLargeToEnumerate as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (PagerankSelectError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
