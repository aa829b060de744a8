"""Command-line interface.

Subcommands: ``generate``, ``stats``, ``bijection``, ``moments``,
``enumerate``, ``bounds``, ``experiment``.  Every run echoes its resolved
configuration (and master seed, where one applies) to stderr so any output
can be reproduced from the printed line alone.  Exit codes: 0 success,
1 invalid arguments, 2 resource-guard violations.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds as bnd
from . import oracle
from .bijection import Permutation, fixed_points_after_first, permutation_to_tree, tree_to_permutation
from .errors import ResourceGuardError
from .experiments import EXPERIMENT_ALIASES, EXPERIMENTS, ExperimentConfig, run_experiment, run_workers
from .moments import MomentTable, exact_factorial_moment
from .stats import degree_counts_in_level, degree_histogram, high_degree_fraction, level_sizes, max_degree
from .tree import grow, grow_from_sequence, load_tree, save_tree


def _echo(command: str, settings: dict) -> None:
    printable = {k: v for k, v in settings.items() if v is not None}
    print(f"# urtlab {command} {json.dumps(printable)}", file=sys.stderr)


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part != ""]


def _emit(payload: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(payload if payload.endswith("\n") else payload + "\n")
    else:
        print(payload)


def _load_input_tree(args):
    if args.infile:
        if args.n is not None or args.seed is not None:
            raise ValueError("--in reads the tree's n and seed from the file; drop --n and --seed")
        if args.model is not None:
            raise ValueError("--in reads the tree's model from the file; drop --model")
        return load_tree(args.infile)
    if args.n is None or args.seed is None:
        raise ValueError("provide --in FILE, or --model/--n/--seed to grow a tree")
    return grow(args.model or "uniform", args.n, args.seed)


def _cmd_generate(args) -> int:
    tree = grow(args.model, args.n, args.seed)
    _echo("generate", {"model": args.model, "n": args.n, "seed": args.seed, "out": args.out})
    if args.out:
        save_tree(tree, args.out)
    else:
        print(json.dumps([int(p) for p in tree.parent_sequence()]))
    return 0


def _cmd_stats(args) -> int:
    if args.t is not None and args.k is None:
        raise ValueError("--t needs --k: exceedance fractions are taken per level")
    tree = _load_input_tree(args)
    model = tree.model.name.lower()
    _echo("stats", {"in": args.infile, "model": model, "n": tree.n, "seed": tree.seed,
                    "k": args.k, "t": args.t})
    sizes = level_sizes(tree)
    payload = {
        "n": tree.n,
        "model": model,
        "seed": tree.seed,
        "level_sizes": [int(c) for c in sizes],
        "degree_histogram": {str(d): c for d, c in degree_histogram(tree).items()},
    }
    if tree.n >= 2:
        payload["max_degree"] = max_degree(tree)
    if args.k is not None:
        ks = _ints(args.k)
        payload["level_profiles"] = [degree_counts_in_level(tree, k).to_dict() for k in ks]
        if args.t is not None:
            ts = _floats(args.t)
            payload["exceedance_fractions"] = [
                {"k": k, "t": t, "fraction": high_degree_fraction(tree, k, t)}
                for k in ks
                for t in ts
            ]
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_bijection(args) -> int:
    sources = [args.parents is not None, args.perm is not None, args.infile is not None]
    if sum(sources) != 1:
        raise ValueError("provide exactly one of --parents, --perm, --in")
    _echo("bijection", {"parents": args.parents, "perm": args.perm, "in": args.infile,
                        "fixed_points": args.fixed_points or None})
    if args.perm is not None:
        perm = Permutation(tuple(_ints(args.perm)))
        if args.fixed_points:
            print(fixed_points_after_first(perm))
        else:
            tree = permutation_to_tree(perm)
            print(json.dumps([int(p) for p in tree.parent_sequence()]))
        return 0
    if args.parents is not None:
        tree = grow_from_sequence(_ints(args.parents))
    else:
        tree = load_tree(args.infile)
    perm = tree_to_permutation(tree)
    if args.fixed_points:
        print(fixed_points_after_first(perm))
    else:
        print(perm.to_json())
    return 0


def _cmd_moments(args) -> int:
    if args.ns is not None and not args.table:
        raise ValueError("--ns needs --table; without it moments prints the one value at --n")
    k = _ints(args.k)
    _echo("moments", {"n": args.n, "k": args.k, "table": args.table or None, "ns": args.ns})
    if args.table:
        ns = _ints(args.ns) if args.ns else [args.n]
        table = MomentTable(k, ns)
        if args.out:
            with open(args.out, "w") as fh:
                table.write_csv(fh)
        else:
            table.write_csv(sys.stdout)
        return 0
    value = exact_factorial_moment(args.n, k)
    print(value)
    return 0


def _cmd_enumerate(args) -> int:
    params = {}
    if args.d is not None:
        params["d"] = args.d
    if args.k is not None:
        params["k"] = args.k
    if args.t is not None:
        params["t"] = args.t
    _echo("enumerate", {"n": args.n, "statistic": args.statistic, **params})
    dist = oracle.exact_statistic_distribution(args.n, args.statistic, **params)
    payload = dist.to_dict()
    e = dist.expectation()
    payload["expectation"] = f"{e.numerator}/{e.denominator}"
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_bounds(args) -> int:
    _echo("bounds", {"i": args.i, "n": args.n, "a": args.a, "t": args.t, "eps": args.eps})
    payload: dict = {}
    if args.i is not None:
        if args.n is None:
            raise ValueError("--i needs --n")
        s = bnd.expected_children(args.i, args.n)
        payload["i"] = args.i
        payload["n"] = args.n
        payload["s"] = s
        if args.a is not None:
            a = args.a
            payload["a"] = a
            if a > s:
                payload["upper_tail_bound"] = bnd.upper_tail_bound(a, s)
                payload["chernoff_upper_raw"] = bnd.chernoff_upper_raw(a, s)
            elif a < s:
                payload["lower_tail_bound"] = bnd.lower_tail_bound(a, s)
            # P(X >= a) pairs with the upper bound, P(X <= a) with the lower
            strict_below = a - 1 if float(a).is_integer() else a
            payload["exact_tail_geq_a"] = float(oracle.degree_tail(args.i, args.n, strict_below))
            payload["exact_tail_leq_a"] = float(oracle.degree_head(args.i, args.n, a))
    if args.t is not None:
        if args.n is None:
            raise ValueError("--t needs --n")
        if args.eps is None:
            raise ValueError("--t needs --eps")
        high, low = bnd.tail_bound_pair(args.n, args.t, args.eps)
        payload["high_index_bound"] = high
        payload["low_index_bound"] = low
    if not payload:
        raise ValueError("nothing to compute: provide --i/--n [--a] and/or --t/--eps/--n")
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig(
        experiment=args.id,
        n_grid=tuple(_ints(args.n)),
        replications=args.reps,
        seed=args.seed,
        model=args.model,
        k_grid=tuple(_ints(args.k)),
        t_grid=tuple(_floats(args.t)),
        d_max=args.dmax,
        eps=args.eps,
        workers=args.workers,
    )
    _echo("experiment", {"id": args.id, **config.to_dict(), "workers": run_workers(config),
                         "out": args.out, "format": args.format})
    report = run_experiment(config)
    if args.out:
        report.write(args.out, args.format)
        print(f"# wrote {args.out} ({args.format}, {len(report.rows)} rows, "
              f"{report.runtime_ms} ms)", file=sys.stderr)
    else:
        print(report.render(args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urtlab",
        description="Random recursive tree laboratory: growth, exact oracles, "
        "tail bounds and seeded Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="grow a tree and dump it (URT1 binary)")
    p.add_argument("--model", default="uniform", choices=["uniform", "preferential"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="binary output path; omit to print the parent sequence")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("stats", help="level sizes, degree histogram and exceedance fractions")
    p.add_argument("--in", dest="infile", help="URT1 binary produced by generate")
    p.add_argument("--model", choices=["uniform", "preferential"],
                   help="growth model with --n/--seed (default uniform)")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--k", help="comma-separated levels for per-level output")
    p.add_argument("--t", help="comma-separated thresholds in (0,1), at the --k levels")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("bijection", help="tree <-> permutation translation")
    p.add_argument("--parents", help="comma-separated attachment targets of nodes 1..n-1")
    p.add_argument("--perm", help="comma-separated one-indexed permutation values")
    p.add_argument("--in", dest="infile", help="URT1 binary input")
    p.add_argument("--fixed-points", action="store_true",
                   help="print the count of fixed points at positions 2..n")
    p.set_defaults(fn=_cmd_bijection)

    p = sub.add_parser("moments", help="exact joint factorial moments of level-1 degree counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", required=True, help="comma-separated exponent vector, e.g. 0,1")
    p.add_argument("--table", action="store_true", help="emit CSV over --ns instead of one value")
    p.add_argument("--ns", help="comma-separated n values for --table")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_moments)

    p = sub.add_parser("enumerate", help="exact law of a statistic by full enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--statistic", default="max_degree", choices=sorted(oracle.STATISTICS))
    p.add_argument("--d", type=int, help="degree parameter (level_degree_count)")
    p.add_argument("--k", type=int, help="level parameter")
    p.add_argument("--t", type=float, help="threshold parameter (exceedance_count)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("bounds", help="tail bounds, expected children, exact tails")
    p.add_argument("--i", type=int, help="node index")
    p.add_argument("--n", type=int, help="attachment steps")
    p.add_argument("--a", type=float, help="tail threshold for the child count")
    p.add_argument("--t", type=float, help="degree exponent in (0,1)")
    p.add_argument("--eps", type=float, help="index-cutoff slack")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("experiment", help="run a seeded Monte Carlo experiment")
    ids = sorted(EXPERIMENTS) + sorted(EXPERIMENT_ALIASES)
    p.add_argument("id", choices=ids, metavar="id",
                   help="one of: " + ", ".join(ids))
    p.add_argument("--n", required=True, help="comma-separated n grid")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--model", default="uniform", choices=["uniform", "preferential"])
    p.add_argument("--k", default="1", help="comma-separated level grid")
    p.add_argument("--t", default="0.5", help="comma-separated threshold grid")
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(fn=_cmd_experiment)

    return parser


def cli_main(argv=None) -> int:
    """Entry point returning the process exit code (0/1/2)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; normalize its code to the contract
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
