"""Command-line interface.

Subcommands: ``generate``, ``stats``, ``bijection``, ``moments``,
``enumerate``, ``bounds``, ``experiment``.  Every run echoes its resolved
configuration (and master seed, where one applies) to stderr so any output
can be reproduced from the printed line alone.  Exit codes: 0 success,
1 invalid arguments, 2 resource-guard violations; a refusal is one
``error:`` line on stderr.  Every command refuses a setting it cannot run
before its echo: ``experiment`` builds its config first, and the others
check their settings or compute their answer first.  ``experiment`` names
a setting by the flag and the value as typed, e.g. ``--reps 0`` or
``--k 1,2``, and refuses a missing ``--reps`` or ``--seed`` only where the
experiment reads it (``tail_vs_bound`` reads neither).  Its echo holds the
settings the report's ``config`` holds, and the worker count, output path
and format beside them.  A comma-separated value that does not parse is
refused before any echo, with its flag and text as typed.  Only an
experiment's resource guard (exit 2) may refuse after the echo, and then
before any replication runs.  An ``--out`` path that cannot be written is
refused before anything else, and is not created.

``_emit`` writes every text result, once the command has computed it: to
the ``--out`` file where the command takes one and it is given, otherwise to
stdout, with the same bytes either way.  Only ``generate --out`` differs: it
writes the tree's URT1 binary dump in place of the printed parent sequence.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from . import bounds as bnd
from . import oracle
from .bijection import Permutation, fixed_points_after_first, permutation_to_tree, tree_to_permutation
from .errors import EmptyLevelError, ResourceGuardError
from .experiments import (EXPERIMENT_ALIASES, EXPERIMENTS, FLAGS, GRIDS, ExperimentConfig,
                          run_experiment, run_workers)
from .moments import MomentTable, exact_factorial_moment, fraction_text
from .stats import (degree_counts_in_level, degree_histogram, exceedance_threshold,
                    level_sizes, max_degree)
from .tree import grow, grow_from_sequence, load_tree, save_tree


def _echo(command: str, settings: dict) -> None:
    # a non-finite float is echoed as its text ("inf"), which keeps the line JSON
    printable = {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
                 for k, v in settings.items() if v is not None}
    print(f"# urtlab {command} {json.dumps(printable)}", file=sys.stderr)


def _values(text: str, kind, flag: str) -> list:
    """The comma-separated values of ``text``, given to ``flag``, as ``kind``;
    empty parts are skipped."""
    try:
        return [kind(part) for part in text.split(",") if part != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} takes comma-separated {noun}, got {flag} {text}") from None


def _given(args, flags: dict) -> dict:
    """``{key: value}`` of each ``key: flag`` in ``flags`` whose flag was given."""
    return {key: getattr(args, flag[2:]) for key, flag in flags.items()
            if getattr(args, flag[2:]) is not None}


def _emit(result, out) -> None:
    """Write text, newline-ended, or what ``result(fh)`` writes, to ``out`` or stdout."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        if isinstance(result, str):
            fh.write(result if result.endswith("\n") else result + "\n")
        else:
            result(fh)


def _check_out(out) -> None:
    """Refuse an ``--out`` path that cannot be written, without creating it."""
    if not out:  # an empty --out writes to stdout
        return
    folder = os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out):
        reason = "it is a directory"
    elif not os.path.isdir(folder):
        reason = f"no directory {folder}"
    elif not os.access(out if os.path.exists(out) else folder, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise ValueError(f"cannot write --out {out}: {reason}")


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
        _emit(json.dumps([int(p) for p in tree.parent_sequence()]), None)
    return 0


def _cmd_stats(args) -> int:
    if args.t is not None and args.k is None:
        raise ValueError("--t needs --k: exceedance fractions are taken per level")
    ks = [] if args.k is None else _values(args.k, int, "--k")
    ts = [] if args.t is None else _values(args.t, float, "--t")
    if ks and min(ks) < 0:
        raise ValueError(f"level k must be >= 0, got {min(ks)}")
    tree = _load_input_tree(args)
    thresholds = [exceedance_threshold(tree.n, t) for t in ts]  # refuses a t outside (0, 1)
    profiles = [degree_counts_in_level(tree, k) for k in ks]
    empty = [p.k for p in profiles if p.level_size == 0]
    if thresholds and empty:
        raise EmptyLevelError(f"level {empty[0]} is empty (n={tree.n})")
    model = tree.model.name.lower()
    _echo("stats", {"in": args.infile, "model": model, "n": tree.n, "seed": tree.seed,
                    "k": args.k, "t": args.t, "out": args.out})
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
        payload["level_profiles"] = [p.to_dict() for p in profiles]
        if args.t is not None:
            payload["exceedance_fractions"] = [
                {"k": p.k, "t": t, "fraction": p.exceeding(threshold) / p.level_size}
                for p in profiles
                for t, threshold in zip(ts, thresholds)
            ]
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_bijection(args) -> int:
    sources = [args.parents is not None, args.perm is not None, args.infile is not None]
    if sum(sources) != 1:
        raise ValueError("provide exactly one of --parents, --perm, --in")
    parents = None if args.parents is None else _values(args.parents, int, "--parents")
    image = None if args.perm is None else _values(args.perm, int, "--perm")
    if image is not None:
        perm = Permutation(tuple(image))
    elif parents is not None:
        perm = tree_to_permutation(grow_from_sequence(parents))
    else:
        perm = tree_to_permutation(load_tree(args.infile))
    if args.fixed_points:
        answer = str(fixed_points_after_first(perm))
    elif args.perm is not None:
        answer = json.dumps([int(p) for p in permutation_to_tree(perm).parent_sequence()])
    else:
        answer = perm.to_json()
    _echo("bijection", {"parents": args.parents, "perm": args.perm, "in": args.infile,
                        "fixed_points": args.fixed_points or None})
    _emit(answer, None)
    return 0


def _cmd_moments(args) -> int:
    if args.ns is not None and not args.table:
        raise ValueError("--ns needs --table; without it moments prints the one value at --n")
    if (args.n is None) == (args.ns is None):
        raise ValueError("give exactly one of --n and --ns")
    k = _values(args.k, int, "--k")
    ns = [args.n] if args.ns is None else _values(args.ns, int, "--ns")
    if args.table:
        result = MomentTable(k, ns).write_csv
    else:
        result = fraction_text(exact_factorial_moment(args.n, k))
    _echo("moments", {"n": args.n, "k": args.k, "table": args.table or None, "ns": args.ns,
                      "out": args.out})
    _emit(result, args.out)
    return 0


def _cmd_enumerate(args) -> int:
    params = _given(args, {"d": "--d", "k": "--k", "t": "--t"})
    oracle.checked_statistic(args.n, args.statistic, **params)
    _echo("enumerate", {"n": args.n, "statistic": args.statistic, **params, "out": args.out})
    dist = oracle.exact_statistic_distribution(args.n, args.statistic, **params)
    payload = dist.to_dict()
    e = dist.expectation()
    payload["expectation"] = f"{e.numerator}/{e.denominator}"
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_bounds(args) -> int:
    for flag, needed in (("i", "n"), ("a", "i"), ("t", "n"), ("t", "eps"), ("eps", "t")):
        if getattr(args, flag) is not None and getattr(args, needed) is None:
            raise ValueError(f"--{flag} needs --{needed}")
    payload: dict = {}
    if args.i is not None:
        s = bnd.expected_children(args.i, args.n)
        payload["i"] = args.i
        payload["n"] = args.n
        payload["s"] = s
        if args.a is not None:
            a = args.a
            payload["a"] = a
            if s > 0 and a > s:  # both bounds need s > 0; at i = n, X = 0 and the tails are exact
                payload["upper_tail_bound"] = bnd.upper_tail_bound(a, s)
                payload["chernoff_upper_raw"] = bnd.chernoff_upper_raw(a, s)
            elif s > 0 and a < s:
                payload["lower_tail_bound"] = bnd.lower_tail_bound(a, s)
            # P(X >= a) pairs with the upper bound, P(X <= a) with the lower
            strict_below = a - 1 if float(a).is_integer() else a
            payload["exact_tail_geq_a"] = float(oracle.degree_tail(args.i, args.n, strict_below))
            payload["exact_tail_leq_a"] = float(oracle.degree_head(args.i, args.n, a))
    if args.t is not None:
        payload["high_index_bound"] = bnd.tail_bound_high_index(args.n, args.t, args.eps)
        payload["low_index_bound"] = bnd.tail_bound_low_index(args.n, args.t, args.eps)
    if not payload:
        raise ValueError("nothing to compute: provide --i/--n [--a] and/or --t/--eps/--n")
    _echo("bounds", {"i": args.i, "n": args.n, "a": args.a, "t": args.t, "eps": args.eps,
                     "out": args.out})
    _emit(json.dumps(payload, indent=2, allow_nan=False), args.out)
    return 0


def _cmd_experiment(args) -> int:
    # a flag left out takes ExperimentConfig's default; the config refuses bad settings
    settings = {field: _values(value, GRIDS[field], FLAGS[field]) if field in GRIDS else value
                for field, value in _given(args, FLAGS).items()}
    config = ExperimentConfig(args.id, **settings)
    _echo("experiment", {"id": args.id, **config.to_dict(), "workers": run_workers(config),
                         "out": args.out, "format": args.format})
    _emit(run_experiment(config).render(args.format), args.out)
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
    p.add_argument("--n", type=int, help="node count; give it or --ns, not both")
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
    p.add_argument("--reps", type=int, help="replications, where the experiment simulates")
    p.add_argument("--seed", type=int, help="master seed, where the experiment simulates")
    p.add_argument("--model", choices=["uniform", "preferential"])
    p.add_argument("--k", help="comma-separated level grid")
    p.add_argument("--t", help="comma-separated threshold grid")
    p.add_argument("--dmax", type=int)
    p.add_argument("--eps", type=float)
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
        _check_out(getattr(args, "out", None))
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
