"""Command-line front end.

Subcommands operate on a diagram named either by a built-in family
(car, pascal, fibonacci, uhf3) or by a path to a diagram file:

    afpath validate SOURCE                 check the diagram axioms
    afpath counts SOURCE [--level N]       per-vertex rooted-path counts
    afpath dims SOURCE [--max-level N]     block sizes and total dimension
    afpath embed-matrix SOURCE --level N   multiplicities realized by embedding stage N
    afpath verify SOURCE [--seed S] [--samples K] [--suite NAME]...
                                           run the verification suites, print a report

Exit status: 0 on success/PASS, 1 on a failed check or invalid diagram,
2 on unusable input (unreadable file, malformed diagram, bad options).
"""

import argparse
import functools
import itertools
import sys
from operator import mul

from .diagram import BUILTIN_NAMES, DiagramParseError
from .af_tower import embed_multiplicities
from .harness import SUITE_NAMES, VerifyConfig, render_report, resolve_diagram, run_suites


def build_parser():
    ap = argparse.ArgumentParser(
        prog="afpath",
        description="Path combinatorics, averaging operators, and matrix-unit "
        "towers over truncated layered multigraphs, in exact arithmetic.",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    def add_source(p):
        p.add_argument(
            "source",
            help="built-in diagram (%s) or path to a diagram file" % ", ".join(BUILTIN_NAMES),
        )
        p.add_argument(
            "--depth",
            type=int,
            default=None,
            metavar="D",
            help="build a built-in at this depth, or truncate a file diagram to it",
        )

    p = sub.add_parser("validate", help="check the diagram axioms")
    add_source(p)

    p = sub.add_parser("counts", help="rooted-path counts per vertex, level by level")
    add_source(p)
    p.add_argument(
        "--level",
        type=int,
        default=None,
        metavar="N",
        help="report a single level instead of all of them",
    )

    p = sub.add_parser("dims", help="block sizes and total dimension, level by level")
    add_source(p)
    p.add_argument(
        "--max-level",
        type=int,
        default=None,
        metavar="N",
        help="stop the table at this level (default: the full depth)",
    )

    p = sub.add_parser(
        "embed-matrix",
        help="multiplicity matrix realized by embedding stage N into stage N+1",
    )
    add_source(p)
    p.add_argument(
        "--level",
        type=int,
        required=True,
        metavar="N",
        help="stage to embed (0 <= N < depth)",
    )

    p = sub.add_parser("verify", help="run the verification suites and print a report")
    add_source(p)
    p.add_argument("--seed", type=int, default=7, help="seed for the per-suite RNG streams (default 7)")
    p.add_argument(
        "--samples", type=int, default=20, help="random samples per parameter point (default 20)"
    )
    p.add_argument(
        "--suite",
        action="append",
        default=None,
        metavar="NAME",
        choices=SUITE_NAMES,
        help="run only the named suite; repeatable (default: all of %s)" % ", ".join(SUITE_NAMES),
    )
    return ap


def _load(args):
    config = VerifyConfig(source=args.source, depth=args.depth)
    return resolve_diagram(config)


def _reject_invalid(d):
    """Print violations to stderr when the diagram is invalid; None when fine."""
    violations = d.validate()
    if not violations:
        return None
    print("invalid diagram:", file=sys.stderr)
    for v in violations:
        print("  " + v, file=sys.stderr)
    return 1


def _cmd_validate(args):
    d = _load(args)
    violations = d.validate()
    for v in violations:
        print(v)
    if violations:
        print("invalid: %d violation%s" % (len(violations), "" if len(violations) == 1 else "s"))
        return 1
    print("valid: depth=%d vertices=%s" % (d.depth, " ".join(str(c) for c in d.vertex_counts)))
    return 0


def _cmd_counts(args):
    d = _load(args)
    bad = _reject_invalid(d)
    if bad:
        return bad
    # Read level by level, so a deep diagram never holds every level's counts.
    levels = enumerate(d._count_levels())
    if args.level is not None:
        # Reject an out-of-range level before anything is printed.
        d._check_level(args.level)
        levels = itertools.islice(levels, args.level, args.level + 1)
    for n, counts in levels:
        print(
            "level %d: vertices=%d counts=%s total=%d"
            % (n, len(counts), " ".join(map(str, counts)), sum(counts))
        )
    return 0


def _cmd_dims(args):
    d = _load(args)
    bad = _reject_invalid(d)
    if bad:
        return bad
    top = d.depth if args.max_level is None else args.max_level
    if not 0 <= top <= d.depth:
        raise ValueError("max level %d out of range 0..%d" % (top, d.depth))
    for n, sizes in zip(range(top + 1), d._count_levels()):
        print(
            "level %d: blocks=%s dimension=%d"
            % (n, " ".join(map(str, sizes)), sum(map(mul, sizes, sizes)))
        )
    return 0


def _cmd_embed_matrix(args):
    d = _load(args)
    bad = _reject_invalid(d)
    if bad:
        return bad
    n = args.level
    if not 0 <= n < d.depth:
        raise ValueError("level %d out of range 0..%d" % (n, d.depth - 1))
    rows = embed_multiplicities(d, n)
    print("# realized multiplicities, stage %d -> %d" % (n, n + 1))
    for row in rows:
        print(" ".join(str(x) for x in row))
    match = rows == d._dense_level(n)
    print("match=%s" % ("yes" if match else "no"))
    return 0 if match else 1


def _cmd_verify(args):
    suites = tuple(args.suite) if args.suite is not None else None
    config = VerifyConfig(
        source=args.source,
        depth=args.depth,
        seed=args.seed,
        samples=args.samples,
        suites=suites,
    )
    d = resolve_diagram(config)
    results = run_suites(config, d)
    sys.stdout.write(render_report(config, results, depth=d.depth))
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "counts": _cmd_counts,
    "dims": _cmd_dims,
    "embed-matrix": _cmd_embed_matrix,
    "verify": _cmd_verify,
}


# One parser for every call: a parser is a reference cycle, so building one
# per call would leave it to the cyclic collector.
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DiagramParseError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def entry_point():
    sys.exit(main())
