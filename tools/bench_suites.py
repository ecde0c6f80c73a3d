"""Time named verify suites of one source in process.

    python3 tools/bench_suites.py SOURCE [--depth D] [--seed S] [--samples K]
        [--suite NAME]... [--rounds R] [--src DIR [--src DIR]]

SOURCE is a built-in name or a diagram file, as for ``afpath verify``.  Each
named suite (all seven by default) is timed on its own: a round builds the
diagram afresh, so every memo table starts cold as in a new ``afpath
verify SOURCE --suite NAME`` process, and times ``run_suites`` on it (the
validation suite, which ``run_suites`` always runs first, included).  One
line per suite gives the median seconds over ``--rounds`` rounds and the
sha256 of that run's report, the bytes ``afpath verify SOURCE --suite NAME``
prints.  ``--src`` imports afpath from another checkout's ``src/``.  Given
twice, it loads both trees in one process under distinct package names (as
``tools/bench_product.py`` does), runs each suite's rounds of the two in
turn with the order swapped every round, and prints both medians, the
ratio of the second to the first, the spread of the first tree's rounds
(the distance between their quartiles over their median) and both report
sha256s.
"""

import argparse
import hashlib
import os
import statistics
import sys
import time

from bench_product import ROOT, load


def run_once(tree, source, depth, seed, samples, suite):
    """``(seconds, report sha256)`` of one run of ``suite`` on a fresh diagram."""
    harness = tree.harness
    config = harness.VerifyConfig(source=source, depth=depth, seed=seed, samples=samples, suites=(suite,))
    d = harness.resolve_diagram(config)
    start = time.perf_counter()
    results = harness.run_suites(config, d)
    seconds = time.perf_counter() - start
    report = harness.render_report(config, results, depth=d.depth)
    return seconds, hashlib.sha256(report.encode("utf-8")).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("source", help="a built-in name or a diagram file")
    ap.add_argument("--depth", type=int, default=None)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--samples", type=int, default=20)
    ap.add_argument("--suite", action="append", help="a suite to time (repeatable; all by default)")
    ap.add_argument("--rounds", type=int, default=5, help="timed runs of each suite per tree")
    ap.add_argument("--src", action="append", help="a src/ directory to import afpath from; give it twice to compare two trees")
    args = ap.parse_args(argv)
    srcs = args.src or [os.path.join(ROOT, "src")]
    if len(srcs) > 2:
        ap.error("--src is given at most twice")
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    trees = [load(src, "afpath_%d" % t) for t, src in enumerate(srcs)]
    suites = args.suite or trees[0].SUITE_NAMES
    for suite in suites:
        times = [[] for _ in trees]
        digests = [set() for _ in trees]
        for r in range(args.rounds):
            order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
            for t in order:
                seconds, digest = run_once(trees[t], args.source, args.depth, args.seed, args.samples, suite)
                times[t].append(seconds)
                digests[t].add(digest)
        # A report is a pure function of the configuration, so the rounds of
        # one tree agree; a second digest would mean they did not.
        shas = [" ".join(sorted(ds)) for ds in digests]
        medians = [statistics.median(ts) for ts in times]
        if len(trees) == 1:
            print("%-14s %9.3f s  sha256 %s  (%d rounds)" % (suite, medians[0], shas[0], args.rounds))
        else:
            q1, _, q3 = statistics.quantiles(times[0], n=4) if args.rounds > 1 else (0, 0, 0)
            ratio, spread = medians[1] / medians[0], (q3 - q1) / medians[0]
            print(
                "%-14s %9.3f %9.3f s  %6.3fx  spread %5.3f  sha256 %s %s  (%d rounds)"
                % (suite, *medians, ratio, spread, *shas, args.rounds)
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
