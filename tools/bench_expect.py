"""Time the averaging maps on fixed seeded functions, one case per partition shape.

    python3 tools/bench_expect.py [--calls N] [--src DIR]

Prints one line per map and case: the microseconds per call of
``afpath.expect`` and ``afpath.class_sum``, then one ``quasi-basis`` line
for ``afpath.quasi_basis_apply`` on the ``mixed`` case.  The cases are the
three shapes of the level-n tail-class partition that
``_exact.class_average`` tells apart:

- ``one-class``: uhf3 at level 3, averaged at n = 3 (one class of 27 paths);
- ``singletons``: pascal at level 6, averaged at n = 1 (64 classes of one
  path, so the map is the identity);
- ``mixed``: pascal at level 6, averaged at n = 3 (32 classes of 1 or 3
  paths).

Each function is drawn by ``random_cylinder`` from one seeded RNG, so every
run times the same tables.  One call of each map is made before timing, so
the memoized partition is built outside the timed rounds.  A round makes
``--calls`` calls and each line reports the best of three rounds.  ``--src``
imports afpath from another checkout's ``src/``, so the same functions can
be timed before and after a change.
"""

import argparse
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (label, built-in diagram, level of the function, n)
CASES = (
    ("one-class", "uhf3", 3, 3),
    ("singletons", "pascal", 6, 1),
    ("mixed", "pascal", 6, 3),
)


def best_us(op, f, n, calls):
    """The best of three rounds of ``calls`` calls, in microseconds per call."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            op(f, n)
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--calls", type=int, default=2000, help="calls per round")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="the src/ directory to import afpath from")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import afpath

    rng = random.Random(17)
    lines = []
    for label, name, level, n in CASES:
        d = afpath.builtin_diagram(name)
        f = afpath.random_cylinder(d, level, rng)
        for op in (afpath.expect, afpath.class_sum):
            lines.append(("%s %s" % (op.__name__, label), op, f, n))
    # The quasi-basis sum reads the same memoized plan as expect.
    lines.append(("quasi-basis mixed", afpath.quasi_basis_apply, f, n))
    for label, op, f, n in lines:
        op(f, n)
        us = best_us(op, f, n, args.calls)
        print("%-22s %10.1f us/call  (%d calls)" % (label, us, args.calls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
