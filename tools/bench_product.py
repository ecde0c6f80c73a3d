"""Time the exact pair-table product on fixed seeded operands.

    python3 tools/bench_product.py [--calls N] [--wide W] [--src DIR [--src DIR]]

Prints one line per case: the operands' shapes and the microseconds per call
of ``afpath._exact.product``, the kernel behind ``AfElement.__mul__`` and
``convolve``.  The cases are a matrix unit times a matrix unit, a unit times
a dense 27x27 block, the empty table times a dense 27x27 block (an empty
left operand: the summed pass over no rows), a dense 27x27 block times a
diagonal, car's averaging projection ``e_4`` in stage 5 (32 rows of 16
entries, each row object held by the 16 ids of its tail class) times a
32-entry diagonal, and dense WxW blocks times dense WxW blocks for W = 27
and W = ``--wide`` (294 by default: the largest tail class of the 7, 7, 6
file diagram).  Then
two WxW blocks whose rows each drop 3 entries (many column lists), one
W-wide row times a one-row diagonal (the second product of a word), uhf3's
``e_3 * D`` times ``e_3`` at level 3 (27 ids sharing one row on each side),
the 0/1 identity on 32 ids times car's ``e_4`` in stage 5, a diagonal
that is constant on each tail class of ``e_4`` times ``e_4`` in stage 5
(the ``diag(E_n f) * e_n`` sandwich: one row product per class), and two
operands of 10 column-disjoint 30x30 blocks whose rows each drop 3 entries
(the ten-vertex file's shape: each block's rows fall into many column
lists that join into one part), and a 41-entry diagonal times the 0/1
identity on 41 ids (the tower suite's ``D_f * e_0`` on the verify-sparse
file diagram at level 4: one-entry rows times one-entry rows).  Dense entries are Gaussian integers with
parts in [-108, 108] over a denominator, drawn from one seeded RNG, so
every run times the same operands.

A round makes ``--calls`` calls of a case, or ``--calls * 27 / N`` (at
least one) of a case whose larger operand holds N > 27 entries, and each
case reports the median of 11 rounds.  ``--src`` imports afpath
from another checkout's ``src/``.  Given twice, it loads both trees in one
process under distinct package names, times each case's rounds of the two
in turn (the order swapped every round, so a drift in host speed falls on
both), and prints both medians, the ratio of the second to the first, and
the spread of the first tree's rounds (the distance between their
quartiles over their median): a before and after of the same operands on
one host, and how far apart the rounds of one tree fall.
"""

import argparse
import importlib.util
import os
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = 11


def dense(exact, rng, width):
    """A dense width x width row index with mixed-sign Gaussian entries over 35."""
    rows = {}
    for i in range(width):
        res = [rng.randint(-108, 108) or 1 for _ in range(width)]
        ims = [rng.randint(-108, 108) for _ in range(width)]
        rows[i] = (list(range(width)), res, ims)
    return exact.indexed(35, rows)


def dropped(exact, rng, width, drops=3, blocks=1):
    """``blocks`` dense width x width blocks on disjoint ids, with ``drops``
    entries of each row dropped, as zero entries of a random element are:
    the rows of a block fall into many column lists."""
    rows = {}
    for i in range(width * blocks):
        start = i - i % width
        cells = [(start + j, rng.randint(-108, 108) or 1, rng.randint(-108, 108)) for j in range(width)]
        for _ in range(min(drops, width - 1)):
            del cells[rng.randrange(len(cells))]
        rows[i] = tuple(map(list, zip(*cells)))
    return exact.indexed(35, rows)


def diagonal(exact, rng, size):
    """A size x size diagonal row index with Gaussian entries over 6."""
    return exact.indexed(6, {g: ([g], [rng.randint(-9, 9) or 1], [rng.randint(-9, 9)]) for g in range(size)})


def operands(afpath, wide, seed=14):
    """The (label, a, b) of each case, built from one seeded RNG."""
    exact = afpath._exact
    rng = random.Random(seed)
    unit = exact.unit
    diag = diagonal(exact, rng, 27)
    d27, e27, big, big2 = dense(exact, rng, 27), dense(exact, rng, 27), dense(exact, rng, wide), dense(exact, rng, wide)
    # Drawn last, so the other cases keep their operands.
    diag32 = diagonal(exact, rng, 32)
    jones = afpath.jones_projection(afpath.builtin_diagram("car"), 4, 5)._index
    # Drawn after the cases above, so those keep their operands.
    drop, drop2 = dropped(exact, rng, wide), dropped(exact, rng, wide)
    k = wide // 2
    diag1 = exact.indexed(6, {k: ([k], [rng.randint(1, 9)], [rng.randint(-9, 9)])})
    e3 = afpath.jones_projection(afpath.builtin_diagram("uhf3", 3), 3)._index
    e3d = exact.product(e3, diagonal(exact, rng, 27))
    # Drawn after every case above, so those keep their operands.
    _, class_of = afpath.builtin_diagram("car").tail_classes(5, 4)
    parts = [(rng.randint(-9, 9) or 1, rng.randint(-9, 9)) for _ in range(max(class_of) + 1)]
    ediag = exact.indexed(6, {g: ([g], [parts[c][0]], [parts[c][1]]) for g, c in enumerate(class_of)})
    # Drawn after every case above, so those keep their operands.
    blocks, blocks2 = dropped(exact, rng, 30, blocks=10), dropped(exact, rng, 30, blocks=10)
    # Drawn after every case above, so those keep their operands.
    diag41 = diagonal(exact, rng, 41)
    return [
        ("unit x unit", unit(3, 5), unit(5, 7)),
        ("unit x dense27", unit(3, 5), d27),
        ("empty x dense27", exact.EMPTY, d27),
        ("dense27 x diag27", d27, diag),
        ("jones x diag", jones, diag32),
        ("dense27 x dense27", d27, e27),
        ("dense%d x dense%d" % (wide, wide), big, big2),
        ("drop%d x drop%d" % (wide, wide), drop, drop2),
        ("row%d x diag1" % wide, (big[0], {0: big[1][0]}), diag1),
        ("e3*D x e3", e3d, e3),
        ("identity x jones", exact.identity_on(range(32)), jones),
        ("Ediag x jones", ediag, jones),
        ("blocks10x30 x blocks10x30", blocks, blocks2),
        ("diag41 x ident41", diag41, exact.identity_on(range(41))),
    ]


def entries(idx):
    """The number of entries of a row index."""
    _, rows = idx
    return sum(len(cols) for cols, _, _ in rows.values())


def load(src, name):
    """The afpath package under ``src``, imported as ``name``."""
    init = os.path.join(os.path.abspath(src), "afpath", "__init__.py")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def round_us(product, a, b, calls):
    """One round of ``calls`` calls, in microseconds per call."""
    start = time.perf_counter()
    for _ in range(calls):
        product(a, b)
    return (time.perf_counter() - start) / calls * 1e6


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--calls", type=int, default=2000, help="calls per round on the small cases")
    ap.add_argument("--wide", type=int, default=294, help="width of the largest dense case")
    ap.add_argument("--src", action="append", help="a src/ directory to import afpath from; give it twice to compare two trees")
    args = ap.parse_args(argv)
    srcs = args.src or [os.path.join(ROOT, "src")]
    if len(srcs) > 2:
        ap.error("--src is given at most twice")
    trees = [load(src, "afpath_%d" % t) for t, src in enumerate(srcs)]
    cases = zip(*[operands(tree, args.wide) for tree in trees])
    for each in cases:
        label = each[0][0]
        # Keep the rounds of the large cases short.
        size = max(entries(each[0][1]), entries(each[0][2]))
        calls = max(1, args.calls * 27 // max(27, size))
        times = [[] for _ in trees]
        for r in range(ROUNDS):
            order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
            for t in order:
                _, a, b = each[t]
                times[t].append(round_us(trees[t]._exact.product, a, b, calls))
        medians = [statistics.median(ts) for ts in times]
        if len(trees) == 1:
            print("%-26s %12.1f us/call  (%d calls)" % (label, medians[0], calls))
        else:
            q1, _, q3 = statistics.quantiles(times[0], n=4)
            ratio, spread = medians[1] / medians[0], (q3 - q1) / medians[0]
            print("%-26s %12.1f %12.1f us/call  %6.3fx  spread %5.3f  (%d calls)" % (label, *medians, ratio, spread, calls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
