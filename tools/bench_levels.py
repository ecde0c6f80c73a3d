"""Time the level-table builders on deep diagrams and on verify-sized ones.

    python3 tools/bench_levels.py [--calls N] [--src DIR]

Prints one line per builder and shape: the microseconds one call takes.
The deep shapes are the benchmark's deep-cold jobs:

- ``terminals fib20``: ``terminals(20)`` of fibonacci at depth 20;
- ``descendants``, ``block_paths``, ``tail_classes`` and ``prefix_ids
  pascal13``: the level-13 tables of pascal at depth 13 for the nine levels
  n that pascal-expect averages at (2, 4, ..., 12 and 3, 7, 11), plus n = 0
  for ``prefix_ids`` (``refine`` of a constant);
- ``extend_index fib-embed``: ``embed_to(20)`` of every level-3 diagonal
  unit of fibonacci at depth 20 (rows copied 2,584 or 4,181 times);
- ``extend_index car-widen``: ``jones_kernel(3).widen(3, 12)`` on car at
  depth 12 (rows copied 512 times);
- ``validate pascal120``: pascal at depth 120;
- ``embed_multiplicities car15`` and ``fib20``: the stage embedding of car
  at depth 15 from level 14 and of fibonacci at depth 20 from level 19,
  what deep-cold's two ``embed-matrix`` jobs compute; ``pascal120``: that of
  pascal at depth 120 from level 119, 120 vertices ranked and unranked at
  depth 120;
- ``indicator_edge car16``: the indicator of the last edge out of car's
  level-15 vertex, at depth 16 (2^16 paths).

The verify-sized shapes are uhf3 at depth 3 (``uhf3``) and the shape of
the verify-sparse file diagram (``sparse``: vertices 1, 3, 3, 3, 3 with
multiplicities 0-2).  On them each table is built for every pair of
levels, ``extend_index`` extends one seeded random stage-n element to every
deeper level (rows copied 1 to 27 times), and ``validate`` checks the
diagram.

Each call builds a fresh diagram and, outside the timed region, the tables
the builder reads (for ``tail_classes``: ``terminals``, ``descendants`` and
``block_paths``), so a call times the builder alone on a cold memo.
``embed_multiplicities`` and ``indicator_edge`` get nothing built in
advance: like the CLI job, each is timed on a fresh diagram with whatever
it reads.  A round makes ``--calls`` calls and each line reports the best
of three rounds.
``--src`` imports afpath from another checkout's ``src/``, so the same
builders can be timed before and after a change.
"""

import argparse
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PASCAL_LEVELS = (2, 4, 6, 8, 10, 12, 3, 7, 11)

SPARSE_COUNTS = (1, 3, 3, 3, 3)
SPARSE_ROWS = (
    ((1, 2, 1),),
    ((1, 0, 1), (1, 1, 0), (0, 2, 1)),
    ((2, 0, 1), (0, 1, 1), (1, 1, 0)),
    ((1, 0, 0), (0, 1, 1), (1, 2, 0)),
)


def _pairs(d):
    return [(n, m) for m in range(d.depth + 1) for n in range(m + 1)]


def _warm(d, pairs):
    for n, m in pairs:
        d.descendants(n, m)


def cases(afpath):
    """(label, setup) pairs: ``setup()`` builds the inputs untimed and
    returns the call to time."""
    from afpath import _exact
    from afpath.harness import random_af_element

    def builtin(name, depth):
        return lambda: afpath.builtin_diagram(name, depth)

    def sparse():
        return afpath.BratteliDiagram(SPARSE_COUNTS, SPARSE_ROWS)

    def terminals(make):
        def setup():
            d = make()
            return lambda: d.terminals(d.depth)
        return setup

    def descendants(make, pairs):
        def setup():
            d = make()
            todo = pairs(d)
            for n, _ in todo:
                d.terminals(n)
            return lambda: [d.descendants(n, m) for n, m in todo]
        return setup

    def block_paths(make, pairs):
        def setup():
            d = make()
            levels = sorted({n for n, _ in pairs(d)})
            for n in levels:
                d.terminals(n)
            return lambda: [d.block_paths(n) for n in levels]
        return setup

    def tail_classes(make, pairs):
        def setup():
            d = make()
            todo = pairs(d)
            _warm(d, todo)
            for n, _ in todo:
                d.block_paths(n)
            return lambda: [d.tail_classes(m, n) for n, m in todo]
        return setup

    def prefix_ids(make, pairs):
        def setup():
            d = make()
            todo = pairs(d)
            _warm(d, todo)
            return lambda: [d.prefix_ids(m, n) for n, m in todo]
        return setup

    def validate(make):
        def setup():
            d = make()
            return d.validate
        return setup

    def embed(make, level):
        def setup():
            d = make()
            return lambda: afpath.embed_multiplicities(d, level)
        return setup

    def edge_indicator(make):
        def setup():
            d = make()
            last = d.edges_from(afpath.Vertex(d.depth - 1, 0))[-1]
            return lambda: afpath.indicator_edge(d, last)
        return setup

    def extend(make, pairs, index):
        def setup():
            d = make()
            todo = [(index(d, n), d.descendants(n, m)) for n, m in pairs(d)]
            return lambda: [_exact.extend_index(idx, offsets) for idx, offsets in todo]
        return setup

    def fib_embed():
        d = afpath.builtin_diagram("fibonacci", 20)
        units = [afpath.matrix_unit(d, g, g)._index for g in d.paths(3)]
        offsets = d.descendants(3, 20)
        return lambda: [_exact.extend_index(idx, offsets) for idx in units]

    def car_widen():
        d = afpath.builtin_diagram("car", 12)
        idx = afpath.jones_kernel(d, 3)._index
        offsets = d.descendants(3, 12)
        return lambda: _exact.extend_index(idx, offsets)

    pascal13 = builtin("pascal", 13)
    deep = lambda levels: lambda d: [(n, 13) for n in levels]
    deeper = lambda d: [(n, m) for n, m in _pairs(d) if n < m]
    rng = random.Random(19)
    element = lambda d, n: random_af_element(d, n, rng)._index
    out = [
        ("terminals fib20", terminals(builtin("fibonacci", 20))),
        ("descendants pascal13", descendants(pascal13, deep(PASCAL_LEVELS))),
        ("block_paths pascal13", block_paths(pascal13, deep(PASCAL_LEVELS))),
        ("tail_classes pascal13", tail_classes(pascal13, deep(PASCAL_LEVELS))),
        ("prefix_ids pascal13", prefix_ids(pascal13, deep((0,) + PASCAL_LEVELS))),
        ("extend_index fib-embed", fib_embed),
        ("extend_index car-widen", car_widen),
        ("validate pascal120", validate(builtin("pascal", 120))),
        ("embed_multiplicities car15", embed(builtin("car", 15), 14)),
        ("embed_multiplicities fib20", embed(builtin("fibonacci", 20), 19)),
        ("embed_multiplicities pascal120", embed(builtin("pascal", 120), 119)),
        ("indicator_edge car16", edge_indicator(builtin("car", 16))),
    ]
    for shape, make in (("uhf3", builtin("uhf3", 3)), ("sparse", sparse)):
        out += [
            ("terminals " + shape, terminals(make)),
            ("descendants " + shape, descendants(make, _pairs)),
            ("block_paths " + shape, block_paths(make, _pairs)),
            ("tail_classes " + shape, tail_classes(make, _pairs)),
            ("prefix_ids " + shape, prefix_ids(make, _pairs)),
            ("extend_index " + shape, extend(make, deeper, element)),
            ("validate " + shape, validate(make)),
        ]
    return out


def best_us(setup, calls):
    """The best of three rounds of ``calls`` calls, in microseconds per call;
    each call's inputs are built by ``setup`` outside the timed region."""
    best = float("inf")
    for _ in range(3):
        spent = 0.0
        for _ in range(calls):
            run = setup()
            start = time.perf_counter()
            run()
            spent += time.perf_counter() - start
        best = min(best, spent / calls)
    return best * 1e6


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--calls", type=int, default=20, help="calls per round")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="the src/ directory to import afpath from")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import afpath

    for label, setup in cases(afpath):
        us = best_us(setup, args.calls)
        print("%-30s %10.1f us/call  (%d calls)" % (label, us, args.calls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
