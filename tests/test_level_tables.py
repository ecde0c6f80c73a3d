"""The level tables built by C iterators against the per-path loops they
replaced, kept here as the oracles.

``terminals``, ``descendants``, ``tail_classes`` and ``prefix_ids`` must
return the same tuples (and ``tail_classes`` the same class numbering),
``extend_index`` the same row index on both sides of its column-wise
crossover, and ``validate`` the same messages in the same order.
"""

import random
from itertools import accumulate

import pytest

from afpath import BUILTIN_NAMES, BratteliDiagram, builtin_diagram
from afpath import _exact
from afpath.harness import random_af_element
from test_extension_maps import MIXED, random_diagram


# -- the loops, as they were before the tables moved to C iterators ----------------


def loop_terminals(d, n):
    level = (0,)
    for k in range(n):
        targets = [[j for j, x in pairs for _ in range(x)] for pairs in d._rows[k]]
        level = tuple(j for t in level for j in targets[t])
    return level


def loop_descendants(d, n, m):
    down = d._down_counts(n, m)[0]
    return tuple(accumulate((down[t] for t in loop_terminals(d, n)), initial=0))


def loop_tail_classes(d, m, n):
    desc = loop_descendants(d, n, m)
    first, class_of, count = {}, [], 0
    for i, v in enumerate(loop_terminals(d, n)):
        size = desc[i + 1] - desc[i]
        if v not in first:
            first[v] = count
            count += size
        class_of.extend(range(first[v], first[v] + size))
    classes = [[] for _ in range(count)]
    for gid, cid in enumerate(class_of):
        classes[cid].append(gid)
    return tuple(map(tuple, classes)), tuple(class_of)


def loop_prefix_ids(d, m_fine, m_coarse):
    d = loop_descendants(d, m_coarse, m_fine)
    return tuple(i for i in range(len(d) - 1) for _ in range(d[i], d[i + 1]))


def loop_extend_index(idx, offsets):
    den, rows = idx
    out = {}
    for a, (cols, res, ims) in rows.items():
        start = offsets[a]
        for t in range(offsets[a + 1] - start):
            out[start + t] = ([offsets[b] + t for b in cols], res, ims)
    return den, out


def loop_validate(d):
    found = []
    if d.vertex_counts[0] != 1:
        found.append("(d) level=0: expected exactly one root vertex, got %d" % d.vertex_counts[0])
    for n, c in enumerate(d.vertex_counts):
        if c == 0:
            found.append("(a) level=%d: level is empty" % n)
    for n, level in enumerate(d._rows):
        entries = [(i, j, x) for i, pairs in enumerate(level) for j, x in pairs]
        found += ["(c) level=%d edge (%d->%d): negative multiplicity %d" % (n, i, j, x)
                  for i, j, x in entries if x < 0]
        emits = {i for i, _, x in entries if x > 0}
        found += ["(e) level=%d vertex=%d: no outgoing edge" % (n, i)
                  for i in range(len(level)) if i not in emits]
        fed = {j for _, j, x in entries if x > 0}
        found += ["(f) level=%d vertex=%d: no incoming edge" % (n + 1, j)
                  for j in range(d.vertex_counts[n + 1]) if j not in fed]
    return found


# -- level tables -----------------------------------------------------------------

SHALLOW = [pytest.param(builtin_diagram(name, 5), id=name) for name in BUILTIN_NAMES]
SHALLOW += [pytest.param(MIXED, id="mixed")]
SHALLOW += [pytest.param(random_diagram(seed), id="random-%d" % seed) for seed in range(12)]


def _check_tables(d, pairs):
    for m, n in pairs:
        assert d.terminals(n) == loop_terminals(d, n)
        assert d.descendants(n, m) == loop_descendants(d, n, m)
        assert d.tail_classes(m, n) == loop_tail_classes(d, m, n)
        assert d.prefix_ids(m, n) == loop_prefix_ids(d, m, n)


@pytest.mark.parametrize("d", SHALLOW)
def test_level_tables_match_the_loops_at_every_pair_of_levels(d):
    top = min(d.depth, 5)
    _check_tables(d, [(m, n) for m in range(top + 1) for n in range(m + 1)])


@pytest.mark.parametrize("name,depth,levels", [
    ("pascal", 13, range(14)),
    ("car", 15, (0, 1, 7, 14, 15)),
    ("fibonacci", 20, (0, 3, 10, 19, 20)),
])
def test_level_tables_match_the_loops_on_deep_levels(name, depth, levels):
    _check_tables(builtin_diagram(name, depth), [(depth, n) for n in levels])


def test_tail_classes_number_each_vertex_at_its_first_path():
    # Level 1 of MIXED ends at vertices 0, 1, 1, 2; vertex 1's two paths
    # share each class, and vertex 2's classes follow vertex 1's.
    classes, class_of = MIXED.tail_classes(2, 1)
    assert MIXED.terminals(1) == (0, 1, 1, 2)
    assert classes == ((0,), (1,), (2, 4), (3, 5), (6,), (7,), (8,))
    assert class_of == (0, 1, 2, 3, 2, 3, 4, 5, 6)


# -- extend_index -----------------------------------------------------------------


def _index(widths, copies):
    """Rows 0.. of the given widths over ids that each extend ``copies`` times."""
    ids = max(len(widths), *widths)
    offsets = tuple(range(0, (ids + 1) * copies, copies))
    rows = {a: (list(range(ids - w, ids)), [a + 1] * w, [-a] * w) for a, w in enumerate(widths)}
    return (3, rows), offsets


CROSSOVER = [
    _exact._COLUMNWISE_COPIES - 1,
    _exact._COLUMNWISE_COPIES,
    _exact._COLUMNWISE_COPIES + 1,
    4 * _exact._COLUMNWISE_COPIES,
]


@pytest.mark.parametrize("copies", CROSSOVER)
@pytest.mark.parametrize("widths", [(1,), (1, 1), (3, 1, 2), (5,) * 5])
def test_extend_index_matches_the_loop_around_the_crossover(copies, widths):
    idx, offsets = _index(widths, copies)
    got = _exact.extend_index(idx, offsets)
    assert got == loop_extend_index(idx, offsets)
    # Every copy shares its row's numerator lists.
    for a, (_, res, ims) in idx[1].items():
        for t in range(copies):
            assert got[1][offsets[a] + t][1] is res and got[1][offsets[a] + t][2] is ims


@pytest.mark.parametrize("copies", CROSSOVER)
def test_extend_index_keeps_shared_rows_shared(copies):
    # Ids 0-4 hold the row objects of ids 0, 2, 0, 2 and 4, so rows 0 and 2
    # have two holders each.  Copy t of a row is one object for all holders.
    (den, rows), offsets = _index((5,) * 5, copies)
    shared = {a: rows[b] for a, b in enumerate((0, 2, 0, 2, 4))}
    unshared = {a: tuple(map(list, row)) for a, row in shared.items()}
    got = _exact.extend_index((den, shared), offsets)
    assert got == _exact.extend_index((den, unshared), offsets) == loop_extend_index((den, shared), offsets)
    out = got[1]
    for a in shared:
        for b in shared:
            for t in range(copies):
                for u in range(copies):
                    same = out[offsets[a] + t] is out[offsets[b] + u]
                    assert same == (shared[a] is shared[b] and t == u)


def test_extend_index_of_the_empty_index():
    offsets = tuple(range(0, 40, 10))
    assert _exact.extend_index(_exact.EMPTY, offsets) == loop_extend_index(_exact.EMPTY, offsets) == (1, {})


@pytest.mark.parametrize("d", SHALLOW[:5])
def test_extend_index_matches_the_loop_on_diagram_offsets(d):
    # Rows of one element copied 1 to 3^5 times, on both sides of the crossover.
    rng = random.Random(19)
    for n in range(d.depth):
        idx = random_af_element(d, n, rng)._index
        for m in range(n, d.depth + 1):
            offsets = d.descendants(n, m)
            assert _exact.extend_index(idx, offsets) == loop_extend_index(idx, offsets)


# -- validate ---------------------------------------------------------------------

INVALID = {
    "negative-multiplicity": ((1, 2, 2), [[[1, -1]], [[1, 0], [0, 1]]]),
    "no-positive-entry": ((1, 2, 2), [[[1, 1]], [[1, 1], [-2, 0]]]),
    "dead-end": ((1, 2, 2), [[[1, 1]], [[1, 1], [0, 0]]]),
    "unfed-vertex": ((1, 2, 2), [[[1, 0]], [[1, 1], [0, 1]]]),
    "empty-level": ((1, 0, 1), [[[]], []]),
    "two-roots": ((2, 1), [[[1], [1]]]),
    "all-at-once": ((2, 3, 0, 2), [[[1, -3, 0], [-1, 0, -2]], [[], [], []], []]),
}


@pytest.mark.parametrize("name", sorted(INVALID))
def test_validate_matches_the_loop_on_invalid_diagrams(name):
    d = BratteliDiagram(*INVALID[name])
    got = d.validate()
    assert got and got == loop_validate(d)


@pytest.mark.parametrize("name", ["dead-end", "empty-level", "two-roots", "unfed-vertex"])
def test_level_tables_match_the_loops_on_invalid_diagrams_without_negative_entries(name):
    # A vertex with no path down to level m gives empty extension ranges,
    # so it owns no class; an empty level has no paths at all.
    d = BratteliDiagram(*INVALID[name])
    _check_tables(d, [(m, n) for m in range(d.depth + 1) for n in range(m + 1)])


def test_validate_reports_negative_entries_before_the_vertices_they_leave_bare():
    d = BratteliDiagram((1, 2, 2), [[[1, -1]], [[1, 0], [-2, -1]]])
    assert d.validate() == [
        "(c) level=0 edge (0->1): negative multiplicity -1",
        "(f) level=1 vertex=1: no incoming edge",
        "(c) level=1 edge (1->0): negative multiplicity -2",
        "(c) level=1 edge (1->1): negative multiplicity -1",
        "(e) level=1 vertex=1: no outgoing edge",
        "(f) level=2 vertex=1: no incoming edge",
    ]


@pytest.mark.parametrize("d", SHALLOW + [pytest.param(builtin_diagram("pascal", 120), id="pascal-120")])
def test_validate_matches_the_loop_on_valid_diagrams(d):
    assert d.validate() == loop_validate(d) == []


# -- _path_at ---------------------------------------------------------------------


def test_path_at_reads_one_memoized_count_table_per_level(monkeypatch):
    d = builtin_diagram("pascal", 8)
    calls = []
    real = d._down_counts
    monkeypatch.setattr(d, "_down_counts", lambda n, m: calls.append((n, m)) or real(n, m))
    for m in (3, 8):
        for gid in range(len(d.terminals(m))):
            assert d._path_at(m, gid) == d.paths(m)[gid]
            assert d._terminal_at(m, gid) == d.terminals(m)[gid]
    assert calls == [(0, 3), (0, 8)]
    # descendants counts from its own level, never from the root.
    d.descendants(5, 8)
    assert calls[2:] == [(5, 8)]


def test_path_at_rejects_levels_past_the_depth():
    d = builtin_diagram("fibonacci", 3)
    for m in (4, -1):
        for read in (d._path_at, d._terminal_at):
            with pytest.raises(ValueError, match=r"level %d out of range 0\.\.3" % m):
                read(m, 0)
    assert ("down_counts", 4) not in d._memo
    assert d._terminal_at(0, 0) == 0
