"""Diagram structure: counting oracles, validation, parsing, canonical order."""

import math
import random
from fractions import Fraction

import pytest

from afpath import (
    BratteliDiagram,
    Vertex,
    Edge,
    FinitePath,
    DepthExhaustedError,
    DiagramParseError,
    builtin_diagram,
    builtin_name,
    format_path,
    parse_diagram,
    serialize_diagram,
    BUILTIN_NAMES,
    DEFAULT_DEPTHS,
)
from test_extension_maps import BUILTIN, MIXED, SEEDED, random_diagram


def brute_force_counts(d, n):
    """Count rooted paths per level-n vertex by explicit DFS, no tables."""
    counts = [0] * d.vertex_counts[n]

    def walk(level, index):
        if level == n:
            counts[index] += 1
            return
        for e in d.edges_from(Vertex(level, index)):
            walk(level + 1, e.target)

    walk(0, 0)
    return counts


# -- counting ---------------------------------------------------------------


def test_car_level_counts(car):
    assert len(car.paths(3)) == 8
    assert car.path_count(Vertex(3, 0)) == 8
    assert [car.path_count(v) for v in car.vertices(5)] == [32]


def test_pascal_counts_are_binomials(pascal):
    assert pascal.path_count(Vertex(4, 2)) == 6
    for n in range(pascal.depth + 1):
        got = [pascal.path_count(v) for v in pascal.vertices(n)]
        assert got == [math.comb(n, k) for k in range(n + 1)]


def test_fibonacci_counts(fibonacci):
    assert [fibonacci.path_count(v) for v in fibonacci.vertices(3)] == [3, 2]
    totals = [len(fibonacci.paths(n)) for n in range(1, 7)]
    assert totals == [2, 3, 5, 8, 13, 21]


def test_path_count_matches_dfs(builtins):
    for d in builtins.values():
        for n in range(min(4, d.depth) + 1):
            expected = brute_force_counts(d, n)
            assert [d.path_count(v) for v in d.vertices(n)] == expected


def test_counts_sum_along_incidence(pascal, fibonacci):
    for d in (pascal, fibonacci):
        for n in range(d.depth):
            for w in d.vertices(n + 1):
                total = sum(
                    d.path_count(v) * d.incidence[n][v.index][w.index]
                    for v in d.vertices(n)
                )
                assert d.path_count(w) == total


# -- canonical enumeration ----------------------------------------------------


def test_paths_are_sorted_and_indexed(car, pascal):
    for d in (car, pascal):
        for n in (0, 1, 2, 3):
            ps = d.paths(n)
            assert list(ps) == sorted(ps)
            for gid, p in enumerate(ps):
                assert d.path_id(p) == gid


def test_paths_deep_chain_does_not_recurse():
    d = BratteliDiagram([1] * 601, [((1,),)] * 600)
    assert len(d.paths(600)) == 1


def test_paths_resume_from_the_deepest_built_level():
    fresh = builtin_diagram("fibonacci")
    d = builtin_diagram("fibonacci")
    d.paths(2)
    d.paths(4)
    for n in range(d.depth + 1):
        assert d.paths(n) == fresh.paths(n)


def test_path_id_rejects_foreign_path(car, pascal):
    # paths are value objects: the leftmost pascal path uses the same edge
    # data as a car path, so it is accepted; one through vertex (1, 1) is not
    assert car.path_id(pascal.paths(2)[0]) == 0
    through_second_vertex = pascal.paths(2)[2]
    assert through_second_vertex.vertex_at(1) == Vertex(1, 1)
    with pytest.raises(ValueError):
        car.path_id(through_second_vertex)


def test_path_navigation(car):
    p = car.paths(3)[5]
    assert len(p) == 3
    assert p.prefix(2) == car.paths(2)[2]
    assert p.vertex_at(0) == Vertex(0, 0)
    assert p.terminal() == Vertex(3, 0)
    assert p.prefix(2).extend(p.edges[2]) == p


def test_format_path(car):
    assert format_path(car.paths(0)[0]) == "()"
    assert format_path(car.paths(2)[1]) == "0>0#0;0>0#1"


def test_edges_from_exhausts_at_depth(car):
    with pytest.raises(DepthExhaustedError):
        car.edges_from(Vertex(car.depth, 0))


def test_finite_path_must_chain():
    with pytest.raises(ValueError):
        FinitePath((Edge(1, 0, 0, 0),))  # does not start at the root
    with pytest.raises(ValueError, match=r"edge Edge\(1: 1>0#0\) does not chain at level 1 vertex 0"):
        FinitePath((Edge(0, 0, 0, 0), Edge(1, 1, 0, 0)))


def test_edges_vertices_and_paths_are_immutable_tuples(car):
    e, v, p = Edge(0, 0, 1, 0), Vertex(1, 0), car.paths(2)[1]
    assert (repr(e), repr(v), repr(p)) == ("Edge(0: 0>1#0)", "Vertex(1, 0)", "FinitePath(0>0#0;0>0#1)")
    assert e == (0, 0, 1, 0) and v == (1, 0) and p == tuple(p) == p.edges
    assert type(p.edges) is tuple and type(p[:1]) is tuple
    for obj, field in ((e, "copy"), (v, "index"), (p, "edges"), (p, "level")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
    # Equal values hash equal, whichever way they were built.
    twin = FinitePath([Edge(0, 0, 0, 0), Edge(*p[1])])
    assert twin == p and hash(twin) == hash(p)
    assert hash(Edge(*e)) == hash(e) and hash(car.paths(1)[0].terminal()) == hash(Vertex(1, 0))
    assert {p: 1}[car._path_at(2, 1)] == 1


@pytest.mark.parametrize("d", BUILTIN + SEEDED)
def test_tuple_order_is_the_canonical_path_order(d):
    for n in range(d.depth + 1):
        assert sorted(d.paths(n)) == list(d.paths(n))
    assert sorted(d.paths(d.depth), reverse=True) == list(reversed(d.paths(d.depth)))


def test_segments_match_incidence_powers(pascal):
    """#segments v -> w equals the (v, w) entry of the incidence product."""
    n, m = 1, 4
    mats = pascal.incidence[n:m]
    prod = mats[0]
    for mat in mats[1:]:
        prod = [
            [sum(row[k] * mat[k][j] for k in range(len(mat))) for j in range(len(mat[0]))]
            for row in prod
        ]
    for v in pascal.vertices(n):
        for w in pascal.vertices(m):
            assert len(pascal.segments(v, w)) == prod[v.index][w.index]


def test_tail_classes_extremes(car):
    # at n = m the classes are the terminal-vertex blocks
    classes, class_of = car.tail_classes(3, 3)
    assert len(classes) == 1 and len(classes[0]) == 8
    # at n = 0 tails determine everything, so classes are singletons
    classes, class_of = car.tail_classes(3, 0)
    assert all(len(c) == 1 for c in classes)
    assert len(classes) == 8
    # class_of inverts the partition
    for cid, cls in enumerate(classes):
        for gid in cls:
            assert class_of[gid] == cid


def test_tail_classes_group_by_shared_tail(fibonacci):
    classes, _ = fibonacci.tail_classes(3, 1)
    paths = fibonacci.paths(3)
    for cls in classes:
        first = paths[cls[0]]
        for gid in cls[1:]:
            other = paths[gid]
            assert other.edges[1:] == first.edges[1:]
            assert other.vertex_at(1) == first.vertex_at(1)


# -- validation ---------------------------------------------------------------


def test_builtins_validate_clean(builtins):
    for d in builtins.values():
        assert d.validate() == []


def test_validate_reports_dead_end():
    # level-1 vertex 1 emits nothing
    d = BratteliDiagram((1, 2, 1), (((1, 1),), ((1,), (0,))))
    found = d.validate()
    assert any(v.startswith("(e) level=1 vertex=1") for v in found)


def test_validate_reports_orphan():
    # level-2 vertex 1 receives nothing
    d = BratteliDiagram((1, 1, 2), (((1,),), ((1, 0),)))
    found = d.validate()
    assert any(v.startswith("(f) level=2 vertex=1") for v in found)


def test_validate_reports_negative_multiplicity():
    d = BratteliDiagram((1, 1), (((-1,),),))
    assert any("(c)" in v and "-1" in v for v in d.validate())


def test_validate_reports_bad_root():
    d = BratteliDiagram((2, 1), (((1,), (1,)),))
    assert any(v.startswith("(d)") for v in d.validate())


def test_validate_reports_empty_level():
    d = BratteliDiagram((1, 0, 1), (((),), ()))
    found = d.validate()
    kinds = {v[1] for v in found}
    assert "a" in kinds  # empty level
    assert "e" in kinds  # the root emits nothing
    assert "f" in kinds  # the bottom vertex receives nothing


# -- built-ins and parsing ------------------------------------------------------


def test_builtin_names_and_aliases():
    assert builtin_name("car") == "car"
    assert builtin_name("gicar") == "pascal"
    assert builtin_name("uhf-3") == "uhf3"
    assert builtin_name("UHF_3") == "uhf3"
    assert builtin_name("nothing") is None
    assert set(DEFAULT_DEPTHS) == set(BUILTIN_NAMES)


def test_builtin_shapes():
    car = builtin_diagram("car", 2)
    assert car.vertex_counts == (1, 1, 1)
    assert car.incidence == (((2,),), ((2,),))
    fib = builtin_diagram("fibonacci", 2)
    assert fib.vertex_counts == (1, 2, 2)
    assert fib.incidence[1] == ((1, 1), (1, 0))
    uhf = builtin_diagram("uhf3", 1)
    assert uhf.incidence == (((3,),),)


def test_builtin_rejects_unknown():
    with pytest.raises(ValueError):
        builtin_diagram("nonsense")


def test_serialize_parse_round_trip(builtins):
    for d in builtins.values():
        text = serialize_diagram(d)
        back = parse_diagram(text)
        assert back.vertex_counts == d.vertex_counts
        assert back.incidence == d.incidence


def test_parse_accepts_comments_and_blank_lines():
    text = "# a comment\n\nBRATTELI 1\nlevels 1\n# interior\nvertices 1 1\nincidence 0\n2\n"
    d = parse_diagram(text)
    assert d.vertex_counts == (1, 1)
    assert d.incidence == (((2,),),)


def test_parse_error_carries_line_number():
    with pytest.raises(DiagramParseError) as exc:
        parse_diagram("BRATTELI 2\nlevels 1\nvertices 1 1\nincidence 0\n2\n")
    assert str(exc.value).startswith("line 1:")
    with pytest.raises(DiagramParseError) as exc:
        parse_diagram("BRATTELI 1\nlevels 1\nvertices 1 1\nincidence 0\n2 2\n")
    assert str(exc.value).startswith("line 5:")


def test_parse_rejects_trailing_content():
    with pytest.raises(DiagramParseError):
        parse_diagram("BRATTELI 1\nlevels 1\nvertices 1 1\nincidence 0\n2\nextra\n")


def test_parse_rejects_wrong_vertex_count():
    with pytest.raises(DiagramParseError):
        parse_diagram("BRATTELI 1\nlevels 2\nvertices 1 1\nincidence 0\n2\n")


def test_truncated_builtin_matches_prefix():
    full = builtin_diagram("pascal", 6)
    small = builtin_diagram("pascal", 3)
    assert small.vertex_counts == full.vertex_counts[:4]
    assert small.incidence == full.incidence[:3]


# -- nonzero pairs against the dense per-entry loops ------------------------------
#
# The oracles below are the dense loops the rows of nonzero pairs replaced,
# kept verbatim: every entry of every row is visited.


def dense_validate(d):
    found = []
    if d.vertex_counts[0] != 1:
        found.append("(d) level=0: expected exactly one root vertex, got %d" % d.vertex_counts[0])
    for n, c in enumerate(d.vertex_counts):
        if c == 0:
            found.append("(a) level=%d: level is empty" % n)
    for n, mat in enumerate(d.incidence):
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                if x < 0:
                    found.append("(c) level=%d edge (%d->%d): negative multiplicity %d" % (n, i, j, x))
        for i, row in enumerate(mat):
            if not any(x > 0 for x in row):
                found.append("(e) level=%d vertex=%d: no outgoing edge" % (n, i))
        for j in range(d.vertex_counts[n + 1]):
            if not any(row[j] > 0 for row in mat):
                found.append("(f) level=%d vertex=%d: no incoming edge" % (n + 1, j))
    return found


def dense_level_counts(d):
    levels = [(1,) * d.vertex_counts[0]]
    for mat, width in zip(d.incidence, d.vertex_counts[1:]):
        prev = levels[-1]
        levels.append(tuple(sum(c * row[j] for c, row in zip(prev, mat)) for j in range(width)))
    return tuple(levels)


def dense_terminals(d, n):
    level = (0,)
    for k in range(n):
        targets = [[j for j, mult in enumerate(row) for _ in range(mult)] for row in d.incidence[k]]
        level = tuple(j for t in level for j in targets[t])
    return level


def dense_builtin(name, depth):
    """A built-in as the public constructor builds it from dense matrices."""
    if name == "car":
        return BratteliDiagram([1] * (depth + 1), [((2,),)] * depth)
    if name == "uhf3":
        return BratteliDiagram([1] * (depth + 1), [((3,),)] * depth)
    if name == "pascal":
        counts = [n + 1 for n in range(depth + 1)]
        mats = []
        for n in range(depth):
            mat = []
            for k in range(n + 1):
                row = [0] * (n + 2)
                row[k] = 1
                row[k + 1] = 1
                mat.append(tuple(row))
            mats.append(tuple(mat))
        return BratteliDiagram(counts, mats)
    if name == "fibonacci":
        counts = [1] + [2] * depth
        mats = [((1, 1),)] + [((1, 1), (1, 0))] * (depth - 1)
        return BratteliDiagram(counts, mats)
    raise AssertionError(name)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


def _invalid_diagrams():
    yield "negative", BratteliDiagram((1, 3, 2), (((1, -2, 1),), ((1, -1), (0, 0), (-3, 2))))
    yield "zero-row", BratteliDiagram((1, 2, 2), (((1, 1),), ((0, 0), (1, 0))))
    yield "zero-column", BratteliDiagram((1, 2, 3), (((1, 1),), ((1, 0, 0), (2, 0, 1))))
    yield "empty-level", BratteliDiagram((1, 0, 1), (((),), ()))
    yield "empty-last-level", BratteliDiagram((1, 2, 0), (((1, 1),), ((), ())))
    yield "zero-width-rows", BratteliDiagram((1, 0, 0, 1), (((),), (), ()))
    yield "two-roots", BratteliDiagram((2, 2), (((1, 0), (0, -1)),))
    yield "no-root", BratteliDiagram((0, 1), ((),))
    # Seeded matrices over -1..2 with zero rows and columns left in place.
    for seed in range(12):
        rng = random.Random("invalid-diagram:%d" % seed)
        counts = [rng.choice((1, 1, 2))] + [rng.randint(0, 3) for _ in range(3)]
        mats = [
            [[rng.choice((-1, 0, 0, 0, 1, 2)) for _ in range(counts[n + 1])] for _ in range(counts[n])]
            for n in range(3)
        ]
        yield "random-invalid-%d" % seed, BratteliDiagram(counts, mats)


def _differential_diagrams():
    for name in BUILTIN_NAMES:
        yield name, builtin_diagram(name)
    yield "mixed", MIXED
    for seed in range(12):
        yield "random-%d" % seed, random_diagram(seed)
    yield from _invalid_diagrams()


@pytest.mark.parametrize("d", [pytest.param(d, id=name) for name, d in _differential_diagrams()])
def test_nonzero_index_matches_the_dense_loops(d):
    assert d.validate() == dense_validate(d)
    assert d._level_counts() == dense_level_counts(d)
    for n in range(d.depth + 1):
        # Both raise IndexError past a level 0 with no root to start from.
        assert _outcome(d.terminals, n) == _outcome(dense_terminals, d, n)
        assert [d.path_count(v) for v in d.vertices(n)] == list(dense_level_counts(d)[n])
    for n, mat in enumerate(d.incidence):
        for i, row in enumerate(mat):
            edges = [Edge(n, i, j, k) for j, mult in enumerate(row) for k in range(mult)]
            assert list(d.edges_from(Vertex(n, i))) == edges


def _assert_same_diagram(d, oracle):
    assert d.vertex_counts == oracle.vertex_counts
    assert d.incidence == oracle.incidence
    assert d.incidence is d.incidence
    assert serialize_diagram(d) == serialize_diagram(oracle)
    assert d.validate() == oracle.validate() == dense_validate(oracle)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_rows_match_the_dense_builder(name):
    for depth in range(1, 11):
        d = builtin_diagram(name, depth)
        assert d._dense is None  # the dense view waits for its first read
        _assert_same_diagram(d, dense_builtin(name, depth))


@pytest.mark.parametrize("d", [pytest.param(d, id=name) for name, d in _differential_diagrams()])
def test_lazy_dense_view_matches_the_given_rows(d):
    # The same rows of pairs without the seeded view: the view built from
    # the pairs equals the rows the public constructor was given.
    _assert_same_diagram(BratteliDiagram._from_rows(d.vertex_counts, d._rows), d)


def test_deep_pascal_builds_no_dense_row(monkeypatch):
    from afpath import diagram
    from afpath.af_tower import dimension_vector

    def refuse(pairs, width):
        raise AssertionError("dense row built")

    monkeypatch.setattr(diagram, "_dense_row", refuse)
    d = builtin_diagram("pascal", 300)
    assert d.validate() == []
    assert d._level_counts()[300][150] == math.comb(300, 150)
    assert dimension_vector(d, 300)[1] == math.comb(600, 300)
    with pytest.raises(AssertionError):
        d.incidence


def test_invalid_diagrams_report_in_dense_order():
    # Every invalid case reports something, and the messages come level by
    # level as (c), (e), (f) runs, each in row-major order.
    for name, d in _invalid_diagrams():
        assert d.validate(), name
    found = BratteliDiagram((1, 3, 2), (((1, -2, 1),), ((1, -1), (0, 0), (-3, 2)))).validate()
    assert found == [
        "(c) level=0 edge (0->1): negative multiplicity -2",
        "(f) level=1 vertex=1: no incoming edge",
        "(c) level=1 edge (0->1): negative multiplicity -1",
        "(c) level=1 edge (2->0): negative multiplicity -3",
        "(e) level=1 vertex=1: no outgoing edge",
    ]


def test_constructor_normalizes_entries_to_int():
    d = BratteliDiagram((1, 2, 1), (((True, 2.0),), [[1], (False,)]))
    assert d.incidence == (((1, 2),), ((1,), (0,)))
    assert {type(x) for mat in d.incidence for row in mat for x in row} == {int}
    assert all(type(row) is tuple for mat in d.incidence for row in mat)
    # Rows that already are tuples of int are kept, not copied.
    row = (1, 2)
    assert BratteliDiagram((1, 2), ((row,),)).incidence[0][0] is row
    assert BratteliDiagram((1, 2), ((("1", "2"),),)).incidence == (((1, 2),),)


@pytest.mark.parametrize(
    "counts, incidence, message",
    [
        ((1, 1), (((1.5,),),), "incidence 0 entry 1.5 is not an integer"),
        ((1, 1, 2), (((1,),), ((1, Fraction(5, 2)),)), "incidence 1 entry Fraction(5, 2) is not an integer"),
        ((1.7, 1), (((1,),),), "vertex count 1.7 is not an integer"),
    ],
)
def test_constructor_refuses_an_entry_that_int_would_truncate(counts, incidence, message):
    with pytest.raises(ValueError) as info:
        BratteliDiagram(counts, incidence)
    assert str(info.value) == message


@pytest.mark.parametrize("bad", ["x", "", None, 1j, [1]])
def test_constructor_raises_what_int_raises_on_a_bad_entry(bad):
    try:
        int(bad)
    except (TypeError, ValueError) as exc:
        expected = exc
    with pytest.raises(type(expected)) as info:
        BratteliDiagram((1, 2), (((1, bad),),))
    assert str(info.value) == str(expected)
