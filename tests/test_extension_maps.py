"""Path-id extension maps on diagrams with parallel edges and several
vertices per level (``MIXED`` and seeded random ones), checked against
explicit FinitePath oracles."""

import random
from fractions import Fraction

import pytest

from afpath import (
    BUILTIN_NAMES,
    AfElement,
    BratteliDiagram,
    CylinderFunction,
    Edge,
    FinitePath,
    GroupoidFunction,
    Scalar,
    builtin_diagram,
    class_sum,
    constant,
    embed_multiplicities,
    expect,
    indicator_edge,
    indicator_path,
    jones_kernel,
    jones_projection,
    matrix_unit,
    parse_diagram,
    represent,
    serialize_diagram,
)
from afpath import _exact, cli
from afpath.harness import random_af_element, random_cylinder, random_groupoid_function

# Vertices 1,3,3,3,3 with multiplicities 0-2 and uneven fan-in: 4, 9, 21
# and 41 paths at levels 1-4.  No built-in has both parallel edges and
# more than one vertex per level.
MIXED = BratteliDiagram(
    (1, 3, 3, 3, 3),
    (
        ((1, 2, 1),),
        ((1, 0, 1), (1, 1, 0), (0, 2, 1)),
        ((2, 0, 1), (0, 1, 1), (1, 1, 0)),
        ((1, 0, 0), (0, 1, 1), (1, 2, 0)),
    ),
)


def test_mixed_diagram_shape():
    d = MIXED
    assert d.validate() == []
    assert [len(d.paths(n)) for n in range(d.depth + 1)] == [1, 4, 9, 21, 41]


def random_diagram(seed, depth=4):
    """A seeded valid diagram with 2-3 vertices below the root, multiplicities
    0-2, at least one parallel edge per level and uneven fan-in."""
    rng = random.Random("diagram:%d" % seed)
    counts = [1] + [rng.randint(2, 3) for _ in range(depth)]
    mats = []
    for n in range(depth):
        rows, cols = counts[n], counts[n + 1]
        while True:
            mat = [[rng.choice((0, 0, 1, 2)) for _ in range(cols)] for _ in range(rows)]
            fan_in = [sum(row[j] for row in mat) for j in range(cols)]
            if all(any(row) for row in mat) and all(fan_in) and len(set(fan_in)) > 1 and 2 in sum(mat, []):
                break
        mats.append(mat)
    d = BratteliDiagram(counts, mats)
    assert d.validate() == []
    return d


RANDOM = [pytest.param(random_diagram(seed), id="random-%d" % seed) for seed in range(12)]
BUILTIN = [pytest.param(builtin_diagram(name), id=name) for name in BUILTIN_NAMES]
SEEDED = [pytest.param(MIXED, id="mixed")] + RANDOM


def path_id_diagrams():
    yield from ((name, builtin_diagram(name, 4)) for name in BUILTIN_NAMES)
    yield "mixed", MIXED
    for seed in range(12):
        d = random_diagram(seed)
        back = parse_diagram(serialize_diagram(d))
        assert (back.vertex_counts, back.incidence) == (d.vertex_counts, d.incidence)
        yield "random-%d" % seed, back


def oracle_tail_classes(d, m, n):
    """Level-n tail classes of the length-m paths, keyed by the level-n
    vertex and the edges from n on, numbered in order of first appearance."""
    key_to_class = {}
    classes = []
    class_of = []
    for p in d.paths(m):
        key = (p.vertex_at(n).index, p.edges[n:])
        if key not in key_to_class:
            key_to_class[key] = len(classes)
            classes.append([])
        cid = key_to_class[key]
        classes[cid].append(len(class_of))
        class_of.append(cid)
    return tuple(tuple(c) for c in classes), tuple(class_of)


@pytest.mark.parametrize("d", [pytest.param(d, id=name) for name, d in path_id_diagrams()])
def test_path_id_maps_match_path_oracles(d):
    for n in range(d.depth + 1):
        paths = d.paths(n)
        ends = tuple(p.terminal().index for p in paths)
        assert d.terminals(n) == ends
        assert d.block_paths(n) == tuple(
            tuple(g for g, t in enumerate(ends) if t == v) for v in range(d.vertex_counts[n])
        )
        assert d.block_pos(n) == tuple((t, ends[:g].count(t)) for g, t in enumerate(ends))
        if n < d.depth:
            c = d.children(n)
            assert len(c) == len(paths) + 1
            for g, p in enumerate(paths):
                assert list(range(c[g], c[g + 1])) == [d.path_id(p.extend(e)) for e in d.edges_from(p.terminal())]
        for k in range(n + 1):
            assert d.tail_classes(n, k) == oracle_tail_classes(d, n, k)


def test_terminals_rejects_levels_outside_range():
    for level in (-1, MIXED.depth + 1):
        with pytest.raises(ValueError):
            MIXED.terminals(level)


def _path_keys(d):
    return sorted(key for key in d._memo if key[0] in ("paths", "path_index"))


def test_id_level_operations_enumerate_no_paths(monkeypatch, capsys):
    depth = 10
    for make in (lambda: builtin_diagram("fibonacci", depth), lambda: random_diagram(0, depth)):
        d = make()
        assert embed_multiplicities(d, depth - 1) == d.incidence[depth - 1]
        f = random_cylinder(d, 6, random.Random(1))
        expect(f, 3)
        class_sum(f, 5)
        class_sum(constant(d, 1).refine(depth), 2)
        AfElement.identity(d, 2).embed_to(depth)
        random_af_element(d, 3, random.Random(2)).embed_to(7)
        jones_kernel(d, 2).widen(4, depth)
        random_groupoid_function(d, 1, 3, random.Random(3)).widen(2, 8)
        assert _path_keys(d) == []
        # The public readers of one deep path's id rank it; none indexes its level.
        gid = len(d.terminals(depth)) // 3
        p = d._path_at(depth, gid)
        assert d.path_id(p) == gid
        assert matrix_unit(d, p, p).entry(p, p) == 1
        k = jones_kernel(d, 2).widen(4, depth)
        assert k.value(p, p) == k.table[(gid, gid)]
        assert indicator_path(d, p).eval(p) == 1
        assert f.eval(p) == f.table[d.prefix_ids(depth, 6)[gid]]
        assert _path_keys(d) == []
    built = []
    original = cli.resolve_diagram

    def resolve(config):
        built.append(original(config))
        return built[-1]

    monkeypatch.setattr(cli, "resolve_diagram", resolve)
    assert cli.main(["embed-matrix", "car", "--depth", "30", "--level", "12"]) == 0
    assert capsys.readouterr().out.endswith("match=yes\n")
    assert _path_keys(built[0]) == []


def _level_table_keys_above(d, level):
    kinds = ("terminals", "descendants", "block_paths", "paths", "path_index")
    return sorted(key for key in d._memo if key[0] in kinds and max(key[1:]) > level)


@pytest.mark.parametrize("name, depth, level", [("car", 30, 29), ("pascal", 300, 60)])
def test_embed_multiplicities_builds_no_level_table(name, depth, level):
    d = builtin_diagram(name, depth)
    assert embed_multiplicities(d, level) == d.incidence[level]
    assert _level_table_keys_above(d, 2) == []


def test_indicator_of_a_deep_path_builds_no_level_table():
    d = builtin_diagram("car", 16)
    p = d._path_at(16, 12345)
    assert indicator_path(d, p).eval(p) == 1
    assert _level_table_keys_above(d, -1) == []


def oracle_embed_multiplicities(d, n):
    """The enumerating form: the unit at ``terminals(n).index(v)`` embedded
    through the whole ``children(n)`` map and traced through the whole
    ``terminals(n + 1)`` tuple."""
    terminals = d.terminals(n)
    rows = []
    for v in range(d.vertex_counts[n]):
        first = terminals.index(v)
        image = AfElement._from_index(d, n, _exact.unit(first, first)).embed()
        traces = [image.trace_block(w) for w in range(d.vertex_counts[n + 1])]
        assert all(not t.im and t.re.denominator == 1 for t in traces)
        rows.append(tuple(int(t.re) for t in traces))
    return tuple(rows)


def _check_embed_multiplicities(d):
    for n in range(d.depth):
        assert embed_multiplicities(d, n) == oracle_embed_multiplicities(d, n) == d.incidence[n]


@pytest.mark.parametrize("d", BUILTIN + SEEDED)
def test_embed_multiplicities_match_the_enumerating_oracle(d):
    _check_embed_multiplicities(d)


@pytest.mark.parametrize("name, depth", [("car", 19), ("fibonacci", 13), ("pascal", 13), ("uhf3", 13)])
def test_embed_multiplicities_match_the_enumerating_oracle_on_deep_levels(name, depth):
    # Built here, not at collection, so the oracle's level tables (about
    # 40 MB for uhf3 level 13) are freed after the test.
    _check_embed_multiplicities(builtin_diagram(name, depth))


def rank_diagram(name):
    """A built-in at depth 8, or MIXED, or a seeded random diagram."""
    if name in BUILTIN_NAMES:
        return builtin_diagram(name, 8)
    return MIXED if name == "mixed" else random_diagram(int(name.split("-")[1]))


RANK_NAMES = list(BUILTIN_NAMES) + ["mixed"] + ["random-%d" % seed for seed in range(12)]


@pytest.mark.parametrize("name", RANK_NAMES)
def test_rank_is_the_path_id_and_the_first_descendant(name):
    d = rank_diagram(name)
    for n in range(d.depth + 1):
        for gid, p in enumerate(d.paths(n)):
            assert d._rank(n, p) == d.path_id(p) == gid
            for m in range(n + 1, d.depth + 1):
                assert d._rank(m, p) == d.descendants(n, m)[gid]


@pytest.mark.parametrize("name", RANK_NAMES)
def test_first_path_into_each_vertex_ranks_to_its_first_id(name):
    d = rank_diagram(name)
    for n in range(d.depth + 1):
        terminals = d.terminals(n)
        firsts = list(d._first_paths(n))
        assert len(firsts) == d.vertex_counts[n]
        for v, steps in enumerate(firsts):
            assert d._rank(n, steps) == terminals.index(v)
            assert steps == d._unrank(n, terminals.index(v))


@pytest.mark.parametrize(
    "counts, rows, firsts",
    [
        # two roots: paths start at root 0, so root 1 has none
        ((2, 1), [[[1], [1]]], [["()", None], ["0>0#0"]]),
        # vertex 1 of level 1 is unfed, so only level-2 vertex 0's path via 0 exists
        ((1, 2, 2), [[[1, 0]], [[1, 1], [0, 1]]], [["()"], ["0>0#0", None], ["0>0#0;0>0#0", "0>0#0;0>1#0"]]),
        # level-2 vertex 1's first path passes level-1 vertex 0, so it comes
        # before level-2 vertex 0 and is level-3 vertex 0's earliest predecessor
        ((1, 2, 2, 2), [[[1, 1]], [[0, 1], [1, 0]], [[1, 1], [1, 0]]],
         [["()"], ["0>0#0", "0>1#0"], ["0>1#0;1>0#0", "0>0#0;0>1#0"],
          ["0>0#0;0>1#0;1>0#0", "0>1#0;1>0#0;0>1#0"]]),
        # a negative multiplicity stands for no edge, as in ``edges_from``
        ((1, 2, 2), [[[1, -1]], [[1, 0], [0, 1]]], [["()"], ["0>0#0", None], ["0>0#0;0>0#0", None]]),
    ],
    ids=["two-roots", "unfed-vertex", "late-predecessor", "negative-multiplicity"],
)
def test_first_paths_on_small_diagrams(counts, rows, firsts):
    d = BratteliDiagram(counts, rows)
    for n, want in enumerate(firsts):
        got = [None if steps is None else _format_steps(steps) for steps in d._first_paths(n)]
        assert got == want


def _format_steps(steps):
    """``format_path``'s ``s>r#k;...`` form of ``(level, source, target, copy)`` steps."""
    return ";".join("%d>%d#%d" % step[1:] for step in steps) or "()"


@pytest.mark.parametrize("name", RANK_NAMES)
def test_id_kernels_build_no_path_and_read_no_level_of_paths(name, monkeypatch):
    built = []
    make = FinitePath.__new__

    def counted(cls, edges=()):
        built.append(cls)
        return make(cls, edges)

    monkeypatch.setattr(FinitePath, "__new__", counted)
    fresh = rank_diagram(name)
    d = BratteliDiagram(fresh.vertex_counts, fresh.incidence)
    for n in range(d.depth):
        embed_multiplicities(d, n)
        list(d._first_paths(n))
        for v in d.vertices(n):
            for e in d.edges_from(v):
                indicator_edge(d, e)
        for m in range(n, d.depth + 1):
            jones_projection(d, n, m)
    assert built == []
    assert not [key for key in d._memo if key[0] == "paths"]
    # The counter sees a path built by unranking.
    d._path_at(d.depth, 0)
    assert built == [FinitePath]


def test_embed_multiplicities_names_a_vertex_no_path_reaches():
    d = BratteliDiagram((1, 2, 2), [[[1, 0]], [[1, 1], [0, 1]]])
    with pytest.raises(ValueError, match=r"no path reaches Vertex\(1, 1\)"):
        embed_multiplicities(d, 1)


def test_rank_rejects_bad_levels_and_foreign_paths():
    d = builtin_diagram("fibonacci", 3)
    p = d.paths(2)[1]
    with pytest.raises(ValueError, match=r"level 4 out of range 0\.\.3"):
        d._rank(4, p)
    with pytest.raises(ValueError, match="no extension to level 1"):
        d._rank(1, p)
    for foreign in (builtin_diagram("car", 3).paths(2)[1], FinitePath([Edge(0, 0, 1, 0), Edge(1, 1, 1, 0)])):
        with pytest.raises(ValueError, match="is not a path of this diagram"):
            d._rank(2, foreign)
        with pytest.raises(ValueError, match="is not a path of this diagram"):
            d.path_id(foreign)
    with pytest.raises(ValueError, match=r"level 4 out of range 0\.\.3"):
        d.path_id(builtin_diagram("fibonacci", 4).paths(4)[1])
    # Only a FinitePath chains from the root: neither a real path's edge
    # tuple nor an unchained one (which _rank alone would rank 0) has an id
    # or a cylinder value.
    f = constant(d, 1).refine(2)
    for edges in (p.edges, (Edge(0, 0, 0, 0), Edge(1, 1, 0, 0))):
        for read in (d.path_id, f.eval):
            with pytest.raises(ValueError, match="is not a path of this diagram"):
                read(edges)


def test_children_are_the_one_edge_extensions():
    d = MIXED
    for n in range(d.depth):
        c = d.children(n)
        assert len(c) == len(d.paths(n)) + 1
        for gid, p in enumerate(d.paths(n)):
            want = [d.path_id(p.extend(e)) for e in d.edges_from(p.terminal())]
            assert list(range(c[gid], c[gid + 1])) == want


@pytest.mark.parametrize("level", [-1, 4, 5])
def test_children_rejects_levels_outside_range(level):
    with pytest.raises(ValueError):
        MIXED.children(level)


def test_descendants_are_the_extensions_by_segments():
    _check_descendants(MIXED)


def _check_descendants(d):
    for n in range(d.depth + 1):
        for m in range(n, d.depth + 1):
            off = d.descendants(n, m)
            for gid, p in enumerate(d.paths(n)):
                want = [d.path_id(q) for q in d.paths(m) if q.prefix(n) == p]
                assert list(range(off[gid], off[gid + 1])) == want
    for n, m in ((-1, 2), (3, 2), (2, 5)):
        with pytest.raises(ValueError):
            d.descendants(n, m)


@pytest.mark.parametrize("d", RANDOM)
def test_descendants_match_path_oracles_on_random_diagrams(d):
    _check_descendants(d)


@pytest.mark.parametrize("d", SEEDED)
def test_path_at_is_the_enumerated_path(d):
    for m in range(d.depth + 1):
        paths = d.paths(m)
        assert [d._path_at(m, g) for g in range(len(paths))] == list(paths)
        for g in (-1, len(paths)):
            with pytest.raises(ValueError):
                d._path_at(m, g)


def _embed_oracle(x, m):
    """Extend x one level at a time, through ``children`` of each level."""
    d, index = x.diagram, x._index
    for k in range(x.level, m):
        index = _exact.extend_index(index, d.children(k))
    return AfElement._from_index(d, m, index)


@pytest.mark.parametrize("d", SEEDED)
def test_embed_to_extends_once_like_the_per_level_oracle(d):
    rng = random.Random(17)
    for n in range(d.depth + 1):
        x = random_af_element(d, n, rng)
        for m in range(n, d.depth + 1):
            y = x.embed_to(m)
            assert y.level == m and y == _embed_oracle(x, m)
        if n < d.depth:
            assert x.embed() == _embed_oracle(x, n + 1)


def test_embed_keeps_its_messages():
    d = MIXED
    x = AfElement.identity(d, 2)
    with pytest.raises(ValueError, match="cannot embed level 2 down to 1"):
        x.embed_to(1)
    with pytest.raises(ValueError, match="cannot embed past the truncation depth 4"):
        x.embed_to(5)
    with pytest.raises(ValueError, match="cannot embed past the truncation depth 4"):
        AfElement.identity(d, 4).embed()


def test_level_changes_enumerate_no_level_in_between():
    n, depth = 3, 20
    d = builtin_diagram("fibonacci", depth)
    desc = d.descendants(n, depth)
    for g, p in enumerate(d.paths(n)):
        assert matrix_unit(d, p, p).embed_to(depth).nnz() == desc[g + 1] - desc[g]
    jones_kernel(d, n).widen(n, depth)
    jones_projection(d, n, depth)
    kinds = ("terminals", "paths", "path_index", "children", "descendants")
    between = [key for key in d._memo if key[0] in kinds and any(n < k < depth for k in key[1:])]
    assert between == []


def test_prefix_ids_match_path_prefixes():
    d = MIXED
    for m in range(d.depth + 1):
        for k in range(m + 1):
            want = tuple(d.path_id(p.prefix(k)) for p in d.paths(m))
            assert d.prefix_ids(m, k) == want


def test_refine_rereads_the_value_at_each_extension():
    d = MIXED
    rng = random.Random(3)
    for level in range(d.depth + 1):
        f = random_cylinder(d, level, rng)
        for m in range(level, d.depth + 1):
            g = f.refine(m)
            assert g.table == tuple(f.eval(p) for p in d.paths(m))


def _widen_oracle(F, table_level):
    d = F.diagram
    paths = d.paths(F.table_level)
    out = {}
    for (a, b), val in F.table.items():
        pa, pb = paths[a], paths[b]
        for w in d.vertices(table_level):
            for seg in d.segments(pa.terminal(), w):
                out[(d.path_id(pa.followed_by(seg)), d.path_id(pb.followed_by(seg)))] = val
    return out


def test_widen_copies_each_pair_onto_common_continuations():
    d = MIXED
    rng = random.Random(5)
    for n in range(d.depth + 1):
        for m in range(n, d.depth + 1):
            F = random_groupoid_function(d, n, m, rng)
            for n2 in range(n, d.depth + 1):
                for m2 in range(max(m, n2), d.depth + 1):
                    G = F.widen(n2, m2)
                    assert (G.support_level, G.table_level) == (n2, m2)
                    assert G.table == _widen_oracle(F, m2)


def test_embed_spreads_each_unit_over_common_edges():
    d = MIXED
    rng = random.Random(7)
    for n in range(d.depth):
        x = random_af_element(d, n, rng)
        want = {}
        for _, z, h, val in x.nonzero_entries():
            for e in d.edges_from(z.terminal()):
                want[(d.path_id(z.extend(e)), d.path_id(h.extend(e)))] = val
        assert represent(x.embed()).table == want


def test_represent_intertwines_embed_and_widen():
    d = MIXED
    rng = random.Random(11)
    for n in range(d.depth):
        for _ in range(3):
            x = random_af_element(d, n, rng)
            assert represent(x.embed()) == represent(x).widen(n + 1, n + 1)


def _sparse_af_element(d, n, rng):
    blocks = []
    for gids in d.block_paths(n):
        size = len(gids)
        blocks.append({
            (rng.randrange(size), rng.randrange(size)): Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
            for _ in range(size + 1)
        })
    return AfElement(d, n, blocks)


def test_block_view_round_trips_the_pair_table():
    d = MIXED
    rng = random.Random(13)
    for n in range(d.depth + 1):
        pos = d.block_pos(n)
        for x in (random_af_element(d, n, rng), _sparse_af_element(d, n, rng)):
            assert all(x.table.values())
            assert AfElement(d, n, x.blocks) == x
            assert represent(x).table == x.table
            entries = list(x.nonzero_entries())
            keys = [(v, pos[d.path_id(z)][1], pos[d.path_id(h)][1]) for v, z, h, _ in entries]
            assert keys == sorted(keys)
            assert {(d.path_id(z), d.path_id(h)): val for _, z, h, val in entries} == x.table
            for v, gids in enumerate(d.block_paths(n)):
                dense = x.dense_block(v)
                assert x.trace_block(v) == sum((dense[i][i] for i in range(len(gids))), Scalar(0))
            if n < d.depth:
                assert (x == x.embed()) is False
                assert (AfElement.zero(d, n) == AfElement.zero(d, n + 1)) is False


# -- seeded random elements -------------------------------------------------------


def _oracle_scalar(rng):
    # The harness's draw of one entry, as it was written over Fractions.
    re = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4)))
    im = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4)))
    return Scalar(re, im)


def _oracle_elements(d, rng):
    out = []
    for n in range(d.depth + 1):
        out.append(CylinderFunction(d, n, [_oracle_scalar(rng) for _ in d.paths(n)]))
        blocks = [
            {(i, j): _oracle_scalar(rng) for i in range(len(gids)) for j in range(len(gids))}
            for gids in d.block_paths(n)
        ]
        out.append(AfElement(d, n, blocks))
        for k in range(n + 1):
            classes, _ = d.tail_classes(n, k)
            table = {(a, b): _oracle_scalar(rng) for cls in classes for a in cls for b in cls}
            out.append(GroupoidFunction(d, k, n, table))
    return out


def _harness_elements(d, rng):
    out = []
    for n in range(d.depth + 1):
        out.append(random_cylinder(d, n, rng))
        out.append(random_af_element(d, n, rng))
        out.extend(random_groupoid_function(d, k, n, rng) for k in range(n + 1))
    return out


def _report(x):
    if isinstance(x, CylinderFunction):
        return [val.to_report() for val in x.table]
    return {key: val.to_report() for key, val in x.table.items()}


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("mixed",))
def test_random_elements_make_the_draws_of_the_scalar_oracle(name):
    d = MIXED if name == "mixed" else builtin_diagram(name, 3)
    got_rng, want_rng = random.Random("draws:" + name), random.Random("draws:" + name)
    got, want = _harness_elements(d, got_rng), _oracle_elements(d, want_rng)
    assert got_rng.getstate() == want_rng.getstate()
    for x, y in zip(got, want):
        assert type(x) is type(y)
        assert _report(x) == _report(y)
        assert x == y and x.nnz() == y.nnz()
