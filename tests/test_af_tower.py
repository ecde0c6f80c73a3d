"""Block-matrix stages: matrix units, embeddings, and the averaging projections."""

import math
import random
from fractions import Fraction

import pytest

from afpath import (
    AfElement,
    Scalar,
    ZERO,
    ONE,
    I,
    constant,
    dimension_vector,
    embed_multiplicities,
    expect,
    indicator_path,
    jones_projection,
    jones_refinement_check,
    matrix_unit,
    represent_cylinder,
    toeplitz_word,
    random_cylinder,
    BratteliDiagram,
    VerifyConfig,
    Vertex,
    builtin_diagram,
    parse_diagram,
    run_suites,
)
from afpath import _exact
from test_extension_maps import BUILTIN, RANDOM, random_diagram


def all_units(d, n):
    paths = d.paths(n)
    units = {}
    for gids in d.block_paths(n):
        for a in gids:
            for b in gids:
                units[(a, b)] = matrix_unit(d, paths[a], paths[b])
    return units


def random_element(d, n, rng):
    blocks = []
    for gids in d.block_paths(n):
        size = len(gids)
        block = {}
        for _ in range(size + 2):
            i, j = rng.randrange(size), rng.randrange(size)
            block[(i, j)] = Scalar(
                Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))),
                Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))),
            )
        blocks.append(block)
    return AfElement(d, n, blocks)


# -- construction and access ---------------------------------------------------


def test_identity_and_zero(pascal):
    e = AfElement.identity(pascal, 2)
    z = AfElement.zero(pascal, 2)
    assert e * e == e
    assert e.adjoint() == e
    assert z.is_zero() and not e.is_zero()
    assert e + z == e
    for v in range(3):
        assert e.trace_block(v) == Scalar(e.block_size(v))


def test_constructor_validates(car):
    with pytest.raises(ValueError):
        AfElement(car, 1, [])  # car level 1 has exactly one block
    with pytest.raises(ValueError):
        AfElement(car, 1, [{(0, 5): 1}])  # column index outside the 2x2 block
    with pytest.raises(ValueError):
        AfElement(car, 9, [{}])
    with pytest.raises(ValueError):
        AfElement.zero(car, 9)


def test_entry_and_dense_block(car):
    a, b = car.paths(1)
    u = matrix_unit(car, a, b)
    assert u.entry(a, b) == ONE
    assert u.entry(b, a) == ZERO
    assert u.dense_block(0) == [[ZERO, ONE], [ZERO, ZERO]]
    with pytest.raises(ValueError):
        u.entry(car.paths(2)[0], b)  # a length-2 path has no row at stage 1


def test_matrix_unit_requires_matching_terminals(fibonacci):
    p0, p1 = fibonacci.paths(1)
    assert p0.terminal() != p1.terminal()
    with pytest.raises(ValueError):
        matrix_unit(fibonacci, p0, p1)


# -- the matrix-unit relations ---------------------------------------------------


def test_unit_product_rule_car(car):
    units = all_units(car, 2)
    for (a, b), u1 in units.items():
        for (c, e), u2 in units.items():
            prod = u1 * u2
            if b == c:
                assert prod == units[(a, e)]
            else:
                assert prod.is_zero()


def test_unit_adjoint_rule(pascal):
    units = all_units(pascal, 2)
    for (a, b), u in units.items():
        assert u.adjoint() == units[(b, a)]


def test_partition_of_unity(car, pascal, fibonacci):
    for d in (car, pascal, fibonacci):
        n = 2
        units = all_units(d, n)
        total = AfElement.zero(d, n)
        for gid in range(len(d.paths(n))):
            total = total + units[(gid, gid)]
        assert total == AfElement.identity(d, n)


def test_star_algebra_axioms_random(fibonacci):
    rng = random.Random(17)
    for _ in range(8):
        x = random_element(fibonacci, 3, rng)
        y = random_element(fibonacci, 3, rng)
        assert (x * y).adjoint() == y.adjoint() * x.adjoint()
        assert (x + y).adjoint() == x.adjoint() + y.adjoint()
        assert x.adjoint().adjoint() == x
        assert (2 * x) * y == 2 * (x * y)
        assert (I * x).adjoint() == -I * x.adjoint()


# -- cylinder functions as diagonal matrices ----------------------------------------


def test_represent_cylinder_diagonal(car):
    f = indicator_path(car, car.paths(2)[1])
    x = represent_cylinder(f)
    assert x.entry(car.paths(2)[1], car.paths(2)[1]) == ONE
    assert sum(len(b) for b in x.blocks) == 1
    g = random_cylinder(car, 2, random.Random(1))
    assert represent_cylinder(f * g) == represent_cylinder(f) * represent_cylinder(g)


def test_represent_unital(pascal):
    assert represent_cylinder(constant(pascal, 1).refine(2)) == AfElement.identity(pascal, 2)


# -- embeddings -------------------------------------------------------------------


def test_embed_spreads_over_extensions(car):
    a, b = car.paths(1)
    u = matrix_unit(car, a, b).embed()
    assert u.level == 2
    edges = car.edges_from(Vertex(1, 0))
    for e in edges:
        assert u.entry(a.extend(e), b.extend(e)) == ONE
    assert sum(len(blk) for blk in u.blocks) == len(edges)


def test_embed_is_unital_and_multiplicative(fibonacci):
    rng = random.Random(19)
    for n in (1, 2):
        assert AfElement.identity(fibonacci, n).embed() == AfElement.identity(fibonacci, n + 1)
        for _ in range(5):
            x = random_element(fibonacci, n, rng)
            y = random_element(fibonacci, n, rng)
            assert x.embed() * y.embed() == (x * y).embed()
            assert x.embed().adjoint() == x.adjoint().embed()
            assert x.is_zero() or not x.embed().is_zero()


def test_embed_to_composes(car):
    rng = random.Random(2)
    x = random_element(car, 1, rng)
    assert x.embed_to(3) == x.embed().embed()
    assert x.embed_to(1) == x


def test_embed_coherent_with_refinement(pascal):
    rng = random.Random(7)
    for _ in range(5):
        f = random_cylinder(pascal, 2, rng)
        assert represent_cylinder(f).embed() == represent_cylinder(f.refine(3))


def test_embed_multiplicities_match_incidence(builtins):
    for d in builtins.values():
        for n in range(d.depth):
            assert embed_multiplicities(d, n) == d.incidence[n]


def test_block_access_rejects_vertices_outside_the_level(fibonacci):
    e = AfElement.identity(fibonacci, 3)
    for v in (7, -1, 2):
        for read in (e.trace_block, e.block_size, e.dense_block):
            with pytest.raises(ValueError, match=r"Vertex\(3, %d\) does not exist \(level has 2 vertices\)" % v):
                read(v)


@pytest.mark.parametrize("source", ["fibonacci", "random-3"])
def test_tower_suite_fails_when_rank_is_off_for_one_first_path(source, monkeypatch):
    # Level 2 has two vertices on fibonacci, three with parallel edges on random-3.
    d = builtin_diagram(source) if source == "fibonacci" else random_diagram(3)
    n = 2
    target = list(d._first_paths(n))[-1]
    true_rank = BratteliDiagram._rank
    hits = []

    def off(self, m, path):
        if path != target:
            return true_rank(self, m, path)
        hits.append(m)
        return true_rank(self, m, path) + 1

    monkeypatch.setattr(BratteliDiagram, "_rank", off)
    (result,) = run_suites(VerifyConfig(source=source, suites=("tower",)), d)
    assert hits
    assert not result.passed and result.failure_kind == "counterexample"
    assert result.counterexample == "realized-multiplicity;n=%d" % n


def test_dimension_vector(car, pascal):
    assert dimension_vector(pascal, 3) == ((1, 3, 3, 1), 20)
    for n in range(4):
        assert dimension_vector(car, n) == ((2 ** n,), 4 ** n)


# -- averaging projections ---------------------------------------------------------


def test_jones_projection_car_level1(car):
    e = jones_projection(car, 1)
    half = Scalar(Fraction(1, 2))
    assert e.blocks == ({(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): half},)


def test_jones_projection_relations(pascal):
    for m in range(4):
        assert jones_projection(pascal, 0, m) == AfElement.identity(pascal, m)
        for n in range(m + 1):
            e_n = jones_projection(pascal, n, m)
            assert e_n * e_n == e_n
            assert e_n.adjoint() == e_n
            if n < m:
                e_next = jones_projection(pascal, n + 1, m)
                assert e_next * e_n == e_next
                assert e_n * e_next == e_next


def test_jones_projection_averages(fibonacci):
    rng = random.Random(43)
    for n in range(3):
        m = 3
        e_n = jones_projection(fibonacci, n, m)
        for _ in range(5):
            f = random_cylinder(fibonacci, m, rng)
            lhs = e_n * represent_cylinder(f) * e_n
            rhs = represent_cylinder(expect(f, n).refine(m)) * e_n
            assert lhs == rhs


def _jones_by_embedding(d, n, m):
    """The projection's row index built at level n, one row per block shared
    by its paths, then extended to stage m by ``embed_to``."""
    groups = d.block_paths(n)
    den = math.lcm(*map(len, groups))
    rows = {}
    for gids in groups:
        row = (list(gids), [den // len(gids)] * len(gids), [0] * len(gids))
        rows.update((a, row) for a in gids)
    return AfElement._from_index(d, n, _exact.indexed(den, rows)).embed_to(m)._index


# 7, 7, 6 parallel edges down one vertex per level; and 5 edges from the
# root to each of 10 vertices, 6 down each vertex's own column, then the
# identity.
_WIDE_FILES = {
    "d776": "BRATTELI 1\nlevels 3\nvertices 1 1 1 1\nincidence 0\n7\nincidence 1\n7\nincidence 2\n6\n",
    "ten-vertex": "BRATTELI 1\nlevels 3\nvertices 1 10 10 10\nincidence 0\n%s\nincidence 1\n%s\nincidence 2\n%s\n"
    % (
        " ".join(["5"] * 10),
        "\n".join(" ".join(str(6 * (i == j)) for j in range(10)) for i in range(10)),
        "\n".join(" ".join(str(int(i == j)) for j in range(10)) for i in range(10)),
    ),
}
WIDE = [pytest.param(text, id=name) for name, text in _WIDE_FILES.items()]


@pytest.mark.parametrize("d", BUILTIN + RANDOM + WIDE)
def test_jones_projection_shares_one_row_per_tail_class(d):
    if isinstance(d, str):
        d = parse_diagram(d)
    for m in range(d.depth + 1):
        for n in range(m + 1):
            den, rows = jones_projection(d, n, m)._index
            want_den, want_rows = _jones_by_embedding(d, n, m)
            assert den == want_den
            assert list(rows.items()) == list(want_rows.items())
            classes, class_of = d.tail_classes(m, n)
            assert len({id(row) for row in rows.values()}) == len(classes)
            for p, row in rows.items():
                assert row is rows[classes[class_of[p]][0]]


def test_toeplitz_word_recovers_units(car):
    for n in (1, 2):
        paths = car.paths(n)
        for gamma in paths:
            for delta in paths:
                assert toeplitz_word(car, gamma, delta) == matrix_unit(car, gamma, delta)
                assert toeplitz_word(car, gamma, delta, n + 1) == matrix_unit(
                    car, gamma, delta
                ).embed()


def test_toeplitz_word_vanishes_across_blocks(pascal, fibonacci):
    for d in (pascal, fibonacci):
        mismatched = [
            (g, h)
            for g in d.paths(2)
            for h in d.paths(2)
            if g.terminal() != h.terminal()
        ]
        assert mismatched
        for gamma, delta in mismatched:
            assert toeplitz_word(d, gamma, delta).is_zero()
            assert toeplitz_word(d, gamma, delta, 3).is_zero()


def _toeplitz_oracle(d, gamma, delta, m):
    """The word with rho(I_gamma), rho(I_delta) read off refined full-length indicators."""
    left = represent_cylinder(indicator_path(d, gamma).refine(m))
    right = represent_cylinder(indicator_path(d, delta).refine(m))
    e_n = jones_projection(d, len(gamma), m)
    return d.path_count(gamma.terminal()) * (left * e_n * right)


@pytest.mark.parametrize("d", BUILTIN + RANDOM)
def test_toeplitz_word_matches_the_indicator_oracle(d):
    for n in range(4):
        paths = d.paths(n)
        for m in (n, n + 1):
            for gamma in paths:
                for delta in paths:
                    assert toeplitz_word(d, gamma, delta, m) == _toeplitz_oracle(d, gamma, delta, m)


def test_jones_refinement(car, fibonacci):
    assert jones_refinement_check(car, 0, 1)
    assert jones_refinement_check(car, 1, 2)
    assert jones_refinement_check(car, 1, 3)
    assert jones_refinement_check(fibonacci, 0, 2)
    assert jones_refinement_check(fibonacci, 2, 3)
    with pytest.raises(ValueError):
        jones_refinement_check(car, 2, 2)


def test_level_mismatch_rejected(car):
    x = AfElement.identity(car, 1)
    y = AfElement.identity(car, 2)
    with pytest.raises(ValueError):
        x * y
    with pytest.raises(ValueError):
        x + y
