"""Kernels on tail-equivalent path pairs and their convolution algebra."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from afpath import (
    GroupoidFunction,
    Scalar,
    ONE,
    convolve,
    diag,
    expect,
    indicator_path,
    jones_kernel,
    jones_projection,
    matrix_unit,
    represent,
    unit_kernel,
    vanishing_check,
    word_kernel,
    random_cylinder,
    AfElement,
    FinitePath,
    builtin_diagram,
)
from afpath import _exact, groupoid
from afpath.harness import random_groupoid_function
from test_extension_maps import BUILTIN, MIXED, RANDOM


def random_kernel(d, support, table, rng):
    pairs = []
    classes, _ = d.tail_classes(table, support)
    for cls in classes:
        for a in cls:
            for b in cls:
                pairs.append((a, b))
    chosen = rng.sample(pairs, min(len(pairs), 6))
    entries = {}
    for a, b in chosen:
        entries[(a, b)] = Scalar(
            Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))),
            Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))),
        )
    return GroupoidFunction(d, support, table, entries)


# -- structure -------------------------------------------------------------------


def test_jones_kernel_car(car):
    jk = jones_kernel(car, 1)
    half = Scalar(Fraction(1, 2))
    assert jk.table == {(a, b): half for a in range(2) for b in range(2)}


def test_jones_kernel_blocks(fibonacci):
    jk = jones_kernel(fibonacci, 2)
    for alpha, beta, val in jk.entries():
        assert alpha.terminal() == beta.terminal()
        assert val == Scalar(Fraction(1, fibonacci.path_count(alpha.terminal())))


def test_widen_preserves_values(car):
    jk = jones_kernel(car, 1)
    wide = jk.widen(1, 2)
    assert len(wide.table) == 8
    paths1 = car.paths(1)
    for gamma in paths1:
        for delta in paths1:
            for e in car.edges_from(gamma.terminal()):
                a = gamma.extend(e)
                b = delta.extend(e)
                assert wide.value(a, b) == jk.value(gamma, delta)


def test_value_needs_paths_at_the_table_level(car):
    jk = jones_kernel(car, 2)
    p, q = car.paths(1)
    # Level-1 ids would index the level-2 table and read 1/4 from it.
    with pytest.raises(ValueError):
        jk.value(p, q)
    with pytest.raises(ValueError):
        jk.value(car.paths(2)[0], q)
    with pytest.raises(ValueError):
        jk.value(car.paths(3)[0], car.paths(3)[1])
    assert jk.value(car.paths(2)[0], car.paths(2)[3]) == Scalar(Fraction(1, 4))


def test_support_only_widen_equals_the_extended_index(builtins):
    # At an unchanged table level the descendants map is the identity, so
    # widening the support alone must give exactly what extend_index gives.
    rng = random.Random(11)
    for d in list(builtins.values()) + [MIXED]:
        for m in range(d.depth + 1):
            for s0 in range(m + 1):
                for f in (jones_kernel(d, s0).widen(s0, m), random_kernel(d, s0, m, rng)):
                    expected = _exact.extend_index(f._index, d.descendants(m, m))
                    for s in range(s0, m + 1):
                        wide = f.widen(s, m)
                        assert (wide.support_level, wide.table_level) == (s, m)
                        assert wide._index == expected


def test_widen_rejects_narrowing(car):
    jk = jones_kernel(car, 2)
    with pytest.raises(ValueError):
        jk.widen(2, 1)


def test_entries_only_on_admissible_pairs(pascal):
    rng = random.Random(3)
    f = random_cylinder(pascal, 2, rng)
    g = random_cylinder(pascal, 2, rng)
    jk = jones_kernel(pascal, 2)
    prod = convolve(convolve(diag(f), jk), diag(g))
    assert prod.table
    for alpha, beta, _ in prod.entries():
        assert alpha.terminal() == beta.terminal()


# -- the convolution algebra -------------------------------------------------------


def test_unit_kernel_is_neutral(car):
    rng = random.Random(5)
    one = unit_kernel(car)
    F = random_kernel(car, 1, 2, rng)
    assert convolve(one, F) == F
    assert convolve(F, one) == F


def test_diag_is_multiplicative(car):
    rng = random.Random(7)
    f = random_cylinder(car, 2, rng)
    g = random_cylinder(car, 2, rng)
    assert convolve(diag(f), diag(g)) == diag(f * g)
    assert diag(f).adjoint() == diag(f.conjugate())


def test_convolution_associates(fibonacci):
    rng = random.Random(11)
    for _ in range(6):
        F = random_kernel(fibonacci, 1, 2, rng)
        G = random_kernel(fibonacci, 1, 3, rng)
        H = random_kernel(fibonacci, 0, 2, rng)
        assert convolve(convolve(F, G), H) == convolve(F, convolve(G, H))


def test_convolution_star(fibonacci):
    rng = random.Random(13)
    for _ in range(6):
        F = random_kernel(fibonacci, 1, 2, rng)
        G = random_kernel(fibonacci, 2, 3, rng)
        assert convolve(F, G).adjoint() == convolve(G.adjoint(), F.adjoint())
        assert F.adjoint().adjoint() == F


def test_matmul_is_convolve(car):
    rng = random.Random(17)
    F = random_kernel(car, 1, 2, rng)
    G = random_kernel(car, 1, 2, rng)
    assert F @ G == convolve(F, G)


def test_kernel_projection_relations(pascal):
    for n in range(3):
        jk = jones_kernel(pascal, n)
        assert convolve(jk, jk) == jk
        assert jk.adjoint() == jk
    e1 = jones_kernel(pascal, 1)
    e2 = jones_kernel(pascal, 2)
    assert convolve(e2, e1) == e2
    assert convolve(e1, e2) == e2


def test_kernel_averaging_identity_frozen(car):
    # e_1 * diag(I_a) * e_1 has every admissible level-1 entry equal to 1/4
    jk = jones_kernel(car, 1)
    f = indicator_path(car, car.paths(1)[0])
    lhs = convolve(convolve(jk, diag(f)), jk)
    quarter = Scalar(Fraction(1, 4))
    assert lhs.table == {(a, b): quarter for a in range(2) for b in range(2)}
    rhs = convolve(diag(expect(f, 1)), jk)
    assert lhs == rhs


def test_kernel_averaging_identity_random(fibonacci):
    rng = random.Random(19)
    for n in range(3):
        jk = jones_kernel(fibonacci, n)
        for _ in range(4):
            f = random_cylinder(fibonacci, 3, rng)
            lhs = convolve(convolve(jk, diag(f)), jk)
            rhs = convolve(diag(expect(f, n)), jk)
            assert lhs == rhs


# -- the matrix-unit picture --------------------------------------------------------


def test_represent_is_point_mass(car):
    a, b = car.paths(1)
    F = represent(matrix_unit(car, a, b))
    assert F.table == {(0, 1): ONE}
    assert F.support_level == 1 and F.table_level == 1


def test_represent_matches_defining_word(car, pascal, fibonacci):
    for d in (car, pascal, fibonacci):
        for n in (1, 2):
            paths = d.paths(n)
            for gids in d.block_paths(n):
                for a in gids:
                    for b in gids:
                        u = matrix_unit(d, paths[a], paths[b])
                        assert represent(u) == word_kernel(d, paths[a], paths[b])


def test_represent_is_star_homomorphism(pascal):
    n = 2
    paths = pascal.paths(n)
    units = {}
    for gids in pascal.block_paths(n):
        for a in gids:
            for b in gids:
                units[(a, b)] = matrix_unit(pascal, paths[a], paths[b])
    for (a, b), u1 in units.items():
        assert represent(u1.adjoint()) == represent(u1).adjoint()
        for (c, e), u2 in units.items():
            assert convolve(represent(u1), represent(u2)) == represent(u1 * u2)


def test_represent_unital_and_linear(fibonacci):
    rng = random.Random(23)
    n = 2
    assert represent(AfElement.identity(fibonacci, n)) == unit_kernel(fibonacci).widen(0, n)
    x = represent_cylinder_sample(fibonacci, n, rng)
    y = represent_cylinder_sample(fibonacci, n, rng)
    assert represent(x + y) == represent(x) + represent(y)
    assert represent(2 * x) == 2 * represent(x)


def represent_cylinder_sample(d, n, rng):
    blocks = []
    for gids in d.block_paths(n):
        size = len(gids)
        blocks.append(
            {
                (rng.randrange(size), rng.randrange(size)): Scalar(rng.randint(-3, 3))
                for _ in range(size)
            }
        )
    return AfElement(d, n, blocks)


def test_represent_intertwines_embedding(car, fibonacci):
    for d in (car, fibonacci):
        for n in (1, 2):
            paths = d.paths(n)
            for gids in d.block_paths(n):
                for a in gids:
                    for b in gids:
                        u = matrix_unit(d, paths[a], paths[b])
                        assert represent(u.embed()) == represent(u).widen(n + 1, n + 1)


def test_jones_kernel_shares_the_projection_row_index(fibonacci):
    # The memoized projection and its kernel image keep one row index
    # between them, so neither builds its own copy.
    for n in (1, 2):
        p = jones_projection(fibonacci, n)
        k = jones_kernel(fibonacci, n)
        assert k._index is p._index
        assert k.table == p.table


def test_jones_memos_leave_a_dead_diagram_to_reference_counting():
    # The memos hold row indexes, which do not point back to the diagram,
    # so dropping its last reference frees it with the collector off.
    gc.disable()
    try:
        d = builtin_diagram("pascal", 4)
        for n in range(d.depth + 1):
            assert jones_projection(d, n, d.depth).diagram is d
            assert jones_kernel(d, n).diagram is d
        assert vanishing_check(jones_kernel(d, 2) - jones_kernel(d, 2), 3) is True
        ref = weakref.ref(d)
        del d
        assert ref() is None
    finally:
        gc.enable()


def test_zero_checks_its_levels_and_builds_no_level_table():
    # The validating constructor built every terminals level and the tail
    # classes of car's 2**20 level-20 paths for an empty table.
    d = builtin_diagram("car", 20)
    z = GroupoidFunction.zero(d, 0, 20)
    assert z.is_zero() and (z.support_level, z.table_level) == (0, 20)
    kinds = ("terminals", "tail_classes", "descendants", "block_paths", "paths")
    assert not [key for key in d._memo if key[0] in kinds]
    for n, m in ((3, 2), (-1, 0), (0, 21)):
        with pytest.raises(ValueError, match="need 0 <= support <= table <= depth"):
            GroupoidFunction.zero(d, n, m)
    assert GroupoidFunction.zero(d, 2) == GroupoidFunction(d, 2, 2, {})


# -- separating products ------------------------------------------------------------


def test_vanishing_check_zero(car):
    assert vanishing_check(GroupoidFunction.zero(car, 1, 1), 2) is True
    assert vanishing_check(GroupoidFunction.zero(car, 0, 0), 0) is True


def test_vanishing_check_produces_witness(car, pascal):
    for d in (car, pascal):
        n = 2
        paths = d.paths(n)
        for gids in d.block_paths(n):
            for a in gids:
                for b in gids:
                    F = represent(matrix_unit(d, paths[a], paths[b]))
                    assert vanishing_check(F, n) == paths[b]


def test_vanishing_check_witness_at_deeper_level(fibonacci):
    a = fibonacci.paths(1)[0]
    F = represent(matrix_unit(fibonacci, a, a))
    w = vanishing_check(F, 3)
    assert isinstance(w, FinitePath)
    assert len(w) == 3
    assert w.prefix(1) == a


def test_vanishing_check_keeps_the_no_witness_guard(monkeypatch, car):
    # With every peaked product forced to zero, a nonzero kernel has no
    # witness, and only the guard after the column loop can say so.
    monkeypatch.setattr(groupoid, "jones_kernel", lambda d, n: GroupoidFunction.zero(d, n, n))
    a, b = car.paths(2)[:2]
    with pytest.raises(AssertionError):
        vanishing_check(represent(matrix_unit(car, a, b)), 2)
    assert vanishing_check(GroupoidFunction.zero(car, 2, 2), 3) is True


def _vanishing_oracle(F, m):
    """vanishing_check's hunt over every length-m path id, nonzero columns or not."""
    d = F.diagram
    n = F.support_level
    Fw = F.widen(n, m)
    jkw = jones_kernel(d, n).widen(n, m)
    for eta in range(len(d.terminals(m))):
        peak = GroupoidFunction._from_index(d, 0, m, _exact.unit(eta, eta))
        if not convolve(convolve(Fw, peak), jkw).is_zero():
            return d._path_at(m, eta)
    assert Fw.is_zero()
    return True


def _word_oracle(d, gamma, delta):
    """word_kernel with diag(I_gamma), diag(I_delta) read off full-length indicators."""
    jk = jones_kernel(d, len(gamma))
    word = convolve(convolve(diag(indicator_path(d, gamma)), jk), diag(indicator_path(d, delta)))
    return d.path_count(gamma.terminal()) * word


@pytest.mark.parametrize("d", BUILTIN + RANDOM)
def test_unit_checks_match_the_all_ids_oracles(d):
    rng = random.Random(16)
    for n in range(4):
        paths = d.paths(n)
        for gamma in paths:
            for delta in paths:
                assert word_kernel(d, gamma, delta) == _word_oracle(d, gamma, delta)
        for gids in d.block_paths(n):
            for a in gids:
                for b in gids:
                    F = represent(matrix_unit(d, paths[a], paths[b]))
                    assert vanishing_check(F, n) == _vanishing_oracle(F, n) == paths[b]
        for m in (n, n + 1):
            kernels = [
                GroupoidFunction.zero(d, n, m),
                random_groupoid_function(d, n, m, rng),
                random_kernel(d, n, m, rng),
            ]
            for F in kernels:
                for deeper in range(m, min(m + 1, d.depth) + 1):
                    assert vanishing_check(F, deeper) == _vanishing_oracle(F, deeper)


def test_vanishing_check_level_bounds(car):
    F = jones_kernel(car, 2)
    with pytest.raises(ValueError):
        vanishing_check(F, 1)
