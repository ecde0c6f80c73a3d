"""The averaging operators: frozen values, laws, and the quasi-basis identity."""

import random
from fractions import Fraction

import pytest

from afpath import expectation
from afpath import (
    CylinderFunction,
    Scalar,
    builtin_diagram,
    class_sum,
    constant,
    expect,
    expect_indicator,
    indicator_path,
    indicator_vertex,
    prefix_sum_check,
    quasi_basis_apply,
    random_cylinder,
    Vertex,
)
from test_extension_maps import MIXED


def test_expect_of_edge_indicator_car(car):
    # both length-1 paths share the terminal, so averaging flattens I_a to 1/2
    gamma = car.paths(1)[0]
    e = expect(indicator_path(car, gamma), 1)
    assert e == Fraction(1, 2) * constant(car, 1)
    assert e == expect_indicator(car, gamma)


def test_expect_of_length_two_indicator_car(car):
    gamma = car.paths(2)[3]
    assert expect(indicator_path(car, gamma), 2) == Fraction(1, 4) * constant(car, 1)


def test_expect_indicator_closed_form(builtins):
    for d in builtins.values():
        for n in range(min(3, d.depth) + 1):
            for gamma in d.paths(n):
                assert expect(indicator_path(d, gamma), n) == expect_indicator(d, gamma)


def test_class_sum_counts_class_sizes(car, pascal):
    assert class_sum(constant(car, 1), 3).table == (Scalar(8),) * 8
    got = class_sum(constant(pascal, 1), 2)
    expected = tuple(Scalar(pascal.path_count(p.terminal())) for p in pascal.paths(2))
    assert got.table == expected


def test_class_sum_is_expect_times_size(pascal):
    rng = random.Random(11)
    f = random_cylinder(pascal, 3, rng)
    cs = class_sum(f, 2)
    ef = expect(f, 2)
    for gid, p in enumerate(pascal.paths(3)):
        size = pascal.path_count(p.vertex_at(2))
        assert cs.table[gid] == size * ef.table[gid]


def test_expect_level_zero_is_identity(fibonacci):
    rng = random.Random(3)
    f = random_cylinder(fibonacci, 2, rng)
    assert expect(f, 0) == f


def test_expect_at_own_level_averages_blocks(pascal):
    f = indicator_vertex(pascal, Vertex(2, 1))
    # E_2 fixes anything that only looks at the level-2 vertex
    assert expect(f, 2) == f


def test_quasi_basis_worked_example_car(car):
    a = car.paths(1)[0]
    b = car.paths(1)[1]
    f = indicator_path(car, a)
    # sum_gamma #r(gamma) I_gamma E_1(I_gamma f): the gamma=a term gives
    # 2 * I_a * (1/2) and the gamma=b term vanishes
    assert expect(indicator_path(car, b) * f, 1).is_zero()
    assert quasi_basis_apply(f, 1) == f


def test_quasi_basis_reconstructs(builtins):
    for name, d in builtins.items():
        rng = random.Random(name)
        for n in range(min(2, d.depth) + 1):
            f = random_cylinder(d, min(3, d.depth), rng)
            assert quasi_basis_apply(f, n) == f


def test_expectation_laws_random(fibonacci):
    d = fibonacci
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randint(0, 2)
        f = random_cylinder(d, 3, rng)
        g = random_cylinder(d, 3, rng)
        ef = expect(f, n)
        assert expect(ef, n) == ef
        assert ef.is_invariant(n)
        assert expect(f + g, n) == ef + expect(g, n)
        eg = expect(g, n)
        assert expect(eg * f, n) == eg * ef
        assert expect(f.conjugate(), n) == ef.conjugate()


def test_tower_of_expectations(pascal):
    rng = random.Random(29)
    for _ in range(6):
        f = random_cylinder(pascal, 4, rng)
        for n in range(3):
            for m in range(n, 4):
                em = expect(f, m)
                assert expect(em, n) == em
                assert expect(expect(f, n), m) == em


def test_expectation_contracts_sup_norm(car, uhf3):
    rng = random.Random(31)
    for d in (car, uhf3):
        for _ in range(6):
            f = random_cylinder(d, 3, rng)
            n = rng.randint(0, 3)
            assert expect(f, n).sup_norm_sq() <= f.sup_norm_sq()


def test_positivity(fibonacci):
    rng = random.Random(37)
    for _ in range(6):
        f = random_cylinder(fibonacci, 3, rng)
        e = expect(f * f.conjugate(), 1)
        assert all(x.im == 0 and x.re >= 0 for x in e.table)


def test_prefix_sum_identity(car, pascal):
    rng = random.Random(41)
    for d in (car, pascal):
        for _ in range(5):
            f = random_cylinder(d, 3, rng)
            for n in range(3):
                for m in range(max(n, f.level), min(4, d.depth) + 1):
                    assert prefix_sum_check(f, n, m)


def test_prefix_sum_rejects_bad_levels(car):
    f = constant(car, 1)
    with pytest.raises(ValueError):
        prefix_sum_check(f, 3, 2)
    g = f.refine(4)
    with pytest.raises(ValueError):
        prefix_sum_check(g, 1, 3)


def _prefix_sums_hold_by_segments(f, e, n, m):
    """The check by explicit paths: for every segment y from a level-n
    vertex v, sum f and e over the continuations x.y of the paths x into v."""
    d = f.diagram
    for v in d.vertices(n):
        xs = [p for p in d.paths(n) if p.terminal() == v]
        for w in d.vertices(m):
            for y in d.segments(v, w):
                paths = [x.followed_by(y) for x in xs]
                if sum(f.eval(p) for p in paths) != sum(e.eval(p) for p in paths):
                    return False
    return True


@pytest.mark.parametrize("name", ["car", "pascal", "fibonacci", "uhf3", "mixed"])
def test_prefix_sum_check_matches_the_segment_walk(name, monkeypatch):
    # Against the true expectation both sides hold; against one moved by
    # +1 at a path p and -1 at a path q they hold exactly when p and q
    # continue one segment, i.e. share a level-n tail class.
    d = MIXED if name == "mixed" else builtin_diagram(name)
    rng = random.Random(43)
    true_expect = expectation.expect
    for m in range(5):
        for n in range(m + 1):
            f = random_cylinder(d, rng.randint(0, m), rng)
            assert prefix_sum_check(f, n, m) is True
            assert _prefix_sums_hold_by_segments(f, true_expect(f, n), n, m)
            classes, class_of = d.tail_classes(m, n)
            for same_class in (True, False):
                p = rng.randrange(len(d.paths(m)))
                q = rng.choice(classes[class_of[p]]) if same_class else rng.randrange(len(d.paths(m)))
                bits = [0] * len(d.paths(m))
                bits[p] += 1
                bits[q] -= 1
                moved = true_expect(f, n) + CylinderFunction(d, m, bits)
                monkeypatch.setattr(expectation, "expect", lambda g, k: moved)
                want = _prefix_sums_hold_by_segments(f, moved, n, m)
                assert want == (class_of[p] == class_of[q])
                assert prefix_sum_check(f, n, m) is want
                monkeypatch.setattr(expectation, "expect", true_expect)


def test_prefix_sum_check_fails_when_expect_is_off_at_one_path(pascal, monkeypatch):
    rng = random.Random(47)
    f = random_cylinder(pascal, 3, rng)
    true_expect = expectation.expect
    for p in range(len(pascal.paths(3))):
        bits = [0] * len(pascal.paths(3))
        bits[p] = Scalar(0, 1)
        off = true_expect(f, 1) + CylinderFunction(pascal, 3, bits)
        monkeypatch.setattr(expectation, "expect", lambda g, k: off)
        assert prefix_sum_check(f, 1, 3) is False


def test_level_bounds_checked(car):
    f = constant(car, 1)
    with pytest.raises(ValueError):
        expect(f, 9)
    with pytest.raises(ValueError):
        class_sum(f, -1)
