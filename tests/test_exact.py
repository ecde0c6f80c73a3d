"""Differential tests of the sparse Gaussian-rational kernels against naive Scalar loops."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from afpath import (
    GroupoidFunction,
    Scalar,
    ZERO,
    builtin_diagram,
    class_sum,
    convolve,
    expect,
    random_cylinder,
)
from afpath._exact import add, class_sums, product, subtract

# Parts drawn from a small set with mixed denominators, so that purely real,
# purely imaginary and cancelling entries all come up often.
parts = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(-7, 6)]
)
nonzero_scalars = st.builds(Scalar, parts, parts).filter(bool)
indices = st.integers(0, 4)
tables = st.dictionaries(st.tuples(indices, indices), nonzero_scalars, max_size=16)


def naive_product(a, b):
    """The dense triple loop over every index, in Scalar arithmetic."""
    size = 1 + max((i for key in list(a) + list(b) for i in key), default=-1)
    out = {}
    for i in range(size):
        for j in range(size):
            total = ZERO
            for k in range(size):
                total = total + a.get((i, k), ZERO) * b.get((k, j), ZERO)
            if total:
                out[(i, j)] = total
    return out


def assert_same_table(got, want):
    assert got == want
    for val in got.values():
        assert val
        assert isinstance(val.re, Fraction) and isinstance(val.im, Fraction)
    assert {key: val.to_report() for key, val in got.items()} == {
        key: val.to_report() for key, val in want.items()
    }


@given(tables, tables)
def test_product_matches_naive(a, b):
    assert_same_table(product(a, b), naive_product(a, b))


def test_product_drops_cancelled_cells():
    x = Scalar(Fraction(1, 2), Fraction(-2, 3))
    a = {(0, 0): x, (0, 1): x, (1, 1): Scalar(0, 3)}
    b = {(0, 0): Scalar(3), (1, 0): Scalar(-3), (1, 1): Scalar(0, Fraction(1, 3))}
    got = product(a, b)
    assert (0, 0) not in got
    assert_same_table(got, naive_product(a, b))
    assert got[(1, 1)] == Scalar(-1)


def test_product_of_large_numerators():
    big = Scalar(Fraction(3**40, 7), Fraction(-(2**70), 5))
    a = {(0, k): big for k in range(5)}
    b = {(k, 0): big.conjugate() for k in range(5)}
    assert_same_table(product(a, b), naive_product(a, b))


@given(tables)
def test_product_with_empty_operand(a):
    assert product(a, {}) == {}
    assert product({}, a) == {}


@given(tables, tables)
def test_add_and_subtract_match_naive(a, b):
    keys = set(a) | set(b)
    want_sum = {k: a.get(k, ZERO) + b.get(k, ZERO) for k in keys}
    want_diff = {k: a.get(k, ZERO) - b.get(k, ZERO) for k in keys}
    assert_same_table(add(a, b), {k: v for k, v in want_sum.items() if v})
    assert_same_table(subtract(a, b), {k: v for k, v in want_diff.items() if v})
    assert subtract(a, a) == {}


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6))
def test_convolve_row_filter_matches_naive(rng, count):
    # A small F against a dense G: only the rows of G that F reaches, and
    # only the entries of G that reach a row of F, take part.
    d = builtin_diagram("car")
    classes, _ = d.tail_classes(4, 2)
    pairs = [(a, b) for cls in classes for a in cls for b in cls]
    values = [Scalar(Fraction(rng.choice((-3, -1, 2)), rng.choice((1, 2, 3))), rng.randint(-1, 1)) for _ in pairs]
    G = GroupoidFunction(d, 2, 4, dict(zip(pairs, values)))
    F = GroupoidFunction(d, 2, 4, {pair: G.table.get(pair, 1) for pair in rng.sample(pairs, count)})
    assert len(F.table) * 4 < len(G.table)
    assert_same_table(convolve(F, G).table, naive_product(F.table, G.table))
    assert_same_table(convolve(G, F).table, naive_product(G.table, F.table))


def naive_class_totals(f, n):
    classes, _ = f.diagram.tail_classes(f.level, n)
    totals = []
    for cls in classes:
        total = ZERO
        for gid in cls:
            total = total + f.table[gid]
        totals.append(total)
    return classes, totals


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(["pascal", "fibonacci", "car"]), st.integers(0, 4))
def test_expect_and_class_sum_match_naive(rng, name, n):
    d = builtin_diagram(name)
    f = random_cylinder(d, 4, rng)
    classes, totals = naive_class_totals(f, n)
    sums = class_sum(f, n)
    means = expect(f, n)
    for cls, total in zip(classes, totals):
        for gid in cls:
            assert sums.table[gid] == total
            assert sums.table[gid].to_report() == total.to_report()
            assert means.table[gid] == Fraction(1, len(cls)) * total
            assert means.table[gid].to_report() == (Fraction(1, len(cls)) * total).to_report()


def test_class_sums_of_cancelling_and_imaginary_entries():
    table = (Scalar(Fraction(1, 2), 1), Scalar(Fraction(-1, 2), -1), Scalar(0, Fraction(2, 3)), Scalar(Fraction(3, 4)))
    assert class_sums(table, ((0, 1), (2, 3))) == [ZERO, Scalar(Fraction(3, 4), Fraction(2, 3))]
    means = class_sums(table, ((0, 1), (2, 3)), mean=True)
    assert means == [ZERO, Scalar(Fraction(3, 8), Fraction(1, 3))]
    assert means[1].to_report() == "3/8+1/3*i"
