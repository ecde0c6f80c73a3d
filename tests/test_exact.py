"""Differential tests of the exact integer-form kernels against naive Scalar loops."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from afpath import (
    CylinderFunction,
    GroupoidFunction,
    Scalar,
    ZERO,
    builtin_diagram,
    class_sum,
    convolve,
    diag,
    expect,
    random_cylinder,
)
from afpath._exact import (
    add,
    class_sums,
    combine,
    form,
    index,
    multiply,
    pair_table,
    product,
    reindex,
    scalar_table,
    scale,
    subtract,
)

# Parts drawn from a small set with mixed denominators, so that purely real,
# purely imaginary and cancelling entries all come up often.
parts = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(-7, 6)]
)
scalars = st.builds(Scalar, parts, parts)
nonzero_scalars = scalars.filter(bool)
indices = st.integers(0, 4)
tables = st.dictionaries(st.tuples(indices, indices), nonzero_scalars, max_size=16)
# Two aligned dense tables, zero entries included.
aligned = st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.lists(scalars, min_size=n, max_size=n), st.lists(scalars, min_size=n, max_size=n))
)


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


def table_product(a, b):
    return pair_table(product(index(a), index(b)))


def assert_reduced(values):
    for val in values:
        assert isinstance(val.re, Fraction) and isinstance(val.im, Fraction)


def assert_same_table(got, want):
    assert got == want
    for val in got.values():
        assert val
    assert_reduced(got.values())
    assert {key: val.to_report() for key, val in got.items()} == {
        key: val.to_report() for key, val in want.items()
    }


def assert_same_values(got, want):
    assert list(got) == list(want)
    assert_reduced(got)
    assert [x.to_report() for x in got] == [x.to_report() for x in want]


def assert_reduced_form(f):
    den, res, ims = f
    assert isinstance(den, int) and den >= 1
    assert gcd(den, *res, *ims) == 1


@given(tables, tables)
def test_product_matches_naive(a, b):
    assert_same_table(table_product(a, b), naive_product(a, b))


def test_product_drops_cancelled_cells():
    x = Scalar(Fraction(1, 2), Fraction(-2, 3))
    a = {(0, 0): x, (0, 1): x, (1, 1): Scalar(0, 3)}
    b = {(0, 0): Scalar(3), (1, 0): Scalar(-3), (1, 1): Scalar(0, Fraction(1, 3))}
    got = table_product(a, b)
    assert (0, 0) not in got
    assert_same_table(got, naive_product(a, b))
    assert got[(1, 1)] == Scalar(-1)


def test_product_of_large_numerators():
    big = Scalar(Fraction(3**40, 7), Fraction(-(2**70), 5))
    a = {(0, k): big for k in range(5)}
    b = {(k, 0): big.conjugate() for k in range(5)}
    assert_same_table(table_product(a, b), naive_product(a, b))


def test_product_of_long_rows():
    # A cell sums one term per entry of its row in a: 64 equal terms need
    # 6 more bits per digit than one term does.
    a = {(0, k): Scalar(1, -1) for k in range(64)}
    b = {(k, j): Scalar(Fraction(1, 3), 1) for k in range(64) for j in range(2)}
    cell = 64 * (Scalar(1, -1) * Scalar(Fraction(1, 3), 1))
    assert cell == Scalar(Fraction(256, 3), Fraction(128, 3))
    assert_same_table(table_product(a, b), {(0, 0): cell, (0, 1): cell})


@given(tables)
def test_product_with_empty_operand(a):
    assert table_product(a, {}) == {}
    assert table_product({}, a) == {}


@settings(max_examples=40)
@given(st.lists(tables, min_size=1, max_size=8), tables)
def test_one_index_reused_across_many_products(lefts, b):
    # The index of b is built once and read by every product, on either
    # side; reading it must not change it.
    idx = index(b)
    before = repr(idx)
    for a in lefts:
        assert_same_table(pair_table(product(index(a), idx)), naive_product(a, b))
        assert_same_table(pair_table(product(idx, index(a))), naive_product(b, a))
    assert repr(idx) == before
    assert pair_table(idx) == b


@settings(max_examples=40)
@given(tables, tables, tables)
def test_chained_products_never_convert_back(a, b, c):
    # A product's index feeds the next product directly.
    got = pair_table(product(product(index(a), index(b)), index(c)))
    assert_same_table(got, naive_product(naive_product(a, b), c))


class _Rows(dict):
    """A row map that records which rows are read and refuses to be scanned."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = set()

    def __contains__(self, k):
        self.read.add(k)
        return super().__contains__(k)

    def __getitem__(self, k):
        self.read.add(k)
        return super().__getitem__(k)

    def _scan(self, *args):
        raise AssertionError("product scanned every row of b")

    items = values = keys = __iter__ = _scan


def test_product_reads_only_the_rows_of_b_that_a_reaches():
    b = {(k, j): Scalar(Fraction(k + 1, j + 2), j % 3 - 1) for k in range(16) for j in range(16)}
    a = {(0, 3): Scalar(2), (1, 3): Scalar(0, 1), (2, 11): Scalar(Fraction(-1, 3)), (2, 20): Scalar(5)}
    den, top, width, rows = index(b)
    rows = _Rows(rows)
    got = pair_table(product(index(a), (den, top, width, rows)))
    assert rows.read == {3, 11, 20}
    assert_same_table(got, naive_product(a, b))


def test_reading_a_result_table_drops_its_index():
    # A product holds only its index until its table is read; then it holds
    # only the table and rebuilds an equal index on demand.
    d = builtin_diagram("car", 3)
    f = random_cylinder(d, 2, random.Random(3))
    x = convolve(diag(f), diag(f))
    assert x._table is None
    table = x.table
    assert table and x._index is None
    assert pair_table(x._row_index()) == table
    assert x.table is table


@given(aligned)
def test_pointwise_forms_match_naive(pair):
    f, g = pair
    ff, fg = form(f), form(g)
    assert_reduced_form(ff)
    assert_same_values(scalar_table(ff), f)
    sums = combine(ff, fg)
    diffs = combine(ff, fg, -1)
    prods = multiply(ff, fg)
    for got in (sums, diffs, prods):
        assert_reduced_form(got)
    assert_same_values(scalar_table(sums), [x + y for x, y in zip(f, g)])
    assert_same_values(scalar_table(diffs), [x - y for x, y in zip(f, g)])
    assert_same_values(scalar_table(prods), [x * y for x, y in zip(f, g)])
    # Cancelling to zero gives the zero form, not a zero over a stale denominator.
    assert combine(ff, ff, -1) == (1, [0] * len(f), [0] * len(f))


@given(aligned, scalars)
def test_scale_matches_naive(pair, c):
    f, _ = pair
    got = scale(c, form(f))
    assert_reduced_form(got)
    assert_same_values(scalar_table(got), [c * x for x in f])


@given(aligned, st.randoms(use_true_random=False))
def test_class_sums_match_naive(pair, rng):
    f, _ = pair
    ids = list(range(len(f)))
    rng.shuffle(ids)
    cut = sorted(rng.sample(range(1, len(f)), rng.randint(0, len(f) - 1))) if len(f) > 1 else []
    classes = [ids[i:j] for i, j in zip([0] + cut, cut + [len(f)])]
    totals = []
    for cls in classes:
        total = ZERO
        for gid in cls:
            total = total + f[gid]
        totals.append(total)
    assert_same_values(scalar_table(class_sums(form(f), classes)), totals)
    means = [Fraction(1, len(cls)) * t for cls, t in zip(classes, totals)]
    got = class_sums(form(f), classes, mean=True)
    assert_reduced_form(got)
    assert_same_values(scalar_table(got), means)


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


_car3 = builtin_diagram("car", 3)


@given(st.lists(scalars, min_size=4, max_size=4), st.integers(1, 3), scalars)
def test_refine_of_a_function_that_carries_its_form(values, m, c):
    f = CylinderFunction(_car3, 2, values)
    g = c * f  # built from its form, with no Scalar table yet
    prefix = _car3.prefix_ids(max(m, 2), 2)
    want = [c * values[p] for p in prefix]
    fine = g.refine(max(m, 2))
    assert fine._form == reindex(g._form, prefix) == g._exact_form(fine.level)
    assert_same_values(fine.table, want)
    assert form(fine.table) == fine._form
    # Arithmetic on the refined form agrees with the naive loop too.
    assert_same_values((fine + f).table, [x + values[p] for x, p in zip(want, prefix)])
    assert_same_values((f - fine).table, [values[p] - x for x, p in zip(want, prefix)])
    assert_same_values((1 - fine).table, [1 - x for x in want])
    assert_same_values((-fine).table, [-x for x in want])
    assert_same_values((fine * f).table, [x * values[p] for x, p in zip(want, prefix)])


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
    sums = scalar_table(class_sums(form(table), ((0, 1), (2, 3))))
    assert sums == (ZERO, Scalar(Fraction(3, 4), Fraction(2, 3)))
    means = scalar_table(class_sums(form(table), ((0, 1), (2, 3)), mean=True))
    assert means == (ZERO, Scalar(Fraction(3, 8), Fraction(1, 3)))
    assert means[1].to_report() == "3/8+1/3*i"
