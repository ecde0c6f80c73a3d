"""Differential tests of the exact integer-form kernels against naive Scalar loops."""

import contextlib
import random
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

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
    jones_projection,
    random_cylinder,
)
from afpath import _exact
from afpath._exact import (
    EMPTY,
    class_average,
    class_means,
    class_sums,
    combine,
    equal,
    form,
    index,
    index_adjoint,
    index_combine,
    index_equal,
    indexed,
    multiply,
    pair_table,
    product,
    reindex,
    scalar_table,
    scale,
)
from afpath.harness import random_af_element, random_groupoid_function

# Parts drawn from a small set with mixed denominators, so that purely real,
# purely imaginary and cancelling entries all come up often.
parts = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(-7, 6)]
)
scalars = st.builds(Scalar, parts, parts)
nonzero_scalars = scalars.filter(bool)
indices = st.integers(0, 4)
tables = st.dictionaries(st.tuples(indices, indices), nonzero_scalars, max_size=16)
# Tables whose rows each hold one entry: units, diagonals, peaks.
one_entry_rows = st.dictionaries(indices, st.tuples(indices, nonzero_scalars), max_size=5).map(
    lambda rows: {(i, j): x for i, (j, x) in rows.items()}
)
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


def assert_reduced_index(idx):
    den, rows = idx
    res = [x for _, row_res, _ in rows.values() for x in row_res]
    ims = [y for _, _, row_ims in rows.values() for y in row_ims]
    assert_reduced_form((den, res, ims))
    assert all(cols and len(set(cols)) == len(cols) for cols, _, _ in rows.values())
    assert all(x or y for x, y in zip(res, ims))


def unreduced(f, k):
    """The cylinder form f over k times its denominator."""
    den, res, ims = f
    return den * k, [x * k for x in res], [y * k for y in ims]


def unreduced_index(idx, k, rng=None):
    """The row index over k times its denominator, each row's columns
    shuffled when an rng is given."""
    den, rows = idx
    out = {}
    for i, (cols, res, ims) in rows.items():
        cells = list(zip(cols, res, ims))
        if rng is not None:
            rng.shuffle(cells)
        out[i] = ([j for j, _, _ in cells], [x * k for _, x, _ in cells], [y * k for _, _, y in cells])
    return den * k, out


def naive_row_sums(a, b):
    """``naive_product``'s Scalar sums, taken over the nonzero entries only,
    so that wide rows stay cheap."""
    rows_b = {}
    for (k, j), y in b.items():
        rows_b.setdefault(k, []).append((j, y))
    out = {}
    for (i, k), x in a.items():
        for j, y in rows_b.get(k, ()):
            out[(i, j)] = out.get((i, j), ZERO) + x * y
    return {key: val for key, val in out.items() if val}


def checked_product(a, b):
    """The product of two tables through their row indexes; the index is checked."""
    got = product(index(a), index(b))
    assert_reduced_index(got)
    return pair_table(got)


@given(tables | one_entry_rows, tables | one_entry_rows)
def test_product_matches_naive(a, b):
    assert_same_table(checked_product(a, b), naive_product(a, b))


def test_product_drops_cancelled_cells():
    x = Scalar(Fraction(1, 2), Fraction(-2, 3))
    a = {(0, 0): x, (0, 1): x, (1, 1): Scalar(0, 3)}
    b = {(0, 0): Scalar(3), (1, 0): Scalar(-3), (1, 1): Scalar(0, Fraction(1, 3))}
    got = checked_product(a, b)
    assert (0, 0) not in got
    assert_same_table(got, naive_product(a, b))
    assert got[(1, 1)] == Scalar(-1)


def test_product_of_large_numerators():
    big = Scalar(Fraction(3**40, 7), Fraction(-(2**70), 5))
    a = {(0, k): big for k in range(5)}
    b = {(k, 0): big.conjugate() for k in range(5)}
    assert_same_table(checked_product(a, b), naive_product(a, b))


def test_product_of_long_rows():
    # A cell sums one term per entry of its row in a: 64 equal terms need
    # 6 more bits per digit than one term does.
    a = {(0, k): Scalar(1, -1) for k in range(64)}
    b = {(k, j): Scalar(Fraction(1, 3), 1) for k in range(64) for j in range(2)}
    cell = 64 * (Scalar(1, -1) * Scalar(Fraction(1, 3), 1))
    assert cell == Scalar(Fraction(256, 3), Fraction(128, 3))
    assert_same_table(checked_product(a, b), {(0, 0): cell, (0, 1): cell})


@given(one_entry_rows, tables)
def test_scaled_rows_match_naive(a, b):
    # Every row of a holds one entry: each row of the product is a row of b
    # times one Gaussian integer.
    assert all(len(cols) == 1 for cols, _, _ in index(a)[1].values())
    assert_same_table(checked_product(a, b), naive_product(a, b))


@given(tables, one_entry_rows)
def test_merged_rows_match_naive(a, b):
    # Every row of b holds one entry: each term lands in one column.
    assert all(len(cols) == 1 for cols, _, _ in index(b)[1].values())
    assert_same_table(checked_product(a, b), naive_product(a, b))


def test_merged_rows_merge_and_cancel():
    # Rows 0, 1 and 2 of b hold one entry each, all in column 0.
    x = Scalar(Fraction(1, 2), Fraction(-2, 3))
    b = {(0, 0): Scalar(1), (1, 0): Scalar(-1), (2, 0): Scalar(0, 1), (3, 2): Scalar(Fraction(3, 4))}
    a = {
        # column 0 cancels, column 2 stays
        (0, 0): x, (0, 1): x, (0, 3): Scalar(2),
        # column 0 merges two terms
        (1, 0): x, (1, 2): x,
        # the whole row cancels
        (2, 0): Scalar(0, 1), (2, 2): Scalar(-1),
    }
    got = checked_product(a, b)
    assert set(got) == {(0, 2), (1, 0)}
    assert got[(1, 0)] == x + x * Scalar(0, 1)
    assert_same_table(got, naive_product(a, b))


def test_packed_rows_reach_rows_of_b_with_different_column_lists():
    b = {
        (0, 0): Scalar(1), (0, 1): Scalar(2),
        (1, 1): Scalar(-2), (1, 2): Scalar(0, 1),
        (2, 0): Scalar(Fraction(1, 3)), (2, 2): Scalar(0, -1), (2, 3): Scalar(5),
        # the columns of row 0 listed the other way round
        (3, 1): Scalar(2), (3, 0): Scalar(1),
    }
    a = {
        # column 1 cancels across rows 0 and 1 of b
        (0, 0): Scalar(1), (0, 1): Scalar(1), (0, 2): Scalar(3),
        # rows 0 and 3 of b cancel cell by cell
        (1, 0): Scalar(Fraction(1, 2), 1), (1, 3): Scalar(Fraction(-1, 2), -1),
        (2, 1): Scalar(0, 2), (2, 2): Scalar(-1),
    }
    got = checked_product(a, b)
    assert (0, 1) not in got and not any(i == 1 for i, _ in got)
    assert_same_table(got, naive_product(a, b))


def test_packed_rows_drop_cells_that_cancel_within_one_column_list():
    # Rows 0, 1 and 2 of b share one column list, so each row of a sums one
    # packed int.
    b = {
        (0, 0): Scalar(1), (0, 1): Scalar(2, 1),
        (1, 0): Scalar(1), (1, 1): Scalar(-2, -1),
        (2, 0): Scalar(1), (2, 1): Scalar(2, 1),
    }
    a = {
        # column 1 cancels
        (0, 0): Scalar(Fraction(1, 3)), (0, 1): Scalar(Fraction(1, 3)),
        # the whole row cancels
        (1, 0): Scalar(0, 1), (1, 2): Scalar(0, -1),
        (2, 0): Scalar(Fraction(-1, 2), 1), (2, 1): Scalar(0, 5),
    }
    got = checked_product(a, b)
    assert set(got) == {(0, 0), (2, 0), (2, 1)}
    assert_same_table(got, naive_product(a, b))


def test_packed_rows_at_the_digit_bound():
    # (t + t*i)**2 = 2*t*t*i: every term puts the most a term can into the
    # middle digit, so a cell of five terms reaches the bound that sets the
    # digit size.
    for t in (1, 7, 3**20):
        x = Scalar(t, t)
        a = {(i, k): x if i == 0 else -x for i in range(2) for k in range(5)}
        b = {(k, j): x for k in range(5) for j in range(3)}
        got = checked_product(a, b)
        assert got[(0, 0)] == Scalar(0, 10 * t * t)
        assert_same_table(got, naive_product(a, b))


@pytest.mark.parametrize("width", [1, 64, 294])
def test_product_of_dense_rows(width):
    # Dense rows with mixed signs and large numerators over mixed
    # denominators; 294 is the largest tail class of the 7, 7, 6 file
    # diagram.  Row 1 of a is short, so one product mixes short and wide rows.
    rng = random.Random(width)
    big = 3**40
    pool = [Scalar(Fraction(rng.randint(-big, big), d), rng.randint(-big, big)) for d in (1, 1, 3, 5) * 25]
    a = {(0, k): rng.choice(pool) for k in range(width)}
    a[(1, width - 1)] = rng.choice(pool)
    b = {(k, j): rng.choice(pool) for k in range(width) for j in range(width)}
    assert_same_table(checked_product(a, b), naive_row_sums(a, b))


@given(tables)
def test_product_with_empty_operand(a):
    assert checked_product(a, {}) == {}
    assert checked_product({}, a) == {}


@settings(max_examples=40)
@given(st.lists(tables | one_entry_rows, min_size=1, max_size=8), tables | one_entry_rows)
def test_one_index_reused_across_many_products(lefts, b):
    # The index of b is built once and read by every product, on either
    # side; reading it must not change it, though a product by one-entry
    # rows shares b's column lists.
    idx = index(b)
    before = repr(idx)
    for a in lefts:
        assert_same_table(pair_table(product(index(a), idx)), naive_product(a, b))
        assert_same_table(pair_table(product(idx, index(a))), naive_product(b, a))
    assert repr(idx) == before
    assert pair_table(idx) == b


def shared_rows(idx, picks):
    """The row index with each id holding the row object of the id picked
    for it, so that several ids may hold one row; and an unshared copy."""
    den, rows = idx
    ids = list(rows)
    shared = {i: rows[ids[k % len(ids)]] for i, k in zip(ids, picks)}
    copy = {i: (list(cols), list(res), list(ims)) for i, (cols, res, ims) in shared.items()}
    return (den, shared), (den, copy)


def assert_shared_like(out, idx, want):
    """Ids that hold one row object of idx hold one row object of out, and
    ids that hold one row object of out hold equal rows of ``want``, the
    product computed with no row shared."""
    rows, held, unshared = out[1], idx[1], want[1]
    for i in rows:
        for j in rows:
            if held[i] is held[j]:
                assert rows[i] is rows[j]
            if rows[i] is rows[j]:
                assert unshared[i] == unshared[j]


_i = Scalar(0, 1)


@given(tables | one_entry_rows, tables | one_entry_rows, st.lists(st.integers(0, 4), min_size=5, max_size=5))
# The shared a once took the grouped packed loop and the copy the axis loop,
# which list a row's columns in different orders.
@example(dict.fromkeys([(2, 1), (0, 0), (1, 0), (2, 2), (3, 0)], _i), dict.fromkeys([(1, 1), (1, 0), (2, 0)], _i), [0, 0, 0, 1, 0])
@example(dict.fromkeys([(2, 0), (2, 1), (0, 0), (2, 2)], _i), dict.fromkeys([(0, 1), (0, 0), (1, 0)], _i), [0, 0, 0, 0, 0])
def test_product_of_shared_rows_matches_the_unshared_copy(a, b, picks):
    # One-entry rows of a or of b, and wider ones, reach each of the loops.
    if not a:
        return
    shared, copy = shared_rows(index(a), picks)
    got, want = product(shared, index(b)), product(copy, index(b))
    assert got[0] == want[0]
    assert list(got[1].items()) == list(want[1].items())
    assert_shared_like(got, shared, want)


@pytest.mark.parametrize("width", [1, 3])
def test_product_of_a_projection_shares_its_rows(car, width):
    # e_2 in stage 4: 4 classes of 4 paths, each row held by 4 ids; b is a
    # diagonal (width 1) or 3 wide, so the merged and packed loops run.
    e = jones_projection(car, 2, 4)._index
    rng = random.Random(width)
    b = {}
    for g in range(16):
        cols = [(g + t) % 16 for t in range(width)]
        b[g] = (cols, [rng.randint(1, 9) for _ in cols], [rng.randint(-9, 9) for _ in cols])
    b = indexed(3, b)
    copy = (e[0], {i: (list(cols), list(res), list(ims)) for i, (cols, res, ims) in e[1].items()})
    got, want = product(e, b), product(copy, b)
    assert got[0] == want[0] and list(got[1].items()) == list(want[1].items())
    assert len({id(row) for row in got[1].values()}) == 4
    assert_shared_like(got, e, want)


def test_indexed_keeps_shared_rows_shared():
    r, s = ([0, 1], [2, 4], [0, 6]), ([1], [8], [2])
    den, rows = indexed(4, {0: r, 1: s, 2: r})
    assert (den, rows) == (2, {0: ([0, 1], [1, 2], [0, 3]), 1: ([1], [4], [1]), 2: ([0, 1], [1, 2], [0, 3])})
    assert rows[0] is rows[2] and rows[1] is not rows[0]


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

    def get(self, k, default=None):
        self.read.add(k)
        return super().get(k, default)

    def _scan(self, *args):
        raise AssertionError("product scanned every row of b")

    items = values = keys = __iter__ = _scan


def one_object_per_row(rows):
    """The row map with ids that hold equal rows holding one row object, as
    the members of a projection's tail class do."""
    seen = {}
    return {k: seen.setdefault(repr(row), row) for k, row in rows.items()}


def test_product_reads_only_the_rows_of_b_that_a_reaches(monkeypatch):
    # Each case names the loops that product takes from the rows it reads:
    # summed rows on every call (a row of a reaches one row object of b at
    # every column, as every one-entry row does), then, for the rows left
    # over, merged rows (every row of b they reach holds one entry) or
    # packed rows.
    dense = {(k, j): Scalar(Fraction(k + 1, j + 2), j % 3 - 1) for k in range(16) for j in range(16)}
    one_entry = {(k, (5 * k) % 7): Scalar(Fraction(k + 1, 3), k % 3 - 1) for k in range(16)}
    # Rows 0-7 hold one entry each; rows 8-15 are wide.
    mixed = {key: x for key, x in dense.items() if key[0] >= 8}
    mixed.update((key, x) for key, x in one_entry.items() if key[0] < 8)
    # Row 2 holds small numerators; row 9, never reached, numerators of 2**70 and more.
    huge = {(2, 0): Scalar(3, -1), (2, 4): Scalar(-2), (3, 1): Scalar(1, 1)}
    huge.update(((9, j), Scalar(2**70 + j, -(2**71))) for j in range(3))
    # Rows 0-7 are one row object, as a tail class's rows of a projection
    # are; rows 8-15 are dense.
    projection = {(k, j): Scalar(Fraction(1, j + 2), j % 2) for k in range(8) for j in range(6)}
    projection.update((key, x) for key, x in dense.items() if key[0] >= 8)
    cases = [
        # Row 0's one entry reaches one row of b: the one-entry rows are
        # summed rows, and row 2 is packed.
        ({(0, 3): Scalar(2), (1, 3): Scalar(0, 1), (2, 11): Scalar(Fraction(-1, 3)), (2, 20): Scalar(5)}, dense, ["summed", "packed"]),
        ({(0, 3): Scalar(2), (1, 11): Scalar(0, 1), (4, 20): Scalar(Fraction(-1, 3))}, dense, ["summed"]),
        ({(0, 3): Scalar(2), (0, 5): Scalar(0, 1), (2, 11): Scalar(Fraction(-1, 3)), (2, 20): Scalar(5)}, one_entry, ["summed", "merged"]),
        ({}, dense, ["summed"]),
        ({(0, 1): Scalar(2), (0, 6): Scalar(0, 1), (3, 2): Scalar(-1), (3, 20): Scalar(5)}, mixed, ["summed", "merged"]),
        ({(0, 2): Scalar(Fraction(1, 5)), (0, 3): Scalar(0, 4), (1, 2): Scalar(7, 1), (1, 8): Scalar(1)}, huge, ["summed", "packed"]),
        # Every wide row reaches the shared row; row 4's terms cancel.
        (
            {(0, 0): Scalar(2), (0, 5): Scalar(0, 1), (2, 3): Scalar(Fraction(-1, 3)), (2, 6): Scalar(1, 1),
             (2, 7): Scalar(5), (4, 1): Scalar(1, 2), (4, 2): Scalar(-1, -2), (5, 4): Scalar(0, 3)},
            projection,
            ["summed"],
        ),
        # Rows 0 and 3 reach the shared row, row 1 two dense rows.
        (
            {(0, 1): Scalar(3), (0, 4): Scalar(0, -1), (1, 8): Scalar(2), (1, 9): Scalar(Fraction(1, 2)),
             (3, 2): Scalar(-1), (3, 7): Scalar(5)},
            projection,
            ["summed", "packed"],
        ),
        # Row 0's ends reach the shared row and its middle a dense row.
        ({(0, 2): Scalar(1), (0, 9): Scalar(0, 2), (0, 5): Scalar(-3)}, projection, ["summed", "packed"]),
    ]
    taken = []
    for name in ("summed", "merged", "packed"):
        loop = getattr(_exact, "_%s_rows" % name)
        spy = lambda *args, loop=loop, name=name: taken.append(name) or loop(*args)
        monkeypatch.setattr(_exact, "_%s_rows" % name, spy)
    for a, b, loops in cases:
        den, rows = index(b)
        rows = _Rows(one_object_per_row(rows))
        taken.clear()
        got = product(index(a), (den, rows))
        assert taken == loops
        assert rows.read == {k for _, k in a}
        assert_same_table(pair_table(got), naive_product(a, b))
        # The rows come in a's id order, whichever loop made them.
        assert list(got[1]) == [i for i in index(a)[1] if i in got[1]]
        if not a:
            assert got == EMPTY


# -- every loop the dispatcher picks, on row indexes drawn directly --------------------

_LOOPS = ("_probed_rows", "_summed_rows", "_merged_rows", "_packed_rows")


def traced_product(a, b):
    """``product(a, b)`` and the names of the loops it ran, in call order."""
    taken = []
    with contextlib.ExitStack() as stack:
        for name in _LOOPS:
            loop = getattr(_exact, name)
            spy = lambda *args, loop=loop, name=name: taken.append(name) or loop(*args)
            stack.enter_context(mock.patch.object(_exact, name, spy))
        got = product(a, b)
    return got, taken


def decoded_product(a, b):
    """``traced_product(a, b)`` and the column axis of each packed int it
    decoded, in call order."""
    axes = []
    unpacked = _exact._unpacked
    spy = lambda v, cols, *args: axes.append(list(cols)) or unpacked(v, cols, *args)
    with mock.patch.object(_exact, "_unpacked", spy):
        got, taken = traced_product(a, b)
    return got, taken, axes


def naive_parts(lists):
    """The column sets of some column lists, joined where they share a column."""
    parts = []
    for cols in map(set, lists):
        met = [p for p in parts if p & cols]
        parts = [p for p in parts if not p & cols] + [cols.union(*met)]
    return parts


def part_decodes(a, b):
    """The sorted axis of each part that each row of a reaches: one decode
    per (row of a, part reached)."""
    rows_a, rows_b = a[1], b[1]
    reached = {k for ks, _, _ in rows_a.values() for k in ks if k in rows_b}
    parts = naive_parts(rows_b[k][0] for k in reached)
    want = []
    for ks, _, _ in rows_a.values():
        cols = {j for k in ks if k in rows_b for j in rows_b[k][0]}
        want += sorted(sorted(p) for p in parts if p & cols)
    return want


def assert_naive_product(got, a, b):
    """The product index is reduced and equals the naive product of its
    operands, summed cell by cell in Gaussian integers over ``den_a * den_b``."""
    assert_reduced_index(got)
    (den_a, rows_a), (den_b, rows_b), (den, rows) = a, b, got
    want = {}
    for i, (ks, res_a, ims_a) in rows_a.items():
        for k, x, y in zip(ks, res_a, ims_a):
            for j, u, v in zip(*rows_b.get(k, ((), (), ()))):
                re, im = want.get((i, j), (0, 0))
                want[(i, j)] = (re + x * u - y * v, im + x * v + y * u)
    want = {key: cell for key, cell in want.items() if cell != (0, 0)}
    cells = {(i, j): (re, im) for i, row in rows.items() for j, re, im in zip(*row)}
    assert cells.keys() == want.keys()
    for key, (re, im) in cells.items():
        assert (re * den_a * den_b, im * den_a * den_b) == (want[key][0] * den, want[key][1] * den)


def test_summed_rows_build_each_multiple_of_a_shared_row_once():
    # Ids 0-2 of b hold R and id 3 holds S.  Rows 0, 1 and 2 of a reach R
    # at every column and sum to 2 + i; row 4 sums to 1; row 3 reaches S too,
    # whose columns share one with R's, so it decodes one part.
    r, s = ([0, 1], [1, 2], [0, 1]), ([1, 2], [3, 1], [1, 0])
    b = (1, {0: r, 1: r, 2: r, 3: s})
    a = (1, {
        0: ([0, 1], [1, 1], [0, 1]),
        1: ([2], [2], [1]),
        2: ([1, 2], [3, -1], [1, 0]),
        4: ([0, 2], [2, -1], [1, -1]),
        3: ([0, 3], [1, 1], [0, 0]),
    })
    got, taken, axes = decoded_product(a, b)
    assert taken == ["_summed_rows", "_packed_rows"]
    assert axes == [[0, 1, 2]]
    assert_naive_product(got, a, b)
    rows = got[1]
    assert list(rows) == [0, 1, 2, 4, 3]
    assert rows[0] is rows[1] is rows[2] and rows[4] is r


denominators = st.sampled_from([1, 2, 3, 6, 35])
numerators = st.integers(-6, 6)


@st.composite
def row_indexes(draw, ids, columns, width, den=denominators):
    """A reduced row index with rows at some of ``ids``, each of up to
    ``width`` distinct columns drawn from ``columns``, zero cells dropped."""
    rows = {}
    for i in draw(st.lists(st.sampled_from(ids), unique=True, max_size=len(ids))):
        cols = draw(st.lists(st.sampled_from(columns), unique=True, min_size=1, max_size=width))
        cells = [(j, draw(numerators), draw(numerators)) for j in cols]
        cells = [cell for cell in cells if cell[1] or cell[2]]
        if cells:
            rows[i] = tuple(map(list, zip(*cells)))
    return indexed(draw(den), rows)


@given(st.integers(0, 9), st.integers(0, 9), row_indexes(range(10), range(10), 4))
def test_a_row_times_1_is_the_row_of_b(i, k, b):
    # A one-row, one-entry a valued 1 takes no dispatch scan: the product
    # holds b's row object itself whenever reducing leaves it as it is.
    got, taken = traced_product(_exact.unit(i, k), b)
    assert taken == []
    assert_naive_product(got, _exact.unit(i, k), b)
    den, rows = b
    row = rows.get(k)
    if row is None:
        assert got == EMPTY
    elif gcd(den, *row[1], *row[2]) == 1:
        assert got[1][i] is row


gaussian_ints = st.tuples(st.integers(-(10**20), 10**20), st.integers(-(10**20), 10**20))


@given(st.integers(0, 9), gaussian_ints.filter(any), gaussian_ints.filter(any))
def test_one_entry_row_times_matches_times(j, cell, c):
    # The inline one-entry multiply gives the cells ``_times`` gives, and a
    # multiplier of 1 keeps b's row object.
    row = ([j], [cell[0]], [cell[1]])
    got = _exact._row_times(row, *c)
    assert got == (row[0], *_exact._times(c, row[1], row[2]))
    assert (got is row) is (c == (1, 0))
    assert _exact._row_times(row, 1, 0) is row


@given(
    row_indexes(range(10), range(10), 1, den=st.just(1)),
    row_indexes(range(10), range(10), 4),
    st.lists(st.integers(0, 9), min_size=1, max_size=6, unique=True),
)
def test_one_entry_rows_of_a_share_the_rows_of_b(a, b, extra):
    # Every row of a holds one entry valued 1, and some ids of a also hold
    # one of its row objects; every holder gets a row, and a row of the
    # product is b's row object when b's denominator leaves it as it is.
    den, rows = a
    if not rows:
        return
    rows = {i: (cols, [1], [0]) for i, (cols, _, _) in rows.items()}
    first = next(iter(rows.values()))
    rows.update((10 + i, first) for i in extra)
    a = (1, rows)
    got, taken = traced_product(a, b)
    assert taken == ["_summed_rows"]
    assert_naive_product(got, a, b)
    out = got[1]
    k = first[0][0]
    if k in b[1]:
        assert all(out[10 + i] is out[next(iter(rows))] for i in extra)
        if b[0] == got[0]:
            for i, ((j,), _, _) in rows.items():
                assert i not in out if j not in b[1] else out[i] is b[1][j]


@given(
    row_indexes(range(6), range(12), 12),
    row_indexes(range(12), range(12), 6),
    st.integers(1, 3),
    st.lists(st.integers(0, 5), min_size=6, max_size=6),
)
def test_a_row_wider_than_b_has_rows_is_probed_at_b_s_ids(a, b, count, picks):
    # b keeps 1-3 of its rows, narrow and wide; a's widest row is wider, so
    # its rows are read only at b's row ids.  Some ids of a share a row.
    den_b, rows_b = b
    b = indexed(den_b, dict(list(rows_b.items())[:count]))
    if not a[1] or not b[1]:
        return
    shared, copy = shared_rows(a, picks)
    if len(b[1]) >= max(len(cols) for cols, _, _ in shared[1].values()):
        return
    got, taken = traced_product(shared, b)
    assert taken[0] == "_probed_rows"
    assert_naive_product(got, shared, b)
    want = product(copy, b)
    assert_shared_like(got, shared, want)
    assert index_equal(got, want)


@given(
    row_indexes(range(8), range(8), 5),
    row_indexes(range(8), range(8), 4),
    st.lists(st.integers(0, 2), min_size=8, max_size=8),
    st.lists(st.integers(0, 7), min_size=8, max_size=8),
)
def test_rows_that_reach_one_shared_row_of_b(a, b, picks_b, picks_a):
    # The ids of b hold at most three row objects, so a row of a often
    # reaches one row object at every column; some ids of a share a row too.
    if not b[1]:
        return
    if a[1]:
        a, _ = shared_rows(a, picks_a)
    shared, copy = shared_rows(b, picks_b)
    got, want = product(a, shared), product(a, copy)
    assert_naive_product(got, a, shared)
    assert_shared_like(got, a, want)
    assert index_equal(got, want)


@st.composite
def mixed_left_rows(draw):
    """``(a, b)``: b holds rows at ids 0-7, and the ids in ``shared`` (at
    least two) hold one row object.  a's rows are one-entry rows, rows that
    reach only shared ids, rows that reach only ids 8-11 (no row of b) and
    wide rows over ids 0-11, none wider than b has rows, so none is probed."""
    width = draw(st.integers(1, 4))
    nonzero = st.integers(-6, 6).filter(bool)

    def row():
        cols = draw(st.lists(st.sampled_from(range(8)), unique=True, min_size=1, max_size=width))
        return cols, [draw(nonzero) for _ in cols], [draw(numerators) for _ in cols]

    rows_b = {k: row() for k in range(8)}
    shared = draw(st.lists(st.sampled_from(range(8)), unique=True, min_size=2))
    rows_b.update(dict.fromkeys(shared, row()))
    kinds = [
        st.lists(st.sampled_from(range(12)), min_size=1, max_size=1),
        st.lists(st.sampled_from(shared), unique=True, min_size=2),
        st.lists(st.sampled_from(range(8, 12)), unique=True, min_size=2),
        st.lists(st.sampled_from(range(12)), unique=True, min_size=2, max_size=8),
    ]
    rows_a = {}
    for i in draw(st.permutations(range(10))):
        cols = draw(st.sampled_from(kinds).flatmap(lambda kind: kind))
        cells = [(j, draw(numerators), draw(numerators)) for j in cols]
        cells = [cell for cell in cells if cell[1] or cell[2]]
        if cells:
            rows_a[i] = tuple(map(list, zip(*cells)))
    return indexed(draw(denominators), rows_a), indexed(draw(denominators), rows_b)


@given(mixed_left_rows())
def test_summed_rows_leave_only_the_rows_that_reach_several_rows_of_b(ab):
    # Every call runs the summed pass first: a one-entry row, a row that
    # reaches one shared row object at every column and a row that reaches
    # no row of b are its own, and only the other rows go on to the merged
    # or packed loop, which keep a's id order with the summed rows.
    a, b = ab
    get = b[1].get
    left = [i for i, (ks, _, _) in a[1].items() if len(ks) > 1 and any(get(k) is not get(ks[0]) for k in ks)]
    handed = []
    loops = {name: getattr(_exact, name) for name in ("_merged_rows", "_packed_rows")}
    with contextlib.ExitStack() as stack:
        for name, loop in loops.items():
            spy = lambda rows_a, *args, loop=loop: handed.append(list(rows_a)) or loop(rows_a, *args)
            stack.enter_context(mock.patch.object(_exact, name, spy))
        got = product(a, b)
    assert handed == ([left] if left else [])
    assert_naive_product(got, a, b)
    assert list(got[1]) == [i for i in a[1] if i in got[1]]
    assert_same_table(pair_table(got), naive_row_sums(pair_table(a), pair_table(b)))


def test_a_wide_row_times_one_row_scans_a_once():
    # A word's second product: one 294-wide row of a times a one-row
    # diagonal.  The probe cuts the row to one entry, which the summed pass
    # scales; a's rows are measured once.
    a = (1, {0: (list(range(294)), [k % 7 + 1 for k in range(294)], [0] * 294)})
    b = (3, {117: ([117], [2], [1])})
    calls = []
    widest = _exact._widest
    with mock.patch.object(_exact, "_widest", lambda rows: calls.append(len(rows)) or widest(rows)):
        got, taken = traced_product(a, b)
    assert calls == [1]
    assert taken == ["_probed_rows", "_summed_rows"]
    assert got == (1, {0: ([117], [4], [2])})


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 32), st.integers(1, 4), st.booleans(), st.randoms(use_true_random=False))
def test_wide_dense_rows_with_dropped_zero_entries(width, drops, drop_in_a, rng):
    # Dense blocks whose rows drop a few zero entries, as random elements
    # do: the reached rows of b fall into many column lists that overlap,
    # and a row of a decodes one int per part those lists join into.
    def dense(den, dropped):
        rows = {}
        for i in range(width):
            cells = [(j, rng.randint(-108, 108) or 1, rng.randint(-108, 108)) for j in range(width)]
            for _ in range(min(dropped, width - 2)):
                del cells[rng.randrange(len(cells))]
            rows[i] = tuple(map(list, zip(*cells)))
        return indexed(den, rows)

    a, b = dense(35, drops if drop_in_a else 0), dense(6, drops)
    got, taken, axes = decoded_product(a, b)
    assert taken == ["_summed_rows", "_packed_rows"]
    assert sorted(axes) == sorted(part_decodes(a, b))
    assert_naive_product(got, a, b)


def test_packed_rows_decode_column_disjoint_parts():
    # b has two blocks that share no column.  In the first, rows 0 and 1
    # hold disjoint column lists, and row 2, which overlaps both, joins them
    # into one part; rows 10 and 11 of the second hold its two columns, row
    # 11 in reverse order.
    b = (1, {
        0: ([0, 1], [1, 1], [0, 0]),
        1: ([2, 3], [1, 1], [0, 0]),
        2: ([2, 1], [2, -1], [1, 0]),
        10: ([10, 11], [3, 1], [0, 2]),
        11: ([11, 10], [1, -1], [1, 0]),
    })
    a = (1, {
        # reaches both parts: one decode each, joined in the order reached
        0: ([0, 10, 1, 11], [1, 1, 2, 1], [0, 1, 0, 0]),
        # one part, no zero cell: the part's axis
        1: ([0, 1], [1, 1], [0, 0]),
        # one part, whose cells at columns 1 and 3 are zero
        3: ([0, 2], [1, 1], [0, 0]),
        # the second part alone, on its sorted axis
        4: ([11, 10], [0, 1], [1, 1]),
        # the first part again, no zero cell: row 1's axis list
        5: ([0, 1], [2, 1], [0, 0]),
    })
    got, taken, axes = decoded_product(a, b)
    assert taken == ["_summed_rows", "_packed_rows"]
    first, second = [0, 1, 2, 3], [10, 11]
    assert axes == [first, second, first, first, second, first]
    assert_naive_product(got, a, b)
    rows = got[1]
    assert [rows[i][0] for i in rows] == [first + second, first, [0, 2], second, first]
    assert rows[1][0] is rows[5][0]


def test_reading_a_table_leaves_its_form_in_place():
    # A table is built from the form each time it is read; the form stays
    # the only state, and no Scalar table is kept.
    d = builtin_diagram("car", 3)
    f = random_cylinder(d, 2, random.Random(3))
    x = convolve(diag(f), diag(f))
    idx = x._index
    table = x.table
    assert table and x._index is idx
    assert pair_table(idx) == table
    assert x.table == table and x.table is not table
    held = f._form
    assert f.table == f.table and f._form is held
    for obj in (f, x):
        assert not hasattr(obj, "_table")


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
    got = class_sums(form(f), classes, class_means(classes))
    assert_reduced_form(got)
    assert_same_values(scalar_table(got), means)


def partition(rng, size, shape):
    """``(classes, class_of)`` of a shuffled partition of ``range(size)``:
    all singletons, one class, or between 2 and size - 1 classes."""
    ids = list(range(size))
    rng.shuffle(ids)
    count = {"singletons": size, "one": 1}.get(shape) or rng.randint(2, size - 1)
    cut = sorted(rng.sample(range(1, size), count - 1))
    classes = [tuple(ids[i:j]) for i, j in zip([0] + cut, cut + [size])]
    class_of = [None] * size
    for c, cls in enumerate(classes):
        for g in cls:
            class_of[g] = c
    return tuple(classes), tuple(class_of)


@pytest.mark.parametrize("shape", ["singletons", "one", "mixed"])
@given(aligned, st.randoms(use_true_random=False), st.integers(1, 4), st.booleans())
def test_class_average_matches_the_class_sums_oracle(shape, pair, rng, k, mean):
    values, _ = pair
    size = len(values)
    if shape == "mixed" and size < 3:
        size, values = 3, (values * 3)[:3]
    classes, class_of = partition(rng, size, shape)
    scale = class_means(classes) if mean else None
    den, res, ims = form(values)
    # A common factor, and the zero-padded slice of a quasi-basis term.
    a, b = sorted(rng.sample(range(size + 1), 2))
    pad = [0] * size
    padded = (den, pad[:a] + res[a:b] + pad[b:], pad[:a] + ims[a:b] + pad[b:])
    for f in ((den, res, ims), unreduced((den, res, ims), k), padded):
        want = reindex(class_sums(f, classes, scale), class_of)
        got = class_average(f, classes, class_of, scale)
        assert_reduced_form(got)
        assert got == want


@given(tables, tables, st.integers(1, 4))
def test_add_and_subtract_match_naive(a, b, k):
    keys = set(a) | set(b)
    want_sum = {k: a.get(k, ZERO) + b.get(k, ZERO) for k in keys}
    want_diff = {k: a.get(k, ZERO) - b.get(k, ZERO) for k in keys}
    # The right operand is left unreduced, over another denominator.
    ia, ib = index(a), unreduced_index(index(b), k)
    sums, diffs = index_combine(ia, ib), index_combine(ia, ib, -1)
    for got in (sums, diffs):
        assert_reduced_index(got)
    assert_same_table(pair_table(sums), {k: v for k, v in want_sum.items() if v})
    assert_same_table(pair_table(diffs), {k: v for k, v in want_diff.items() if v})
    assert index_combine(ia, unreduced_index(ia, k), -1) == EMPTY


@given(tables, tables, st.lists(st.integers(0, 4), min_size=5, max_size=5), st.integers(1, 3), st.sampled_from((1, -1)))
def test_add_and_subtract_keep_shared_rows(a, b, picks, k, sign):
    # Rows a shares stay shared, and a row of a alone over the common
    # denominator is a's row object; over k times it is scaled once.
    if not a:
        return
    shared, copy = shared_rows(index(a), picks)
    for other in (index(b), unreduced_index(index(b), k), shared):
        got, want = index_combine(shared, other, sign), index_combine(copy, other, sign)
        assert index_equal(got, want) and got[0] == want[0]
        rows, held = got[1], shared[1]
        for i in rows:
            for j in rows:
                if held.get(i) is held.get(j) and other[1].get(i) is other[1].get(j):
                    assert rows[i] is rows[j]
            if i in held and i not in other[1] and lcm(shared[0], other[0]) == got[0] == shared[0]:
                assert rows[i] is held[i]


@given(aligned, st.integers(1, 6), st.integers(1, 6))
def test_equal_matches_naive(pair, k, l):
    f, g = pair
    ff, fg = form(f), form(g)
    for x, y in ((ff, ff), (ff, fg), (fg, ff)):
        want = scalar_table(x) == scalar_table(y)
        assert equal(x, y) is want
        assert equal(unreduced(x, k), unreduced(y, l)) is want
        assert equal(x, unreduced(y, l)) is want


@given(tables, tables, st.integers(1, 6), st.randoms(use_true_random=False))
def test_index_equal_matches_naive(a, b, k, rng):
    ia, ib = index(a), index(b)
    assert index_equal(ia, ib) is (a == b)
    assert index_equal(ia, unreduced_index(ib, k, rng)) is (a == b)
    assert index_equal(unreduced_index(ib, k, rng), ia) is (a == b)
    assert index_equal(ia, unreduced_index(ia, k, rng))


@given(tables, tables)
def test_index_equal_on_permuted_product_columns(a, b):
    # A product lists each row's columns as it reaches them; the index of
    # the naive table lists them in key order.
    got, want = product(index(a), index(b)), naive_product(a, b)
    assert index_equal(got, index(want))
    assert index_equal(index(want), got)
    for key in want:
        changed = dict(want)
        changed[key] = want[key] + 1 or Scalar(2)
        assert not index_equal(got, index(changed))
        del changed[key]
        assert not index_equal(got, index(changed))
        assert not index_equal(index(changed), got)


def test_index_equal_on_disjoint_rows_and_empty_tables():
    one = Scalar(1)
    a = {(0, 0): one, (1, 1): one}
    b = {(2, 2): one, (3, 3): one}
    assert not index_equal(index(a), index(b))
    assert not index_equal(index(a), index({**a, (2, 0): one}))
    assert index_equal(index({}), EMPTY)
    assert not index_equal(index(a), EMPTY)
    assert not index_equal(EMPTY, index(a))


class _RowsNeverEqual(dict):
    """Rows whose ``==`` never holds, so ``index_equal`` skips its one-compare
    shortcut and compares them id by id."""

    def __eq__(self, other):
        return False

    __hash__ = None


def _index_equal_by_rows(a, b):
    return index_equal((a[0], _RowsNeverEqual(a[1])), (b[0], _RowsNeverEqual(b[1])))


@given(
    row_indexes(range(6), range(6), 4),
    row_indexes(range(6), range(6), 4),
    st.lists(st.integers(0, 5), min_size=6, max_size=6),
    st.integers(2, 4),
    st.randoms(use_true_random=False),
)
def test_index_equal_agrees_with_the_row_loop(a, b, picks, k, rng):
    den, rows = a
    shared = copied = a
    if rows:
        # Several ids hold one row object of a, and an equal unshared copy.
        ks = list(rows)
        shared = (den, {i: rows[ks[p % len(ks)]] for i, p in enumerate(picks)})
        copied = (den, {i: tuple(map(list, row)) for i, row in shared[1].items()})
    equal_pairs = [
        (a, a),
        (a, (den, dict(rows))),
        (a, unreduced_index(a, 1, rng)),  # columns reordered
        (a, unreduced_index(a, k)),  # another denominator
        (unreduced_index(a, k, rng), a),
        (shared, copied),
        (copied, shared),
    ]
    for x, y in equal_pairs:
        assert index_equal(x, y) is True
        assert _index_equal_by_rows(x, y) is True
    other_pairs = [(a, b), (b, a), (shared, a), (a, unreduced_index(b, k, rng)), (copied, b)]
    if rows:
        # One cell moved by one.
        i, (cols, res, ims) = next(iter(rows.items()))
        other_pairs.append((a, (den, {**rows, i: (cols, [res[0] + 1, *res[1:]], ims)})))
    for x, y in other_pairs:
        assert index_equal(x, y) is _index_equal_by_rows(x, y) is (pair_table(x) == pair_table(y))


@given(tables, st.integers(1, 4))
def test_index_adjoint_matches_naive(a, k):
    want = {(j, i): val.conjugate() for (i, j), val in a.items()}
    got = index_adjoint(index(a))
    assert_reduced_index(got)
    assert_same_table(pair_table(got), want)
    assert_same_table(pair_table(index_adjoint(unreduced_index(index(a), k))), want)
    assert index_equal(index_adjoint(got), index(a))


def test_operations_on_forms_build_no_scalars(monkeypatch):
    d = builtin_diagram("fibonacci", 4)
    rng = random.Random(5)
    f, g = random_cylinder(d, 2, rng), random_cylinder(d, 3, rng)
    x, y = random_af_element(d, 2, rng), random_af_element(d, 2, rng)
    F, G = random_groupoid_function(d, 1, 2, rng), random_groupoid_function(d, 2, 3, rng)

    def refuse(*args):
        raise AssertionError("a Scalar table was built")

    monkeypatch.setattr(_exact, "_scalars", refuse)
    assert f + g == g + f
    assert f - g == -(g - f)
    assert f * g == g * f and 2 * f == f + f
    assert f.refine(4) == f and f.refine(4) != g
    assert x + y == y + x and x - y == -(y - x)
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()
    assert (x * y).embed() == x.embed() * y.embed()
    assert (x.embed() == x) is False
    assert F.widen(2, 3) == F
    assert convolve(F, G).adjoint() == convolve(G.adjoint(), F.adjoint())
    assert F + G == G + F and (F - F).is_zero()
    assert set(F.keys()) == set(F.widen(1, 2).keys())
    for obj in (f, x, F):
        repr(obj)


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
    means = scalar_table(class_sums(form(table), ((0, 1), (2, 3)), class_means(((0, 1), (2, 3)))))
    assert means == (ZERO, Scalar(Fraction(3, 8), Fraction(1, 3)))
    assert means[1].to_report() == "3/8+1/3*i"


# -- building a row index -------------------------------------------------------------


def check_indexed(den, rows):
    """``indexed(den, rows)`` against its contract, cell by cell in Fractions."""
    got = indexed(den, rows)
    cells = {(i, j): (Fraction(x, den), Fraction(y, den)) for i, row in rows.items() for j, x, y in zip(*row)}
    if not cells:
        assert got == EMPTY
        return
    den2, rows2 = got
    assert rows2.keys() == rows.keys()
    assert {(i, j): (Fraction(x, den2), Fraction(y, den2)) for i, row in rows2.items() for j, x, y in zip(*row)} == cells
    numerators = [x for _, res, ims in rows2.values() for x in res + ims]
    assert gcd(den2, *numerators) == 1


@pytest.mark.parametrize(
    "den, rows",
    [
        (5, {}),
        (5, {0: ([], [], []), 3: ([], [], [])}),
        # all-zero imaginary parts
        (6, {0: ([1, 2], [3, -9], [0, 0]), 2: ([0], [6], [0])}),
        # large numerators of either sign, in either part
        (1, {0: ([0], [-(2**70)], [5]), 1: ([1], [2**69], [-(2**70) - 1])}),
        (7, {4: ([0, 1, 2], [-3, 1, 2], [0, -8, 8])}),
        # a gcd > 1 with the denominator, shared across rows
        (12, {0: ([0, 1], [24, -36], [12, 0]), 3: ([2], [0], [-48])}),
        (90, {1: ([1], [-30], [60]), 2: ([0, 2], [15, 0], [0, -45])}),
    ],
)
def test_indexed_reduces_and_bounds_its_rows(den, rows):
    check_indexed(den, rows)


row_cells = st.lists(
    st.tuples(st.integers(0, 6), st.integers(-40, 40), st.integers(-40, 40)), max_size=5, unique_by=lambda c: c[0]
)


@given(st.dictionaries(st.integers(0, 6), row_cells, max_size=5), st.integers(1, 30), st.integers(1, 6))
def test_indexed_reduces_and_bounds_random_rows(cells, den, k):
    check_indexed(den, {
        i: ([j for j, _, _ in row], [x * k for _, x, _ in row], [y * k for _, _, y in row])
        for i, row in cells.items()
    })
