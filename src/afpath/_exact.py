"""Exact integer forms of tables and the kernels that work on them.

A table of Scalars has an exact form: Gaussian-integer numerators (Python
ints) over one common denominator, Bareiss's integer-preserving idea
(Math. Comp. 22, 1968).  A cylinder table's form is ``(den, res, ims)``,
two lists aligned with the table; a pair table's form is a row *index*
``(den, top, width, rows)`` with ``rows[i] = (cols, res, ims)``, where
``top`` bounds every numerator's size and ``width`` every row's length.  A
row index holds no zero cell and no empty row.  Conversions and arithmetic
kernels return reduced forms (no integer > 1 divides the denominator and
all numerators); a re-indexed or extended form may not be, which costs
only size: ``equal`` and ``index_equal`` cross-multiply the denominators,
and converting back reduces every Fraction.

The form is the only state a table owner (``PairTable``,
``CylinderFunction``) keeps.  The kernels here take and return forms, add,
multiply and compare only ints; ``_scalars`` turns a form into reduced
Fractions, and only the read accessors call it.  Results equal the naive
Scalar computation, so reports do not change.
"""

from fractions import Fraction
from math import gcd, lcm

from .scalars import SCALAR_TYPES, Scalar, ZERO, as_scalar


def form(values):
    """The reduced form ``(den, res, ims)`` of a sequence of Scalars."""
    ratios = [(x.re.as_integer_ratio(), x.im.as_integer_ratio()) for x in values]
    den = lcm(*{d for (_, d), _ in ratios}, *{d for _, (_, d) in ratios})
    return (
        den,
        [re * (den // d) for (re, d), _ in ratios],
        [im * (den // d) for _, (im, d) in ratios],
    )


def reduced(den, res, ims):
    """The cylinder form over ``den``, with common factors divided out."""
    g = gcd(den, *res, *ims)
    if g == 1:
        return den, res, ims
    return den // g, [x // g for x in res], [x // g for x in ims]


def _scalars(den, res, ims):
    """The Scalar ``(re + im*i) / den`` of each numerator pair, ZERO for zero.

    Equal numerators share one reduced Fraction, so a table with few
    distinct values costs few Fraction constructions.
    """
    part = {x: Fraction(x, den) for x in {*res, *ims}}
    return [Scalar._of(part[re], part[im]) if re or im else ZERO for re, im in zip(res, ims)]


def scalar(den, re, im):
    """The one Scalar ``(re + im*i) / den``."""
    return _scalars(den, (re,), (im,))[0]


def scalar_table(f):
    """The tuple of Scalars that a cylinder form stands for."""
    return tuple(_scalars(*f))


# -- cylinder forms: aligned lists --------------------------------------------------


def reindex(f, ids):
    """The form of the table ``[table[p] for p in ids]``."""
    den, res, ims = f
    return den, [res[p] for p in ids], [ims[p] for p in ids]


def equal(f, g):
    """Whether two aligned forms stand for the same table.

    Reduced forms of one table are identical; others are compared by
    cross-multiplying the denominators.
    """
    den_f, res_f, ims_f = f
    den_g, res_g, ims_g = g
    if den_f == den_g:
        return res_f == res_g and ims_f == ims_g
    return all(x * den_g == y * den_f for x, y in zip(res_f, res_g)) and all(
        x * den_g == y * den_f for x, y in zip(ims_f, ims_g)
    )


def combine(f, g, sign=1):
    """The entrywise ``f + sign*g`` of two aligned forms, in one pass."""
    den_f, res_f, ims_f = f
    den_g, res_g, ims_g = g
    den = lcm(den_f, den_g)
    sf = den // den_f
    sg = sign * (den // den_g)
    return reduced(
        den,
        [x * sf + y * sg for x, y in zip(res_f, res_g)],
        [x * sf + y * sg for x, y in zip(ims_f, ims_g)],
    )


def multiply(f, g):
    """The entrywise product of two aligned forms."""
    den_f, res_f, ims_f = f
    den_g, res_g, ims_g = g
    if not any(ims_f) and not any(ims_g):
        return reduced(den_f * den_g, [x * y for x, y in zip(res_f, res_g)], ims_f)
    return reduced(
        den_f * den_g,
        [a * c - b * d for a, b, c, d in zip(res_f, ims_f, res_g, ims_g)],
        [a * d + b * c for a, b, c, d in zip(res_f, ims_f, res_g, ims_g)],
    )


def _times(c, res, ims):
    """The numerators of ``c * (res + ims*i)`` for a Gaussian integer ``c = (re, im)``."""
    cr, ci = c
    if not ci:
        return [cr * x for x in res], [cr * y for y in ims]
    return [cr * x - ci * y for x, y in zip(res, ims)], [cr * y + ci * x for x, y in zip(res, ims)]


def scale(c, f):
    """The form ``c * f`` for a Scalar c."""
    (cd, (cr,), (ci,)), (den, res, ims) = form((c,)), f
    return reduced(cd * den, *_times((cr, ci), res, ims))


def class_sums(f, classes, mean=False):
    """The sum of a form's entries over each class of indices, as a form.

    With ``mean`` each sum is divided by its class size.
    """
    den, res, ims = f
    sums_re = [sum(map(res.__getitem__, cls)) for cls in classes]
    sums_im = [sum(map(ims.__getitem__, cls)) for cls in classes]
    if not mean:
        return reduced(den, sums_re, sums_im)
    # The mean of class c is sum_c / (den * size_c) = sum_c * (L / size_c) / (den * L).
    sizes = [len(cls) for cls in classes]
    big = lcm(*sizes)
    return reduced(
        den * big,
        [x * (big // s) for x, s in zip(sums_re, sizes)],
        [y * (big // s) for y, s in zip(sums_im, sizes)],
    )


# -- pair forms: row indexes ----------------------------------------------------------


def index(table):
    """The row index of a sparse pair table ``{(i, j): nonzero Scalar}``."""
    den, res, ims = form(table.values())
    rows = {}
    for (i, j), re, im in zip(table, res, ims):
        row = rows.get(i)
        if row is None:
            row = rows[i] = ([], [], [])
        row[0].append(j)
        row[1].append(re)
        row[2].append(im)
    return indexed(den, rows)


def diagonal(f):
    """The row index of the diagonal pair table ``{(g, g): f[g]}`` of a cylinder form."""
    den, res, ims = f
    return indexed(den, {g: ([g], [x], [y]) for g, (x, y) in enumerate(zip(res, ims)) if x or y})


def indexed(den, rows):
    """The row index of a row map over ``den``: reduced, with its size bounds."""
    res, ims, width = [], [], 0
    for cols, row_res, row_ims in rows.values():
        res += row_res
        ims += row_ims
        width = max(width, len(cols))
    if not res:
        return EMPTY
    g = gcd(den, *res, *ims)
    if g != 1:
        den //= g
        rows = {
            i: (cols, [x // g for x in row_res], [y // g for y in row_ims])
            for i, (cols, row_res, row_ims) in rows.items()
        }
    return den, max(max(res), -min(res), max(ims), -min(ims)) // g, width, rows


EMPTY = (1, 0, 0, {})


class PairTable:
    """Holder of a sparse pair table as its row index, its only state.

    Kernels take and return row indexes, so a chain of products, sums and
    comparisons never builds a Scalar.  ``table`` builds the Scalars each
    time it is read and keeps none.

    The *-algebra shared by every pair table (``+``, ``-``, negation,
    scaling and ``adjoint``) lives here.  It relies on two hooks that a
    subclass defines: ``_like(index)``, a table of the same class and levels
    holding ``index``, and ``_aligned(other)``, the two operands as tables
    at common levels (or a TypeError/ValueError when they cannot be).  A
    subclass defines its own product and equality.
    """

    __slots__ = ("_index",)

    def __add__(self, other):
        f, g = self._aligned(other)
        return f._like(index_combine(f._index, g._index))

    def __sub__(self, other):
        f, g = self._aligned(other)
        return f._like(index_combine(f._index, g._index, -1))

    def __neg__(self):
        return (-1) * self

    def __mul__(self, other):
        """Scaling by an int, Fraction or Scalar."""
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        c = as_scalar(other)
        return self._like(scale_index(c, self._index) if c else EMPTY)

    def __rmul__(self, other):
        # Scaling commutes; a subclass's own __mul__ dispatches it.
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        return self * other

    def adjoint(self):
        """The conjugate transpose ``{(j, i): conj(value)}``."""
        return self._like(index_adjoint(self._index))

    # Equal tables need not share an index (nor, for kernels, levels), so
    # no hash of the index could agree with __eq__.
    __hash__ = None

    @property
    def table(self):
        """The nonzero entries ``{(path id, path id): Scalar}``."""
        return pair_table(self._index)

    def _at(self, a, b):
        """The Scalar at the pair (a, b) of path ids, ZERO off the table."""
        den, _, _, rows = self._index
        row = rows.get(a)
        if row is None or b not in row[0]:
            return ZERO
        k = row[0].index(b)
        return scalar(den, row[1][k], row[2][k])

    def keys(self):
        """Iterate over the pairs of path ids of the nonzero entries."""
        for i, (cols, _, _) in self._index[3].items():
            for j in cols:
                yield i, j

    def nnz(self):
        """The number of nonzero entries."""
        return sum(len(cols) for cols, _, _ in self._index[3].values())

    def is_zero(self):
        return not self._index[3]


def pair_table(idx):
    """The sparse Scalar table ``{(i, j): value}`` that a row index stands for."""
    den, _, _, rows = idx
    keys, res, ims = [], [], []
    for i, (cols, row_res, row_ims) in rows.items():
        keys += [(i, j) for j in cols]
        res += row_res
        ims += row_ims
    return dict(zip(keys, _scalars(den, res, ims)))


def index_equal(a, b):
    """Whether two row indexes stand for the same table.

    A row's columns may come in different orders (a product lists them as
    they are reached); denominators are cross-multiplied as in ``equal``.
    """
    den_a, _, _, rows_a = a
    den_b, _, _, rows_b = b
    if rows_a.keys() != rows_b.keys():
        return False
    for i, (cols, res, ims) in rows_a.items():
        cols_b, res_b, ims_b = rows_b[i]
        if cols != cols_b:
            if len(cols) != len(cols_b):
                return False
            at = dict(zip(cols_b, range(len(cols_b))))
            if not all(j in at for j in cols):
                return False
            order = [at[j] for j in cols]
            res_b = [res_b[k] for k in order]
            ims_b = [ims_b[k] for k in order]
        if not equal((den_a, res, ims), (den_b, res_b, ims_b)):
            return False
    return True


def index_combine(a, b, sign=1):
    """The row index of the entrywise ``a + sign*b``, zero cells dropped."""
    den_a, _, _, rows_a = a
    den_b, _, _, rows_b = b
    den = lcm(den_a, den_b)
    sa = den // den_a
    sb = sign * (den // den_b)
    out = {}
    for i, (cols, res, ims) in rows_a.items():
        row = rows_b.get(i)
        if row is None:
            out[i] = (cols, [x * sa for x in res], [y * sa for y in ims])
            continue
        cells = {j: (x * sa, y * sa) for j, x, y in zip(cols, res, ims)}
        for j, x, y in zip(*row):
            re, im = cells.get(j, (0, 0))
            cells[j] = (re + x * sb, im + y * sb)
        kept = [(j, re, im) for j, (re, im) in cells.items() if re or im]
        if kept:
            out[i] = tuple(map(list, zip(*kept)))
    for i, (cols, res, ims) in rows_b.items():
        if i not in rows_a:
            out[i] = (cols, [x * sb for x in res], [y * sb for y in ims])
    return indexed(den, out)


def index_adjoint(idx):
    """The row index of the conjugate transpose ``{(j, i): conj(value)}``."""
    den, top, _, rows = idx
    out = {}
    for i, (cols, res, ims) in rows.items():
        for j, x, y in zip(cols, res, ims):
            row = out.get(j)
            if row is None:
                row = out[j] = ([], [], [])
            row[0].append(i)
            row[1].append(x)
            row[2].append(-y)
    return den, top, max((len(cols) for cols, _, _ in out.values()), default=0), out


def scale_index(c, idx):
    """The row index of ``c * table`` for a nonzero Scalar c."""
    (cd, (cr,), (ci,)), (den, _, _, rows) = form((c,)), idx
    return indexed(
        cd * den, {i: (cols, *_times((cr, ci), res, ims)) for i, (cols, res, ims) in rows.items()}
    )


def product(a, b):
    """The row index of the sparse matrix product of two row indexes.

    ``{(i,k): x} x {(k,j): y} -> {(i,j): sum x*y}``.  Only the rows of b
    that a reaches are read, so the cost is the size of a plus those rows,
    however large b is.

    Each Gaussian integer ``re + im*i`` is packed into the single int
    ``re + im*2**shift`` (Kronecker substitution), so one int multiply-add
    accumulates ``re*re'``, ``re*im' + im*re'`` and ``im*im'`` in separate
    digits.  ``shift`` is chosen so that no digit of any cell's sum can
    reach half of ``2**shift``, which makes the signed digits recoverable.
    """
    den_a, top_a, width_a, rows_a = a
    den_b, top_b, _, rows_b = b
    # A cell of row i sums at most len(row i of a) terms, and each digit of
    # a term is at most 2 * top_a * top_b in size.
    shift = (width_a * top_a * top_b).bit_length() + 2
    size = 1 << shift
    half = size >> 1
    mask = size - 1
    packed = {}
    out = {}
    for i, (ks, res_i, ims_i) in rows_a.items():
        acc = {}
        get = acc.get
        for k, re, im in zip(ks, res_i, ims_i):
            row = packed.get(k)
            if row is None:
                if k not in rows_b:
                    continue
                cols, res_k, ims_k = rows_b[k]
                row = packed[k] = list(zip(cols, [x + (y << shift) for x, y in zip(res_k, ims_k)]))
            x = re + (im << shift)
            for j, y in row:
                acc[j] = get(j, 0) + x * y
        cols, res_out, ims_out = [], [], []
        for j, v in acc.items():
            c0 = v & mask
            if c0 >= half:
                c0 -= size
            v = (v - c0) >> shift
            c1 = v & mask
            if c1 >= half:
                c1 -= size
            re = c0 - ((v - c1) >> shift)
            if re or c1:
                cols.append(j)
                res_out.append(re)
                ims_out.append(c1)
        if cols:
            out[i] = (cols, res_out, ims_out)
    return indexed(den_a * den_b, out)


def extend_index(idx, offsets):
    """Copy the entry at each pair (a, b) onto the pairs of t-th extensions.

    ``offsets`` is a ``BratteliDiagram.children``/``descendants`` map: the
    extensions of id a are ``range(offsets[a], offsets[a+1])``.  Both ids of
    a pair end at one vertex, so their t-th extensions follow the same
    edges.  The copies of a row share its numerator lists.
    """
    den, top, width, rows = idx
    out = {}
    for a, (cols, res, ims) in rows.items():
        start = offsets[a]
        for t in range(offsets[a + 1] - start):
            out[start + t] = ([offsets[b] + t for b in cols], res, ims)
    return den, top, width, out
