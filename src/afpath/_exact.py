"""Exact integer forms of tables and the kernels that work on them.

A table of Scalars has an exact form: Gaussian-integer numerators (Python
ints) over one common denominator, Bareiss's integer-preserving idea
(Math. Comp. 22, 1968).  A cylinder table's form is ``(den, res, ims)``,
two lists aligned with the table; a pair table's form is a row *index*
``(den, rows)`` with ``rows[i] = (cols, res, ims)``.  A row index holds no
zero cell and no empty row.  Conversions and arithmetic kernels return
reduced forms (no integer > 1 divides the denominator and all numerators);
a re-indexed or extended form may not be, which costs only size: ``equal``
and ``index_equal`` cross-multiply the denominators, and converting back
reduces every Fraction.

Scaling by a rational ``c = p/q`` is denominator arithmetic and builds no
Scalar (``scale_index``): with ``g = gcd(p, den)`` the denominator becomes
``(den // g) * q`` and every numerator is multiplied by ``p // g``.  As
``gcd(den // g, p // g) = 1``, a prime of ``den // g`` that divided every
new numerator would divide every old one, so an int multiplier keeps a
reduced index reduced.  Only q can share a factor with every numerator;
``indexed`` divides it out, and settles a reduced result on its first cell.

Rows are never mutated: a kernel that changes a row builds new lists.  So
several ids may hold one row object, and ids that hold one row object hold
equal rows (``jones_projection`` shares one row per tail class among the
class's members).  ``product`` multiplies such a row once, ``indexed``
reduces it once, ``scale_index`` scales it once, ``index_combine`` merges
it once and ``extend_index`` copies it once per extension, and all keep it
shared in their output.  Sharing in b pays too: a row of a that reaches one
row object R of b at every column, a one-entry row among them, is ``(sum of
its entries) * R`` (``_summed_rows``), built once per multiple for every id
of a that asks for it, so ``diag(f) * e_n`` and ``(e_n D_f) * e_n`` make
one row per class with no packing.  Given b, a row's columns and their
order depend only on a's contents, so sharing in a never changes a
product's bytes.  Sharing in b can reorder a row's columns, never its
cells: the rows ``_summed_rows`` takes join no part.  Sharing also crosses
operands: in ``product`` a row times 1 is b's row, the same object; a
scaling whose ``p // g`` is 1 keeps every row object, and ``index_combine``
keeps a row that one operand holds alone when its multiplier is 1.

The form is the only state a table owner (``PairTable``,
``CylinderFunction``) keeps.  The kernels here take and return forms, add,
multiply and compare only ints; ``_scalars`` turns a form into reduced
Fractions, and only the read accessors call it.  Results equal the naive
Scalar computation, so reports do not change.
"""

from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import is_

from .scalars import SCALAR_TYPES, Scalar, ZERO


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


def sup_sq(f):
    """The largest squared modulus ``x*x + y*y`` of a form's numerators (0 for none)."""
    _, res, ims = f
    return max((x * x + y * y for x, y in zip(res, ims)), default=0)


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


def class_means(classes):
    """The scale ``(L, mults)`` that turns class sums into class means.

    L is the lcm of the class sizes and ``mults[c] = L // size_c``: the mean
    of class c is ``sum_c / (den * size_c) = sum_c * mults[c] / (den * L)``.
    Classes of one size share one multiplier object.
    """
    sizes = [len(cls) for cls in classes]
    big = lcm(*sizes)
    per_size = {s: big // s for s in set(sizes)}
    return big, tuple(map(per_size.__getitem__, sizes))


def class_sums(f, classes, scale=None):
    """The sum of a form's entries over each class of indices, as a form.

    With ``scale = (L, mults)`` (see ``class_means``) each sum is multiplied
    by its class's multiplier in the same pass and the denominator by L.
    One loop sums both parts of a class; it beats two ``sum(map(...))``
    passes on the small classes the suites average over.
    """
    den, res, ims = f
    big, mults = scale or (1, repeat(1))
    sums_re, sums_im = [], []
    for cls, k in zip(classes, mults):
        re = im = 0
        for g in cls:
            re += res[g]
            im += ims[g]
        sums_re.append(re * k)
        sums_im.append(im * k)
    return reduced(den * big, sums_re, sums_im)


def class_average(f, classes, class_of, scale):
    """``reindex(class_sums(f, classes, scale), class_of)``: each entry
    replaced by its class's sum (or mean), the loop chosen by the partition.

    With singleton classes the map is the identity; with one class it is
    one sum of each part spread over every entry (the class's multiplier
    is 1, its mean the sum over ``den * L``).
    """
    if len(classes) == len(class_of):
        return reduced(*f)
    if len(classes) == 1:
        den, res, ims = f
        den, (re,), (im,) = reduced(den * scale[0] if scale else den, [sum(res)], [sum(ims)])
        size = len(class_of)
        return den, [re] * size, [im] * size
    return reindex(class_sums(f, classes, scale), class_of)


# -- pair forms: row indexes ----------------------------------------------------------


def index(table):
    """The row index of a sparse pair table ``{(i, j): nonzero Scalar}``."""
    den, res, ims = form(table.values())
    return indexed(den, _row_map(zip(table, res, ims)))


def _row_map(cells):
    """The row map of ``((i, j), re, im)`` cells, each row's columns in the order given."""
    rows = {}
    for (i, j), re, im in cells:
        row = rows.get(i)
        if row is None:
            row = rows[i] = ([], [], [])
        row[0].append(j)
        row[1].append(re)
        row[2].append(im)
    return rows


def diagonal(f):
    """The row index of the diagonal pair table ``{(g, g): f[g]}`` of a cylinder form."""
    den, res, ims = f
    return indexed(den, {g: ([g], [x], [y]) for g, (x, y) in enumerate(zip(res, ims)) if x or y})


def indexed(den, rows):
    """The reduced row index of a row map over ``den``; EMPTY when no row holds a cell."""
    if not rows:
        return EMPTY
    g = den
    for _, res, ims in rows.values():
        # One cell settles most reduced rows, so a wide row is read whole
        # only when it does not.
        if res and gcd(g, res[0], ims[0]) == 1:
            return den, rows
        g = gcd(g, *res, *ims)
        if g == 1 and res:
            return den, rows
    if not any(cols for cols, _, _ in rows.values()):
        return EMPTY
    return den // g, _each_row_once(rows, lambda row: (row[0], [x // g for x in row[1]], [y // g for y in row[2]]))


def _each_row_once(rows, make):
    """``{i: make(row)}``, with ``make`` called once per row object: ids that
    hold one row object hold one result."""
    done = {}
    out = {}
    for i, row in rows.items():
        new = done.get(id(row))
        if new is None:
            new = done[id(row)] = make(row)
        out[i] = new
    return out


def unit(a, b):
    """The row index of the one-entry table ``{(a, b): 1}``."""
    return 1, {a: ([b], [1], [0])}


def identity_on(ids):
    """The row index of the 0/1 diagonal table ``{(g, g): 1 for g in ids}``, ids increasing."""
    return (1, {g: ([g], [1], [0]) for g in ids}) if ids else EMPTY


EMPTY = (1, {})


class PairTable:
    """Holder of a sparse pair table as its row index, its only state.

    Kernels take and return row indexes, so a chain of products, sums and
    comparisons never builds a Scalar.  ``table`` builds the Scalars each
    time it is read and keeps none.

    The *-algebra shared by every pair table (``+``, ``-``, negation,
    scaling, ``adjoint`` and ``==``) lives here.  It relies on two hooks
    that a subclass defines: ``_like(index)``, a table of the same class and
    levels holding ``index``, and ``_aligned(other)``, the two operands as
    tables at common levels (or a TypeError/ValueError when they cannot be).
    A subclass defines its own product.
    """

    __slots__ = ("_index",)

    def __add__(self, other):
        f, g = self._aligned(other)
        return f._like(index_combine(f._index, g._index))

    def __sub__(self, other):
        f, g = self._aligned(other)
        return f._like(index_combine(f._index, g._index, -1))

    def __neg__(self):
        return self._like(scale_index(-1, self._index))

    def __mul__(self, other):
        """Scaling by an int, Fraction or Scalar."""
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        return self._like(scale_index(other, self._index) if other else EMPTY)

    def __rmul__(self, other):
        # Scaling commutes; a subclass's own __mul__ dispatches it.
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        return self * other

    def adjoint(self):
        """The conjugate transpose ``{(j, i): conj(value)}``."""
        return self._like(index_adjoint(self._index))

    def __eq__(self, other):
        """Equal tables once aligned; operands that cannot be aligned are unequal."""
        try:
            f, g = self._aligned(other)
        except TypeError:
            return NotImplemented
        except ValueError:
            return False
        return index_equal(f._index, g._index)

    # Equal tables need not share an index (nor, for kernels, levels), so
    # no hash of the index could agree with __eq__.
    __hash__ = None

    @property
    def table(self):
        """The nonzero entries ``{(path id, path id): Scalar}``."""
        return pair_table(self._index)

    def _at(self, a, b):
        """The Scalar at the pair (a, b) of path ids, ZERO off the table."""
        den, rows = self._index
        row = rows.get(a)
        if row is None or b not in row[0]:
            return ZERO
        k = row[0].index(b)
        return scalar(den, row[1][k], row[2][k])

    def keys(self):
        """Iterate over the pairs of path ids of the nonzero entries."""
        for i, (cols, _, _) in self._index[1].items():
            for j in cols:
                yield i, j

    def nnz(self):
        """The number of nonzero entries."""
        return sum(len(cols) for cols, _, _ in self._index[1].values())

    def is_zero(self):
        return not self._index[1]


def pair_table(idx):
    """The sparse Scalar table ``{(i, j): value}`` that a row index stands for."""
    den, rows = idx
    keys, res, ims = [], [], []
    for i, (cols, row_res, row_ims) in rows.items():
        keys += [(i, j) for j in cols]
        res += row_res
        ims += row_ims
    return dict(zip(keys, _scalars(den, res, ims)))


def index_equal(a, b):
    """Whether two row indexes stand for the same table.

    Over one denominator, equal rows in equal column orders are compared by
    one C-level ``==`` of the two row dicts, and a row object that both
    indexes hold is equal to itself by identity, with no cell read (a
    projection's class rows).  Otherwise the rows are compared id by id: a
    row's columns may come in different orders (a product lists them as
    they are reached), and denominators are cross-multiplied as in ``equal``.
    """
    den_a, rows_a = a
    den_b, rows_b = b
    if den_a == den_b and rows_a == rows_b:
        return True
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
    """The row index of the entrywise ``a + sign*b``, zero cells dropped.

    A row that one operand holds alone is scaled once per row object, and
    kept as it is when its multiplier is 1; rows that both hold at one id
    are merged once per pair of row objects.  So shared rows stay shared.
    """
    den_a, rows_a = a
    den_b, rows_b = b
    den = lcm(den_a, den_b)
    sa = den // den_a
    sb = sign * (den // den_b)
    out, done = {}, {}
    for i, row in rows_a.items():
        other = rows_b.get(i)
        key = (id(row), id(other))
        if key not in done:
            if other is None:
                done[key] = _row_times(row, sa, 0)
            else:
                cells = {j: (x * sa, y * sa) for j, x, y in zip(*row)}
                for j, x, y in zip(*other):
                    _add_cell(cells, j, x * sb, y * sb)
                _put_row(done, key, cells)
                # A pair that cancels is recorded as None.
                done.setdefault(key, None)
        if (new := done[key]) is not None:
            out[i] = new
    only_b = {i: row for i, row in rows_b.items() if i not in rows_a}
    out.update(_each_row_once(only_b, lambda row: _row_times(row, sb, 0)))
    return indexed(den, out)


def index_adjoint(idx):
    """The row index of the conjugate transpose ``{(j, i): conj(value)}``."""
    den, rows = idx
    cells = (((j, i), x, -y) for i, (cols, res, ims) in rows.items() for j, x, y in zip(cols, res, ims))
    return den, _row_map(cells)


def scale_index(c, idx):
    """The row index of ``c * table`` for a nonzero int, Fraction or Scalar c.

    A rational ``c = p/q`` is denominator arithmetic: with ``g = gcd(p,
    den)`` the denominator becomes ``(den // g) * q`` and every numerator is
    multiplied by ``p // g``, so no Scalar is built.  A multiplier of 1
    keeps every row object, and otherwise each row object is scaled once
    and stays shared.  A Scalar with an imaginary part is put over its own
    denominator and multiplies each row object once as a Gaussian integer.
    """
    den, rows = idx
    if isinstance(c, Scalar):
        if c.im:
            cd, (re,), (im,) = form((c,))
            return indexed(cd * den, _each_row_once(rows, lambda row: _row_times(row, re, im)))
        c = c.re
    k, den = _rational_scale(*c.as_integer_ratio(), den)
    if k == 1:
        return indexed(den, rows)
    return indexed(den, _each_row_once(rows, lambda row: _row_times(row, k, 0)))


def _rational_scale(p, q, den):
    """``(k, d)`` with ``(p/q) * (x/den) == (k*x)/d`` for every x: with
    ``g = gcd(p, den)``, ``k = p // g`` and ``d = (den // g) * q``."""
    g = gcd(p, den)
    return p // g, den // g * q


def product(a, b):
    """The row index of the sparse matrix product of two row indexes.

    ``{(i,k): x} x {(k,j): y} -> {(i,j): sum x*y}`` (Gustavson's row-wise
    product, ACM TOMS 4, 1978).  Only the rows of b that a reaches are
    read, so the cost is the size of a plus those rows, however large b
    is.  A row object that several ids of a hold is multiplied once, and
    those ids hold one shared row of the product; a row object that
    several ids of b hold is packed and scanned once.  A row of a whose one
    entry is 1 yields b's row object itself.

    A call takes these paths, in order:

    - a is one row of one entry: that row of b, scaled, with no loop and
      no scan (no other id holds the row, so no sharing is lost);
    - a row of a wider than b has rows is read only at b's row ids, by one
      C-level scan (``_probed_rows``);
    - each row of a that reaches one row object R of b at every column (a
      one-entry row always does) is ``(sum of its entries) * R``, built
      once per multiple, and a row that reaches no row of b is dropped
      (``_summed_rows``);
    - of the rows left over, when every row of b they reach holds one
      entry, each term lands in one column (``_merged_rows``);
    - otherwise each reached row of b is packed into one int, and a row of
      the product is a few int multiply-adds and one decode per part of
      the columns it reaches (``_packed_rows``).

    The product keeps a's id order, whichever path made its rows.
    """
    den_a, rows_a = a
    den_b, rows_b = b
    if len(rows_a) == 1:
        ((i, (ks, res, ims)),) = rows_a.items()
        if len(ks) == 1:
            row = rows_b.get(ks[0])
            if row is None:
                return EMPTY
            return indexed(den_a * den_b, {i: _row_times(row, res[0], ims[0])})
    held = None
    if len(rows_a) > 1 and len(set(map(id, rows_a.values()))) < len(rows_a):
        # Multiply one id per row object: the last that holds it.
        held = list(map(id, rows_a.values()))
        holder = dict(zip(held, rows_a))
        every_a, rows_a = rows_a, {i: rows_a[i] for i in holder.values()}
    if 0 < len(rows_b) < _widest(rows_a):
        rows_a = _probed_rows(rows_a, rows_b)
    rows, rest = _summed_rows(rows_a, rows_b)
    if rest:
        reach = {k for ks, _, _ in rest.values() for k in ks}
        reached = {k: row for k in reach if (row := rows_b.get(k)) is not None}
        if all(len(cols) == 1 for cols, _, _ in reached.values()):
            more = _merged_rows(rest, reached)
        else:
            more = _packed_rows(rest, reached)
        if rows and held is None:
            # Keep a's id order.
            more.update(rows)
            rows = {i: more[i] for i in rows_a if i in more}
        else:
            rows.update(more)
    if held is not None:
        rows = {i: row for i, r in zip(every_a, held) if (row := rows.get(holder[r])) is not None}
    return indexed(den_a * den_b, rows)


def _widest(rows):
    """The length of the longest row of a row map, 0 for an empty map."""
    return max([len(ks) for ks, _, _ in rows.values()], default=0)


def _top(rows):
    """The largest size of a numerator among some rows."""
    return max(max(map(abs, res + ims)) for _, res, ims in rows)


def _probed_rows(rows_a, rows_b):
    """The rows of a cut to the columns that are row ids of b.

    A row no wider than b has rows is kept as it is.  A wider one is read
    in C, not entry by entry: by ``list.index`` when b has one row, else by
    one membership test per column, so only the entries kept cost a Python
    step.
    """
    out = {}
    if len(rows_b) == 1:
        (k,) = rows_b
        for i, row in rows_a.items():
            ks, res, ims = row
            if len(ks) == 1:
                out[i] = row
            elif k in ks:
                p = ks.index(k)
                out[i] = ([k], [res[p]], [ims[p]])
        return out
    member = rows_b.__contains__
    for i, row in rows_a.items():
        ks, res, ims = row
        if len(ks) <= len(rows_b):
            out[i] = row
            continue
        kept = list(compress(range(len(ks)), map(member, ks)))
        if kept:
            out[i] = ([ks[p] for p in kept], [res[p] for p in kept], [ims[p] for p in kept])
    return out


def _summed_rows(rows_a, rows_b):
    """The product's rows of a that reach one row object R of b at every
    column, and the rows of a left for the other loops.

    Such a row's product is ``(sum of its entries) * R``: two C-level sums
    and one ``_row_times``, built once per ``(R, re, im)`` and held by every
    id of a that asks for it.  A one-entry row reaches one row of b, so a
    class-constant diagonal times a projection, or a projection's rows
    times a projection, make one row per class.  A row that reaches no row
    of b at any column, or whose terms cancel, yields no row.  Only ``is``
    decides that a column reaches R: ``==`` would compare rows cell by cell.
    """
    get = rows_b.get
    out, rest, done = {}, {}, {}
    for i, row in rows_a.items():
        ks, res, ims = row
        first = get(ks[0])
        if len(ks) == 1:
            re, im = res[0], ims[0]
        elif all(map(is_, map(get, ks), repeat(first))):
            re, im = sum(res), sum(ims)
        else:
            rest[i] = row
            continue
        if first is None or not (re or im):
            continue
        if re == 1 and not im:
            # b's own row (see ``_row_times``), with no key to build.
            out[i] = first
            continue
        key = (id(first), re, im)
        new = done.get(key)
        if new is None:
            new = done[key] = _row_times(first, re, im)
        out[i] = new
    return out, rest


def _row_times(row, re, im):
    """A row of b times the Gaussian integer ``re + im*i``: b's row object
    itself when that is 1, so it stays shared with b.  A one-entry row, the
    most common kind (a diagonal's rows, a projection's rows at singleton
    classes), is multiplied inline, with no comprehension to set up."""
    if re == 1 and not im:
        return row
    cols, res, ims = row
    # A product of nonzero Gaussian integers is nonzero.
    if len(cols) == 1:
        (x,), (y,) = res, ims
        return cols, [re * x - im * y], [re * y + im * x]
    return (cols, *_times((re, im), res, ims))


def _merged_rows(rows_a, rows_b):
    """The product's rows when every row of b that a reaches holds one entry."""
    get = rows_b.get
    out = {}
    for i, (ks, res_i, ims_i) in rows_a.items():
        cols, res, ims = [], [], []
        for k, re, im in zip(ks, res_i, ims_i):
            row = get(k)
            if row is not None:
                (j,), (x,), (y,) = row
                cols.append(j)
                res.append(re * x - im * y)
                ims.append(re * y + im * x)
        if len(set(cols)) < len(cols):
            # Terms that land in one column merge, and may cancel.
            cells = {}
            for j, re, im in zip(cols, res, ims):
                _add_cell(cells, j, re, im)
            _put_row(out, i, cells)
        elif cols:
            out[i] = (cols, res, ims)
    return out


def _packed_rows(rows_a, reached):
    """The product's rows, with each reached row of b packed into one int.

    A Gaussian integer ``re + im*i`` is the int ``re + im*2**shift``, and a
    row of b on a column axis is the int with its entry in the axis's t-th
    column at bit ``3*shift*t``.  One int multiply-add by an entry of a
    then accumulates ``re*re'``, ``re*im' + im*re'`` and ``im*im'`` of
    every column of the row in separate ``shift``-bit digits.  A cell of a
    row of the product sums at most one term per entry of its row of a, so
    at most ``_widest(rows_a)`` terms, and each digit of a term is at most
    ``2 * top_a * top_b`` in size, so ``shift`` is chosen so that no digit
    of any cell's sum can reach half of ``2**shift``: adding half to every
    digit leaves each digit in ``[0, 2**shift)`` and each cell a plain
    ``3*shift``-bit field, cut off by one mask and one shift.

    Each row object of b is packed once, on the sorted axis of its part
    (``_parts``).  A row of a accumulates one int per part it reaches and
    decodes each once; parts share no column, so the decoded parts are
    joined with their zero cells dropped.  A row that decodes one part with
    no zero cell keeps the part's axis list, shared.
    """
    rows = {id(row): row for row in reached.values()}
    shift = (_widest(rows_a) * _top(rows_a.values()) * _top(rows.values())).bit_length() + 2
    cell = 3 * shift
    part, axes = _parts(dict.fromkeys(tuple(cols) for cols, _, _ in rows.values()))
    # The bias adds half of ``2**shift`` to each of the ``3*len(axis)`` digits.
    half, digit = 1 << (shift - 1), (1 << shift) - 1
    columns = {p: (axis, half * ((1 << cell * len(axis)) - 1) // digit) for p, axis in axes.items()}
    packed, ats = {}, {}
    for key, (cols, res, ims) in rows.items():
        p = part[cols[0]]
        axis = axes[p]
        v = 0
        if cols == axis:
            for x, y in zip(reversed(res), reversed(ims)):
                v = (v << cell) + x + (y << shift)
        else:
            # A zero field at each axis column the row lacks.
            at = ats.get(p) or ats.setdefault(p, {j: t for t, j in enumerate(axis)})
            fields = [0] * len(axis)
            for j, x, y in zip(cols, res, ims):
                fields[at[j]] = x + (y << shift)
            for c in reversed(fields):
                v = (v << cell) + c
        packed[key] = (p, v)
    get = {k: packed[id(row)] for k, row in reached.items()}.get
    out = {}
    for i, (ks, res_i, ims_i) in rows_a.items():
        acc = {}
        for k, re, im in zip(ks, res_i, ims_i):
            row = get(k)
            if row is not None:
                p, v = row
                acc[p] = acc.get(p, 0) + (re + (im << shift)) * v
        decoded = [_unpacked(v, *columns[p], shift) for p, v in acc.items()]
        if len(decoded) == 1 and not (0 in decoded[0][1] and 0 in decoded[0][2]):
            out[i] = decoded[0]
        elif kept := [c for row in decoded for c in zip(*row) if c[1] or c[2]]:
            out[i] = tuple(map(list, zip(*kept)))
    return out


def _parts(lists):
    """``(part, axes)``: the column lists joined into parts where they share
    a column; column j is in part ``part[j]``, whose sorted columns are
    ``axes[part[j]]``.  A list joins the largest part it meets, and the
    others move into it, so a column moves O(log n) times."""
    part, members = {}, {}
    for cols in lists:
        met = set(map(part.get, cols)) - {None}
        # A new part is named by one of its columns.
        p = max(met, key=lambda q: len(members[q])) if met else cols[0]
        big = members.setdefault(p, set())
        for q in met - {p}:
            moved = members.pop(q)
            big |= moved
            part.update(zip(moved, repeat(p)))
        big.update(cols)
        part.update(zip(cols, repeat(p)))
    return part, {p: sorted(cols) for p, cols in members.items()}


def _unpacked(v, cols, bias, shift):
    """The row ``(cols, res, ims)`` of a packed row sum, zero cells kept."""
    half = 1 << (shift - 1)
    mask = (1 << shift) - 1
    cell = 3 * shift
    cell_mask = (1 << cell) - 1
    v += bias
    fields = []
    for _ in cols:
        fields.append(v & cell_mask)
        v >>= cell
    twice = 2 * shift
    return (
        cols,
        [(c & mask) - (c >> twice) for c in fields],
        [((c >> shift) & mask) - half for c in fields],
    )


def _add_cell(cells, j, re, im):
    """Add ``re + im*i`` to the cell of column j of a row map ``{j: (re, im)}``."""
    cell = cells.get(j)
    cells[j] = (re, im) if cell is None else (cell[0] + re, cell[1] + im)


def _put_row(out, i, cells):
    """Store the nonzero cells of ``{j: (re, im)}`` as row i of ``out``, if any."""
    kept = [(j, re, im) for j, (re, im) in cells.items() if re or im]
    if kept:
        out[i] = tuple(map(list, zip(*kept)))


# Rows copied more often than this are extended column by column.  Below it
# the per-copy loop wins: the column-wise form sets up one range per column
# and was 1.4-3x slower at 2-3 copies.  Timed on rows of 1-27 columns
# (Python 3.11), the two crossed at 7-8 copies, and the column-wise form was
# 1.1-1.3x faster at 9-12 copies and about 2x at 512 or more.
_COLUMNWISE_COPIES = 8


def extend_index(idx, offsets):
    """Copy the entry at each pair (a, b) onto the pairs of t-th extensions.

    ``offsets`` is a ``BratteliDiagram.children``/``descendants`` map: the
    extensions of id a are ``range(offsets[a], offsets[a+1])``.  Both ids of
    a pair end at one vertex, so their t-th extensions follow the same
    edges, and copy t of a row has column t of its columns' extension
    ranges.  The copies of a row share its numerator lists, and a row object
    that several ids hold is copied once: copy t is shared by the t-th
    extensions of every id that holds it, which end at one vertex.
    """
    den, rows = idx
    out, done = {}, {}
    for a, row in rows.items():
        start, stop = offsets[a], offsets[a + 1]
        copies = done.get(id(row))
        if copies is not None:
            out.update(zip(range(start, stop), copies))
            continue
        cols, res, ims = row
        if stop - start > _COLUMNWISE_COPIES:
            columns = zip(*[range(offsets[b], offsets[b + 1]) for b in cols])
            copies = list(zip(map(list, columns), repeat(res), repeat(ims)))
            out.update(zip(range(start, stop), copies))
        else:
            copies = []
            for t in range(stop - start):
                out[start + t] = ext = ([offsets[b] + t for b in cols], res, ims)
                copies.append(ext)
        done[id(row)] = copies
    return den, out
