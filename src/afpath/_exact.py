"""Sparse Gaussian-rational kernels for the tower and kernel algebras.

A table maps keys to nonzero Scalars; both algebras key theirs by pairs of
path ids.  ``product`` and ``class_sums`` turn each operand once into
Gaussian-integer numerators (Python ints) over one common denominator,
multiply and add only ints, and turn each nonzero result back into reduced
Fractions once: Bareiss's integer-preserving idea (Math. Comp. 22, 1968)
applied to products and sums.  Results equal the naive Scalar computation,
with zero cells dropped, so reports do not change.
"""

from fractions import Fraction
from itertools import chain
from math import lcm

from .scalars import Scalar, ZERO


def _numerators(values):
    """A common denominator of ``values`` and their real and imaginary numerators over it."""
    ratios = [(x.re.as_integer_ratio(), x.im.as_integer_ratio()) for x in values]
    den = lcm(*{d for (_, d), _ in ratios}, *{d for _, (_, d) in ratios})
    return (
        den,
        [re * (den // d) for (re, d), _ in ratios],
        [im * (den // d) for _, (im, d) in ratios],
    )


def product(a, b):
    """The sparse matrix product ``{(i,k): x} x {(k,j): y} -> {(i,j): sum x*y}``.

    Each Gaussian integer ``re + im*i`` is packed into the single int
    ``re + im*2**shift`` (Kronecker substitution), so one int multiply-add
    accumulates ``re*re'``, ``re*im' + im*re'`` and ``im*im'`` in separate
    digits.  ``shift`` is chosen so that no digit of any cell's sum can
    reach half of ``2**shift``, which makes the signed digits recoverable.
    """
    # Only the rows of b that a reaches, and the entries of a that reach a
    # row of b, take part; the rest are never converted.
    reach = {k for _, k in a}
    b_cells = [(k, j, val) for (k, j), val in b.items() if k in reach]
    reach = {k for k, _, _ in b_cells}
    a_cells = [(i, k, val) for (i, k), val in a.items() if k in reach]
    if not a_cells:
        return {}
    den_a, res_a, ims_a = _numerators([val for _, _, val in a_cells])
    den_b, res_b, ims_b = _numerators([val for _, _, val in b_cells])
    top = max(map(abs, chain(res_a, ims_a))) * max(map(abs, chain(res_b, ims_b)))
    # A cell sums at most len(a_cells) terms, and each digit of a term is
    # at most 2 * top in size.
    shift = (len(a_cells) * top).bit_length() + 2
    rows = {}
    for (k, j, _), re, im in zip(b_cells, res_b, ims_b):
        rows.setdefault(k, []).append((j, re + (im << shift)))
    lefts = {}
    for (i, k, _), re, im in zip(a_cells, res_a, ims_a):
        lefts.setdefault(i, []).append((re + (im << shift), rows[k]))
    size = 1 << shift
    half = size >> 1
    mask = size - 1
    den = den_a * den_b
    # Cells in a row often share a part (a real table, a uniform block),
    # so a part equal to the previous one reuses its Fraction.
    last_re = last_im = None
    out = {}
    for i, terms in lefts.items():
        acc = {}
        get = acc.get
        for x, row in terms:
            for j, y in row:
                acc[j] = get(j, 0) + x * y
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
                if re != last_re:
                    last_re, fre = re, Fraction(re, den)
                if c1 != last_im:
                    last_im, fim = c1, Fraction(c1, den)
                out[(i, j)] = Scalar._of(fre, fim)
    return out


def class_sums(table, classes, mean=False):
    """The sum of ``table`` over each class of indices, as one Scalar per class.

    ``table`` is a sequence of Scalars; with ``mean`` each sum is divided by
    its class size.
    """
    den, res, ims = _numerators(table)
    out = []
    for cls in classes:
        re = sum(map(res.__getitem__, cls))
        im = sum(map(ims.__getitem__, cls))
        if re or im:
            d = den * len(cls) if mean else den
            out.append(Scalar._of(Fraction(re, d), Fraction(im, d)))
        else:
            out.append(ZERO)
    return out


def extend_pairs(table, offsets):
    """Copy the entry at each pair (a, b) onto the pairs of t-th extensions.

    ``offsets`` is a ``BratteliDiagram.children``/``descendants`` map: the
    extensions of id a are ``range(offsets[a], offsets[a+1])``.  Both ids of
    a pair end at one vertex, so their t-th extensions follow the same
    edges.
    """
    return {
        pair: val
        for (a, b), val in table.items()
        for pair in zip(range(offsets[a], offsets[a + 1]), range(offsets[b], offsets[b + 1]))
    }


def _merge(a, b, op):
    out = dict(a)
    for key, val in b.items():
        s = op(out.get(key, ZERO), val)
        if s:
            out[key] = s
        elif key in out:
            del out[key]
    return out


def add(a, b):
    """The entrywise sum of two sparse tables, zero cells dropped."""
    return _merge(a, b, Scalar.__add__)


def subtract(a, b):
    """The entrywise difference of two sparse tables, zero cells dropped."""
    return _merge(a, b, Scalar.__sub__)
