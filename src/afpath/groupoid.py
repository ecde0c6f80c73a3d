"""Convolution algebra of finitely supported kernels on tail pairs.

A kernel with support level n and table level m >= n assigns scalars to
admissible pairs of length-m paths: pairs that carry the same edges from
coordinate n on and end at the same vertex.  Such a pair stands for the
cylinder of tail-equivalent infinite path pairs it determines.  Convolution
sums over the middle path, involution flips and conjugates, and widening
re-tabulates a kernel at a coarser support or finer table level without
changing the function it represents.
"""

from . import _exact
from .scalars import SCALAR_TYPES, as_scalar
from .af_tower import _jones_index
from .cylinder import constant


def _check_levels(diagram, support_level, table_level):
    if not 0 <= support_level <= table_level <= diagram.depth:
        raise ValueError("need 0 <= support <= table <= depth, got %d, %d" % (support_level, table_level))


class GroupoidFunction(_exact.PairTable):
    """A finitely supported kernel on level-n tail pairs, tabulated at level m.

    Every operation works on the table's exact row index (see
    ``_exact.PairTable``).
    """

    __slots__ = ("diagram", "support_level", "table_level")

    def __init__(self, diagram, support_level, table_level, table):
        d = diagram
        _check_levels(d, support_level, table_level)
        _, class_of = d.tail_classes(table_level, support_level)
        count = len(d.terminals(table_level))
        clean = {}
        for (a, b), val in table.items():
            if not (0 <= a < count and 0 <= b < count):
                raise ValueError("pair (%d,%d) outside the level-%d enumeration" % (a, b, table_level))
            if class_of[a] != class_of[b]:
                raise ValueError(
                    "pair (%d,%d) is not admissible at support level %d" % (a, b, support_level)
                )
            val = as_scalar(val)
            if val:
                clean[(a, b)] = val
        self.diagram = d
        self.support_level = support_level
        self.table_level = table_level
        self._index = _exact.index(clean)

    # -- structure ---------------------------------------------------------------

    @classmethod
    def _from_index(cls, diagram, support_level, table_level, index):
        # Internal fast path: the index holds only admissible pairs, so skip
        # the constructor's validation pass.
        x = object.__new__(cls)
        x.diagram = diagram
        x.support_level = support_level
        x.table_level = table_level
        x._index = index
        return x

    @classmethod
    def zero(cls, diagram, support_level=0, table_level=None):
        if table_level is None:
            table_level = support_level
        # The empty table reads no level table: only the levels are checked.
        _check_levels(diagram, support_level, table_level)
        return cls._from_index(diagram, support_level, table_level, _exact.EMPTY)

    def entries(self):
        """Yield (row path, col path, value) sorted by the canonical pair order."""
        paths = self.diagram.paths(self.table_level)
        table = self.table
        for (a, b) in sorted(table):
            yield paths[a], paths[b], table[(a, b)]

    def value(self, alpha, beta):
        """The tabulated value at a pair of length-``table_level`` paths."""
        if len(alpha) != self.table_level or len(beta) != self.table_level:
            raise ValueError("value needs two paths of length %d" % self.table_level)
        d = self.diagram
        return self._at(d.path_id(alpha), d.path_id(beta))

    def widen(self, support_level, table_level):
        """Re-tabulate with a coarser support and/or finer table level.

        Every entry is copied onto all of its common continuations; pairs
        newly admissible at the coarser support stay zero, which is exactly
        what the represented function does off the original support.
        """
        if support_level == self.support_level and table_level == self.table_level:
            return self
        d = self.diagram
        if support_level < self.support_level:
            raise ValueError(
                "support level can only grow (%d -> %d)" % (self.support_level, support_level)
            )
        if table_level < self.table_level:
            raise ValueError(
                "table level can only grow (%d -> %d)" % (self.table_level, table_level)
            )
        if not support_level <= table_level <= d.depth:
            raise ValueError(
                "need support <= table <= depth, got %d, %d" % (support_level, table_level)
            )
        if table_level == self.table_level:
            # A coarser support keeps every pair admissible at the same ids.
            return GroupoidFunction._from_index(d, support_level, table_level, self._index)
        # An admissible pair ends at one vertex, so its t-th extensions
        # follow the same segment and stay admissible.
        return GroupoidFunction._from_index(
            d,
            support_level,
            table_level,
            _exact.extend_index(self._index, d.descendants(self.table_level, table_level)),
        )

    # -- *-algebra operations (the rest are shared on _exact.PairTable) ------------

    def _like(self, index):
        return GroupoidFunction._from_index(self.diagram, self.support_level, self.table_level, index)

    def _aligned(self, other):
        if not isinstance(other, GroupoidFunction):
            raise TypeError("expected a GroupoidFunction, got %s" % type(other).__name__)
        if other.diagram is not self.diagram:
            raise ValueError("operands live on different diagrams")
        if self.support_level == other.support_level and self.table_level == other.table_level:
            return self, other
        n = max(self.support_level, other.support_level)
        m = max(self.table_level, other.table_level)
        return self.widen(n, m), other.widen(n, m)

    # The benchmark's tracer (afbench/tracing.py) calls the hook by this name.
    _common = _aligned

    def __mul__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return super().__mul__(other)
        raise TypeError("use convolve (or @) for kernel products, * for scalars")

    def __matmul__(self, other):
        return convolve(self, other)

    def __repr__(self):
        return "GroupoidFunction(support=%d, table=%d, %d entries)" % (
            self.support_level,
            self.table_level,
            self.nnz(),
        )


def convolve(F, G):
    """Kernel product: (F * G)(a, b) = sum over middle paths c of F(a,c) G(c,b)."""
    F2, G2 = F._aligned(G)
    return F2._like(_exact.product(F2._index, G2._index))


def diag(f):
    """A cylinder function as the diagonal kernel at its own table level."""
    return GroupoidFunction._from_index(f.diagram, 0, f.level, _exact.diagonal(f._exact_form()))


def jones_kernel(diagram, n):
    """The level-n averaging projection as a kernel: 1/#v on every
    same-terminal pair of length-n paths."""
    diagram._check_level(n)
    # The kernel wraps the projection's memoized row index.
    return GroupoidFunction._from_index(diagram, n, n, _jones_index(diagram, n, n))


def represent(x):
    """A stage-n block matrix as a kernel on length-n tail pairs.

    Each elementary matrix at a pair (gamma, delta) maps to the generator
    word #r(gamma) * diag(I_gamma) @ jones_kernel(n) @ diag(I_delta).  The
    diagonal factors pick out the single kernel entry at (gamma, delta),
    whose value 1/#r(gamma) cancels the normalization, so the word is the
    point mass at that pair.  Both algebras key their tables by path-id
    pairs, so the map keeps the row index as it is.  (The ``word_kernel``
    form below keeps the defining product available for cross-checking.)
    """
    return GroupoidFunction._from_index(x.diagram, x.level, x.level, x._index)


def word_kernel(diagram, gamma, delta):
    """The defining generator word, computed by actual convolutions.

    Evaluates #r(gamma) * diag(I_gamma) @ jones_kernel(n) @ diag(I_delta)
    literally; ``represent`` of the corresponding elementary matrix must
    agree with it, which the verification suites check.  The paths are
    ranked once and the word is taken on their ids.
    """
    d = diagram
    if len(gamma) != len(delta):
        raise ValueError("paths have different lengths %d and %d" % (len(gamma), len(delta)))
    d._check_level(len(gamma))
    return _word_kernel(d, d.path_id(gamma), d.path_id(delta), len(gamma))


def _word_kernel(d, g, h, n):
    """``word_kernel`` of the length-n path ids g and h, on row indexes: diag(I_g) is the unit at (g, g)."""
    word = _exact.product(_exact.product(_exact.unit(g, g), _jones_index(d, n, n)), _exact.unit(h, h))
    count = d._level_counts()[n][d.terminals(n)[g]]
    return GroupoidFunction._from_index(d, n, n, _exact.scale_index(count, word))


def vanishing_check(F, m):
    """Hunt for a peaked product separating F from zero.

    Multiplies F, tabulated at level m, by diag(I_eta) @
    jones_kernel(support) for the rooted length-m paths eta in increasing
    id order.  F @ diag(I_eta) is column eta of F, so only the ids of F's
    nonzero columns are visited: every other product is empty.  Each
    visit is two products of row indexes, with no kernel built.  Returns
    True when F is zero (there is no column to visit); otherwise returns
    the first visited eta whose product is nonzero.  A nonzero F with no
    witness would contradict the kernel lemma, so that state raises.
    """
    d = F.diagram
    n = F.support_level
    if not F.table_level <= m <= d.depth:
        raise ValueError("need table_level <= m <= depth, got m=%d" % m)
    Fw = F.widen(n, m)._index
    jkw = jones_kernel(d, n).widen(n, m)._index
    for eta in sorted({j for cols, _, _ in Fw[1].values() for j in cols}):
        if _exact.product(_exact.product(Fw, _exact.unit(eta, eta)), jkw)[1]:
            return d._path_at(m, eta)
    if Fw[1]:
        raise AssertionError("nonzero kernel produced no witness; the peaked-product lemma failed")
    return True


def unit_kernel(diagram):
    """The convolution unit: the diagonal kernel of the constant 1."""
    return diag(constant(diagram, 1))
