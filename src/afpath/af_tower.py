"""Block-matrix stages of the path algebra and the embeddings between them.

Stage n is a direct sum, over the level-n vertices v, of full matrix
algebras of size #v (the number of rooted paths into v); rows and columns
are indexed by those paths in canonical order.  The stage-n to stage-(n+1)
embedding sends the elementary matrix at a path pair (z, h) to the sum over
outgoing edges e of the elementary matrix at (z.e, h.e), which realizes the
multiplicity matrix of the diagram.

An element is stored as one table of its nonzero entries keyed by pairs of
length-n path ids, the keys a support-n kernel uses, so ``represent`` is
the identity on tables.  Both ids of a key end at one vertex; the block
sizes are those dictated by the diagram, and ``blocks`` gives the
per-vertex view with positions inside each block.
"""

import math
from fractions import Fraction
from itertools import repeat

from . import _exact
from .diagram import Vertex
from .scalars import SCALAR_TYPES, ZERO, as_scalar


class AfElement(_exact.PairTable):
    """One element of the stage-n block-matrix algebra.

    Every operation works on the table's exact row index (see
    ``_exact.PairTable``).
    """

    __slots__ = ("diagram", "level")

    def __init__(self, diagram, level, blocks):
        diagram._check_level(level)
        groups = diagram.block_paths(level)
        if len(blocks) != len(groups):
            raise ValueError("expected %d blocks, got %d" % (len(groups), len(blocks)))
        table = {}
        for v, (gids, block) in enumerate(zip(groups, blocks)):
            size = len(gids)
            for (i, j), val in block.items():
                if not 0 <= i < size or not 0 <= j < size:
                    raise ValueError("entry (%d,%d) outside block %d of size %d" % (i, j, v, size))
                val = as_scalar(val)
                if val:
                    table[(gids[i], gids[j])] = val
        self.diagram = diagram
        self.level = level
        self._index = _exact.index(table)

    # -- constructors --------------------------------------------------------

    @classmethod
    def _from_index(cls, diagram, level, index):
        # Internal fast path: the index holds only pairs of same-terminal
        # path ids, so skip the validation pass.
        x = object.__new__(cls)
        x.diagram = diagram
        x.level = level
        x._index = index
        return x

    @classmethod
    def zero(cls, diagram, level):
        diagram._check_level(level)
        return cls._from_index(diagram, level, _exact.EMPTY)

    @classmethod
    def identity(cls, diagram, level):
        count = len(diagram.terminals(level))
        return cls._from_index(diagram, level, _exact.identity_on(range(count)))

    # -- block access ----------------------------------------------------------

    @property
    def blocks(self):
        """Per-vertex dicts keyed by (row, column) positions inside each block."""
        pos = self.diagram.block_pos(self.level)
        out = [{} for _ in self.diagram.block_paths(self.level)]
        for (a, b), val in self.table.items():
            v, i = pos[a]
            out[v][(i, pos[b][1])] = val
        return tuple(out)

    def block_size(self, v):
        self.diagram._check_vertex(Vertex(self.level, v))
        return len(self.diagram.block_paths(self.level)[v])

    def entry(self, gamma, delta):
        """The coefficient at a pair of length-n paths (zero across blocks)."""
        if len(gamma) != self.level or len(delta) != self.level:
            raise ValueError("entry needs two paths of length %d" % self.level)
        d = self.diagram
        return self._at(d.path_id(gamma), d.path_id(delta))

    def nonzero_entries(self):
        """Yield (vertex index, row path, col path, value) in canonical order."""
        d = self.diagram
        paths = d.paths(self.level)
        groups = d.block_paths(self.level)
        for v, block in enumerate(self.blocks):
            for (i, j) in sorted(block):
                yield v, paths[groups[v][i]], paths[groups[v][j]], block[(i, j)]

    def dense_block(self, v):
        """Materialize block v as a list of lists of Scalars."""
        size = self.block_size(v)
        rows = [[ZERO] * size for _ in range(size)]
        for (i, j), val in self.blocks[v].items():
            rows[i][j] = val
        return rows

    def trace_block(self, v):
        self.diagram._check_vertex(Vertex(self.level, v))
        den, rows = self._index
        terminals = self.diagram.terminals(self.level)
        total_re = total_im = 0
        for a, (cols, res, ims) in rows.items():
            if terminals[a] == v and a in cols:
                k = cols.index(a)
                total_re += res[k]
                total_im += ims[k]
        return _exact.scalar(den, total_re, total_im)

    # -- *-algebra operations (the rest are shared on _exact.PairTable) --------

    def _like(self, index):
        return AfElement._from_index(self.diagram, self.level, index)

    def _aligned(self, other):
        if not isinstance(other, AfElement):
            raise TypeError("expected an AfElement, got %s" % type(other).__name__)
        if other.diagram is not self.diagram:
            raise ValueError("operands live on different diagrams")
        if other.level != self.level:
            raise ValueError("operands live at different levels (%d vs %d)" % (self.level, other.level))
        return self, other

    def __mul__(self, other):
        # A table operand is tested first: the Fraction in SCALAR_TYPES would
        # cost every product an ABC instance check.
        if not isinstance(other, AfElement) and isinstance(other, SCALAR_TYPES):
            return super().__mul__(other)
        f, g = self._aligned(other)
        return f._like(_exact.product(f._index, g._index))

    # -- the tower --------------------------------------------------------------

    def embed(self):
        """The canonical inclusion of stage n into stage n+1."""
        return self.embed_to(self.level + 1)

    def embed_to(self, m):
        """The inclusion of stage n into stage m >= n, as one extension of the table."""
        d = self.diagram
        if m < self.level:
            raise ValueError("cannot embed level %d down to %d" % (self.level, m))
        if m > d.depth:
            raise ValueError("cannot embed past the truncation depth %d" % d.depth)
        return AfElement._from_index(d, m, _exact.extend_index(self._index, d.descendants(self.level, m)))

    def __repr__(self):
        return "AfElement(level=%d, %d blocks, %d nonzero entries)" % (
            self.level,
            len(self.diagram.block_paths(self.level)),
            self.nnz(),
        )


def matrix_unit(diagram, gamma, delta):
    """The elementary matrix at a pair of equal-length, same-terminal paths."""
    if len(gamma) != len(delta):
        raise ValueError("paths have different lengths %d and %d" % (len(gamma), len(delta)))
    if gamma.terminal() != delta.terminal():
        raise ValueError(
            "paths end at different vertices %r and %r" % (gamma.terminal(), delta.terminal())
        )
    d = diagram
    return AfElement._from_index(d, len(gamma), _exact.unit(d.path_id(gamma), d.path_id(delta)))


def represent_cylinder(f):
    """A level-m cylinder function as the diagonal matrix of its table."""
    return AfElement._from_index(f.diagram, f.level, _exact.diagonal(f._exact_form()))


def jones_projection(diagram, n, m=None):
    """The averaging projection at level n, included into stage m.

    At its own level it is blockwise the rank-one projection onto the
    uniform vector: every entry of block v equals 1/#v, so the paths of a
    block share one row.  In stage m it is that index extended by
    ``embed_to(m)``: the row of a path holds 1/#v at each path of its
    level-n tail class, and ``extend_index`` copies each shared row once
    per extension, so the members of a class share one row object.  The
    build costs one entry per level-m path plus one list per class.
    """
    d = diagram
    if m is None:
        m = n
    if not 0 <= n <= m <= d.depth:
        raise ValueError("need 0 <= n <= m <= depth, got n=%d m=%d" % (n, m))

    def build():
        if m > n:
            return _exact.extend_index(jones_projection(d, n)._index, d.descendants(n, m))
        # Over the common denominator L, every entry of block v is L / #v.
        blocks = list(filter(None, d.block_paths(n)))
        den = math.lcm(*map(len, blocks))
        rows = {}
        for gids in blocks:
            size = len(gids)
            rows.update(zip(gids, repeat((list(gids), [den // size] * size, [0] * size))))
        return _exact.indexed(den, rows)

    # The memo holds the row index only: an element would point back to the
    # diagram through ``.diagram``, so a dead diagram would wait for the
    # cyclic collector instead of being freed by reference counting.
    return AfElement._from_index(d, m, d.memo(("jones_projection", n, m), build))


def toeplitz_word(diagram, gamma, delta, m=None):
    """The word #r(gamma) * rho(I_gamma) * e_n * rho(I_delta) in stage m.

    For same-terminal pairs this recovers the elementary matrix at
    (gamma, delta); for mismatched terminals it collapses to zero.
    """
    if len(gamma) != len(delta):
        raise ValueError("paths have different lengths %d and %d" % (len(gamma), len(delta)))
    n = len(gamma)
    d = diagram
    if m is None:
        m = n
    if not n <= m <= d.depth:
        raise ValueError("need n <= m <= depth, got n=%d m=%d" % (n, m))
    # rho(I_gamma) in stage m: the 0/1 diagonal on gamma's extensions.
    desc = d.descendants(n, m)
    left, right = (
        AfElement._from_index(d, m, _exact.identity_on(range(desc[g], desc[g + 1])))
        for g in (d.path_id(gamma), d.path_id(delta))
    )
    e_n = jones_projection(d, n, m)
    return d.path_count(gamma.terminal()) * (left * e_n * right)


def jones_refinement_check(diagram, n, m):
    """Verify the one-step expansion of the averaging projection.

    The level-n projection must equal the sum over length-(n+1) paths g of
    (#r(g) / #r(g')^2) * rho(J) * e_{n+1} * rho(J), where g' drops the last
    edge of g and J is the indicator of that edge.  Everything is computed
    in stage m >= n+1; returns True when the two sides agree exactly.
    """
    from .cylinder import indicator_edge

    d = diagram
    if not 0 <= n < m <= d.depth:
        raise ValueError("need 0 <= n < m <= depth, got n=%d m=%d" % (n, m))
    lhs = jones_projection(d, n, m)
    e_next = jones_projection(d, n + 1, m)
    # The summand depends on g only through its last edge, and #r(g') paths
    # g end in each edge, so the weights of one edge sum to #r(g) / #r(g').
    total = AfElement.zero(d, m)
    for v in d.vertices(n):
        for last in d.edges_from(v):
            weight = Fraction(d.path_count(last.target_vertex()), d.path_count(v))
            side = represent_cylinder(indicator_edge(d, last).refine(m))
            total = total + weight * (side * e_next * side)
    return lhs == total


def dimension_vector(diagram, n):
    """Block sizes at stage n and the total dimension sum of squares."""
    diagram._check_level(n)
    sizes = diagram._level_counts()[n]
    return sizes, sum(s * s for s in sizes)


def embed_multiplicities(diagram, n):
    """The multiplicity matrix the stage-n embedding actually realizes.

    Entry (v, w) counts how many copies of block v land inside block w one
    level down, measured as the trace of the embedded diagonal elementary
    matrix.  For a valid diagram this reproduces the incidence matrix.

    Each unit sits at the first path into its vertex, and everything is
    computed per path id: the unit's two offsets rank the first extensions
    of its id and the next, on ``(level, source, target, copy)`` steps, and
    each row of the image reads its terminal from the vertex's out-edges.
    So no level table and no path object is built, and the cost grows with
    the depth times the vertices, not with the number of paths.
    """
    d = diagram
    if not 0 <= n < d.depth:
        raise ValueError("level %d has no embedding (depth %d)" % (n, d.depth))
    count_n, count_next = map(sum, d._level_counts()[n : n + 2])
    width = d.vertex_counts[n + 1]
    rows = []
    for v, steps in enumerate(d._first_paths(n)):
        if steps is None:
            raise ValueError("no path reaches %r" % (Vertex(n, v),))
        first = d._rank(n, steps)
        after = d._rank(n + 1, d._unrank(n, first + 1)) if first + 1 < count_n else count_next
        start = d._rank(n + 1, steps)
        den, image = _exact.extend_index(_exact.unit(first, first), {first: start, first + 1: after})
        # Extension t of the first path into v follows v's t-th out-edge.  A
        # row past v's out-degree, which only a wrong rank makes, is unranked.
        targets = [j for j, x in d._rows[n][v] for _ in range(x)]
        # The diagonal of the image, summed by the terminal of each row.
        res, ims = [0] * width, [0] * width
        for a, (cols, re, im) in image.items():
            if a in cols:
                k = cols.index(a)
                t = a - start
                w = targets[t] if t < len(targets) else d._terminal_at(n + 1, a)
                res[w] += re[k]
                ims[w] += im[k]
        # An extended unit keeps the unit's denominator 1.
        if den != 1 or any(ims):
            raise AssertionError("non-integral multiplicity trace in row %d" % v)
        rows.append(tuple(res))
    return tuple(rows)
