"""Locally constant functions on the path space, at finite resolution.

A cylinder function of level m assigns a scalar to every rooted path of
length m; it stands for the function on infinite paths that only looks at
the first m coordinates.  Tables are dense tuples in the canonical path
order, so two functions are equal exactly when, refined to a common level,
their tables match entrywise.
"""

from fractions import Fraction

from . import _exact
from .scalars import SCALAR_TYPES, as_scalar


class CylinderFunction:
    """A level-m function table over the canonical path enumeration.

    The table's exact integer form (see ``_exact``) is the only state.
    Arithmetic and equality work on the form; ``table`` and ``eval`` build
    Scalars each time they are read and keep none.
    """

    __slots__ = ("diagram", "level", "_form")

    def __init__(self, diagram, level, table):
        diagram._check_level(level)
        table = [as_scalar(x) for x in table]
        if len(table) != len(diagram.paths(level)):
            raise ValueError(
                "table has %d entries, level %d has %d paths" % (len(table), level, len(diagram.paths(level)))
            )
        self.diagram = diagram
        self.level = level
        self._form = _exact.form(table)

    @classmethod
    def _from_form(cls, diagram, level, form):
        # Internal fast path: the form has the right length, so skip the
        # constructor's coercion pass.
        f = object.__new__(cls)
        f.diagram = diagram
        f.level = level
        f._form = form
        return f

    @property
    def table(self):
        """The values as a tuple of Scalars, in canonical path order."""
        return _exact.scalar_table(self._form)

    def _exact_form(self, m=None):
        """The exact form, re-indexed to level m >= level when given."""
        if m is None or m == self.level:
            return self._form
        return _exact.reindex(self._form, self.diagram.prefix_ids(m, self.level))

    # -- structure -----------------------------------------------------------

    def refine(self, m):
        """The same function re-tabulated at a finer level m >= level."""
        if m < self.level:
            raise ValueError("cannot refine level %d down to %d" % (self.level, m))
        if m == self.level:
            return self
        return CylinderFunction._from_form(self.diagram, m, self._exact_form(m))

    def eval(self, path):
        """Value on any rooted path of length >= level (tails are immaterial)."""
        if len(path) < self.level:
            raise ValueError("path of length %d cannot determine a level-%d value" % (len(path), self.level))
        den, res, ims = self._form
        g = self.diagram.path_id(path.prefix(self.level))
        return _exact.scalar(den, res[g], ims[g])

    def _combined(self, other, op):
        """``op`` on the two operands' forms at their common level."""
        if isinstance(other, SCALAR_TYPES):
            other = constant(self.diagram, other)
        elif not isinstance(other, CylinderFunction):
            raise TypeError("expected a CylinderFunction, got %s" % type(other).__name__)
        elif other.diagram is not self.diagram:
            raise ValueError("operands live on different diagrams")
        m = max(self.level, other.level)
        return CylinderFunction._from_form(self.diagram, m, op(self._exact_form(m), other._exact_form(m)))

    # -- *-algebra operations --------------------------------------------------

    def __add__(self, other):
        return self._combined(other, _exact.combine)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combined(other, lambda f, g: _exact.combine(f, g, -1))

    def __rsub__(self, other):
        return self._combined(other, lambda f, g: _exact.combine(g, f, -1))

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return CylinderFunction._from_form(
                self.diagram, self.level, _exact.scale(as_scalar(other), self._form)
            )
        return self._combined(other, _exact.multiply)

    __rmul__ = __mul__

    def conjugate(self):
        den, res, ims = self._form
        return CylinderFunction._from_form(self.diagram, self.level, (den, res, [-y for y in ims]))

    def __eq__(self, other):
        if not isinstance(other, CylinderFunction):
            return NotImplemented
        if other.diagram is not self.diagram:
            return False
        m = max(self.level, other.level)
        return _exact.equal(self._exact_form(m), other._exact_form(m))

    # Equal functions may be tabulated at different levels, so no hash
    # of the table could agree with __eq__.
    __hash__ = None

    def is_zero(self):
        _, res, ims = self._form
        return not any(res) and not any(ims)

    def nnz(self):
        """The number of nonzero entries in the table."""
        _, res, ims = self._form
        return sum(1 for x, y in zip(res, ims) if x or y)

    # -- analysis ---------------------------------------------------------------

    def is_invariant(self, n):
        """Whether the function only depends on coordinates from n onward.

        Checked on the table refined to max(level, n): values must agree on
        every pair of paths in the same level-n tail class.
        """
        self.diagram._check_level(n)
        m = max(self.level, n)
        classes, _ = self.diagram.tail_classes(m, n)
        # Entries over one denominator are equal exactly when their numerators are.
        _, res, ims = self._exact_form(m)
        for cls in classes:
            first = cls[0]
            if any(res[g] != res[first] or ims[g] != ims[first] for g in cls[1:]):
                return False
        return True

    def sup_norm_sq(self):
        """Largest squared modulus over the table (a Fraction)."""
        den, res, ims = self._form
        return Fraction(max((x * x + y * y for x, y in zip(res, ims)), default=0), den * den)

    def __repr__(self):
        return "CylinderFunction(level=%d, %d entries, %d nonzero)" % (self.level, len(self._form[1]), self.nnz())


# -- constructors ---------------------------------------------------------------


def constant(diagram, value):
    """The constant function, tabulated at level 0."""
    return CylinderFunction(diagram, 0, (as_scalar(value),))


def indicator_path(diagram, path):
    """The indicator of all paths extending the given rooted path."""
    n = len(path)
    bits = [0] * len(diagram.paths(n))
    bits[diagram.path_id(path)] = 1
    return _indicator(diagram, n, bits)


def indicator_vertex(diagram, v):
    """The indicator of paths passing through vertex v, at level v.level."""
    diagram._check_vertex(v)
    return _indicator(diagram, v.level, [int(p.terminal() == v) for p in diagram.paths(v.level)])


def indicator_edge(diagram, edge):
    """The indicator of paths whose level-``edge.level`` coordinate is this edge."""
    n = edge.level + 1
    if n > diagram.depth:
        raise ValueError("edge %r exceeds depth %d" % (edge, diagram.depth))
    if edge not in diagram.edges_from(edge.source_vertex()):
        raise ValueError("%r is not an edge of this diagram" % (edge,))
    return _indicator(diagram, n, [int(p.edges[edge.level] == edge) for p in diagram.paths(n)])


def _indicator(diagram, level, bits):
    """The 0/1 function with the given list of ints as its table."""
    return CylinderFunction._from_form(diagram, level, (1, bits, [0] * len(bits)))
