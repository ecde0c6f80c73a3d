"""Locally constant functions on the path space, at finite resolution.

A cylinder function of level m assigns a scalar to every rooted path of
length m; it stands for the function on infinite paths that only looks at
the first m coordinates.  Tables are dense tuples in the canonical path
order, so two functions are equal exactly when, refined to a common level,
their tables match entrywise.
"""

from fractions import Fraction

from .scalars import Scalar, ZERO, ONE, as_scalar

_SCALAR_TYPES = (int, Fraction, Scalar)


class CylinderFunction:
    """A level-m function table over the canonical path enumeration."""

    __slots__ = ("diagram", "level", "table")

    def __init__(self, diagram, level, table):
        if not 0 <= level <= diagram.depth:
            raise ValueError("level %d out of range 0..%d" % (level, diagram.depth))
        table = tuple(as_scalar(x) for x in table)
        if len(table) != len(diagram.paths(level)):
            raise ValueError(
                "table has %d entries, level %d has %d paths" % (len(table), level, len(diagram.paths(level)))
            )
        self.diagram = diagram
        self.level = level
        self.table = table

    @classmethod
    def _wrap(cls, diagram, level, table):
        # Internal fast path: the table is already a tuple of Scalars of the
        # right length, so skip the constructor's coercion pass.
        f = object.__new__(cls)
        f.diagram = diagram
        f.level = level
        f.table = table
        return f

    # -- structure -----------------------------------------------------------

    def refine(self, m):
        """The same function re-tabulated at a finer level m >= level."""
        if m < self.level:
            raise ValueError("cannot refine level %d down to %d" % (self.level, m))
        if m == self.level:
            return self
        prefix = self.diagram.prefix_ids(m, self.level)
        return CylinderFunction._wrap(self.diagram, m, tuple(self.table[p] for p in prefix))

    def eval(self, path):
        """Value on any rooted path of length >= level (tails are immaterial)."""
        if len(path) < self.level:
            raise ValueError("path of length %d cannot determine a level-%d value" % (len(path), self.level))
        return self.table[self.diagram.path_id(path.prefix(self.level))]

    def _common(self, other):
        if not isinstance(other, CylinderFunction):
            raise TypeError("expected a CylinderFunction, got %s" % type(other).__name__)
        if other.diagram is not self.diagram:
            raise ValueError("operands live on different diagrams")
        m = max(self.level, other.level)
        return self.refine(m), other.refine(m)

    # -- *-algebra operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            other = constant(self.diagram, other)
        f, g = self._common(other)
        return CylinderFunction._wrap(
            f.diagram,
            f.level,
            tuple((a + b) if a and b else (a if not b else b) for a, b in zip(f.table, g.table)),
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __rsub__(self, other):
        return (-1) * self + other

    def __neg__(self):
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            c = as_scalar(other)
            return CylinderFunction._wrap(
                self.diagram, self.level, tuple(c * x if x else ZERO for x in self.table)
            )
        f, g = self._common(other)
        return CylinderFunction._wrap(
            f.diagram, f.level, tuple(a * b if a and b else ZERO for a, b in zip(f.table, g.table))
        )

    __rmul__ = __mul__

    def conjugate(self):
        return CylinderFunction._wrap(
            self.diagram, self.level, tuple(x.conjugate() for x in self.table)
        )

    def __eq__(self, other):
        if not isinstance(other, CylinderFunction):
            return NotImplemented
        if other.diagram is not self.diagram:
            return False
        f, g = self._common(other)
        return f.table == g.table

    # Equal functions may be tabulated at different levels, so no hash
    # of the table could agree with __eq__.
    __hash__ = None

    def is_zero(self):
        return not any(self.table)

    # -- analysis ---------------------------------------------------------------

    def is_invariant(self, n):
        """Whether the function only depends on coordinates from n onward.

        Checked on the table refined to max(level, n): values must agree on
        every pair of paths in the same level-n tail class.
        """
        if not 0 <= n <= self.diagram.depth:
            raise ValueError("level %d out of range 0..%d" % (n, self.diagram.depth))
        f = self.refine(max(self.level, n))
        classes, _ = self.diagram.tail_classes(f.level, n)
        for cls in classes:
            first = f.table[cls[0]]
            if any(f.table[g] != first for g in cls[1:]):
                return False
        return True

    def sup_norm_sq(self):
        """Largest squared modulus over the table (a Fraction)."""
        best = ZERO.abs_sq()
        for x in self.table:
            a = x.abs_sq()
            if a > best:
                best = a
        return best

    def __repr__(self):
        return "CylinderFunction(level=%d, %d entries)" % (self.level, len(self.table))


# -- constructors ---------------------------------------------------------------


def constant(diagram, value):
    """The constant function, tabulated at level 0."""
    return CylinderFunction(diagram, 0, (as_scalar(value),))


def indicator_path(diagram, path):
    """The indicator of all paths extending the given rooted path."""
    n = len(path)
    gid = diagram.path_id(path)
    table = [ZERO] * len(diagram.paths(n))
    table[gid] = ONE
    return CylinderFunction(diagram, n, table)


def indicator_vertex(diagram, v):
    """The indicator of paths passing through vertex v, at level v.level."""
    diagram._check_vertex(v)
    table = [ONE if p.terminal() == v else ZERO for p in diagram.paths(v.level)]
    return CylinderFunction(diagram, v.level, table)


def indicator_edge(diagram, edge):
    """The indicator of paths whose level-``edge.level`` coordinate is this edge."""
    n = edge.level + 1
    if n > diagram.depth:
        raise ValueError("edge %r exceeds depth %d" % (edge, diagram.depth))
    if edge not in diagram.edges_from(edge.source_vertex()):
        raise ValueError("%r is not an edge of this diagram" % (edge,))
    table = [ONE if p.edges[edge.level] == edge else ZERO for p in diagram.paths(n)]
    return CylinderFunction(diagram, n, table)
