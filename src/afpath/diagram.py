"""Truncated layered multigraphs and their rooted-path combinatorics.

A diagram of depth D consists of vertex counts c0..cD (c0 = 1, a single
root) and, for each level n < D, a cn x c(n+1) matrix of edge
multiplicities.  Enumeration orders are fixed once and for all: edges sort
by (level, source, target, copy) and paths lexicographically by their edge
sequences.  Every table built on top of a diagram -- function tables, block
matrices, convolution kernels -- is indexed by these canonical orders, which
is what makes byte-level determinism possible downstream.
"""

from itertools import accumulate, chain, repeat
from operator import itemgetter, sub
from typing import NamedTuple


class DepthExhaustedError(ValueError):
    """Raised when an operation needs edges past the truncation depth."""


class DiagramParseError(ValueError):
    """Raised on malformed diagram files; carries the offending line number."""

    def __init__(self, lineno, message):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


class Vertex(NamedTuple):
    level: int
    index: int

    def __repr__(self):
        return "Vertex(%d, %d)" % (self.level, self.index)


class Edge(NamedTuple):
    """One edge from vertex (level, source) to vertex (level+1, target).

    Parallel edges are distinguished by ``copy`` in 0..multiplicity-1.
    """

    level: int
    source: int
    target: int
    copy: int

    def source_vertex(self):
        return Vertex(self.level, self.source)

    def target_vertex(self):
        return Vertex(self.level + 1, self.target)

    def __repr__(self):
        return "Edge(%d: %d>%d#%d)" % (self.level, self.source, self.target, self.copy)


def _check_chain(edges, start_level, start_index):
    level, index = start_level, start_index
    for e in edges:
        if e.level != level or e.source != index:
            raise ValueError("edge %r does not chain at level %d vertex %d" % (e, level, index))
        level, index = level + 1, e.target


class FinitePath(tuple):
    """A rooted path: the tuple of its edges, chained from the level-0 root.

    Edge k of a rooted path sits at level k, so tuple order is the
    canonical path order."""

    __slots__ = ()

    def __new__(cls, edges=()):
        edges = tuple(edges)
        _check_chain(edges, 0, 0)
        return super().__new__(cls, edges)

    @property
    def edges(self):
        """The edges as a plain tuple, which ``path_id`` rejects."""
        return tuple(self)

    def terminal(self):
        """The vertex this path ends at (the root for the empty path)."""
        if not self:
            return Vertex(0, 0)
        return self[-1].target_vertex()

    def vertex_at(self, k):
        """The vertex the path passes through at level k (0 <= k <= len)."""
        if k == len(self):
            return self.terminal()
        return self[k].source_vertex()

    def prefix(self, k):
        return FinitePath(self[:k])

    def extend(self, edge):
        _check_chain((edge,), *self.terminal())
        return tuple.__new__(FinitePath, (*self, edge))

    def followed_by(self, segment):
        if segment.start != self.terminal():
            raise ValueError("segment starts at %r, path ends at %r" % (segment.start, self.terminal()))
        return FinitePath(self + segment.edges)

    def __repr__(self):
        return "FinitePath(%s)" % format_path(self)


class PathSegment:
    """A chained edge sequence starting at an arbitrary vertex."""

    __slots__ = ("start", "edges")

    def __init__(self, start, edges=()):
        edges = tuple(edges)
        _check_chain(edges, start.level, start.index)
        self.start = start
        self.edges = edges

    def __len__(self):
        return len(self.edges)

    def end(self):
        if not self.edges:
            return self.start
        return self.edges[-1].target_vertex()

    def extend(self, edge):
        return PathSegment(self.start, self.edges + (edge,))

    def __eq__(self, other):
        if isinstance(other, PathSegment):
            return self.start == other.start and self.edges == other.edges
        return NotImplemented

    def __hash__(self):
        return hash((self.start, self.edges))

    def __repr__(self):
        return "PathSegment(%r, %s)" % (self.start, format_path(self))


def format_path(path):
    """Serialize a path as ``s>r#k;...`` per edge, or ``()`` when empty."""
    edges = path.edges if hasattr(path, "edges") else tuple(path)
    if not edges:
        return "()"
    return ";".join("%d>%d#%d" % (e.source, e.target, e.copy) for e in edges)


def _int_row(row):
    """A row as a tuple of ``int``; a row that already is one is kept as is."""
    if type(row) is tuple and set(map(type, row)) == {int}:
        return row
    return tuple(map(int, row))


def _dense_row(pairs, width):
    """A row of ``(column, multiplicity)`` pairs written out with its zeros."""
    row = [0] * width
    for j, x in pairs:
        row[j] = x
    return tuple(row)


class BratteliDiagram:
    """Vertex counts plus per-level multiplicity matrices, depth >= 1.

    Each row is stored as the ``(column, multiplicity)`` pairs of its
    nonzero entries, in column order; validation, counts, terminals and
    edges loop over these, never over the zeros.  ``incidence`` is a dense
    view of the same matrices, built on first read.

    Instances are immutable after construction (internal memo tables are
    filled lazily but never change a result).  Diagrams compare by identity;
    all functions operating on several objects require them to share one
    diagram instance.
    """

    def __init__(self, vertex_counts, incidence):
        counts = tuple(int(c) for c in vertex_counts)
        matrices = tuple(tuple(_int_row(row) for row in mat) for mat in incidence)
        if len(matrices) < 1:
            raise ValueError("diagram needs depth >= 1")
        if len(counts) != len(matrices) + 1:
            raise ValueError(
                "got %d vertex counts for %d incidence matrices" % (len(counts), len(matrices))
            )
        if any(c < 0 for c in counts):
            raise ValueError("vertex counts must be nonnegative")
        for n, mat in enumerate(matrices):
            if len(mat) != counts[n]:
                raise ValueError("incidence %d has %d rows, expected %d" % (n, len(mat), counts[n]))
            for row in mat:
                if len(row) != counts[n + 1]:
                    raise ValueError(
                        "incidence %d has a row of width %d, expected %d" % (n, len(row), counts[n + 1])
                    )
        nonzero = itemgetter(1)
        rows = tuple(tuple(tuple(filter(nonzero, enumerate(row))) for row in mat) for mat in matrices)
        self._init(counts, rows, matrices)

    @classmethod
    def _from_rows(cls, vertex_counts, rows):
        """A diagram from its rows of nonzero pairs, trusted as well formed."""
        d = object.__new__(cls)
        d._init(tuple(vertex_counts), tuple(rows), None)
        return d

    def _init(self, counts, rows, dense):
        self.vertex_counts = counts
        self.depth = len(rows)
        self._rows = rows
        self._dense = dense
        self._memo = {}

    @property
    def incidence(self):
        """The multiplicity matrices as tuples of dense row tuples (read only)."""
        if self._dense is None:
            self._dense = tuple(self._dense_level(n) for n in range(self.depth))
        return self._dense

    def _dense_level(self, n):
        # One level's dense rows, without building the others.
        if self._dense is not None:
            return self._dense[n]
        width = self.vertex_counts[n + 1]
        return tuple(_dense_row(pairs, width) for pairs in self._rows[n])

    # -- structure ---------------------------------------------------------

    def memo(self, key, build):
        """Lazily computed, instance-scoped cache (safe for concurrent reads)."""
        try:
            return self._memo[key]
        except KeyError:
            value = build()
            self._memo[key] = value
            return value

    def vertex_count(self, level):
        self._check_level(level)
        return self.vertex_counts[level]

    def vertices(self, level):
        self._check_level(level)
        return tuple(Vertex(level, i) for i in range(self.vertex_counts[level]))

    def _check_level(self, level):
        if not 0 <= level <= self.depth:
            raise ValueError("level %d out of range 0..%d" % (level, self.depth))

    def _check_vertex(self, v):
        self._check_level(v.level)
        if not 0 <= v.index < self.vertex_counts[v.level]:
            raise ValueError("%r does not exist (level has %d vertices)" % (v, self.vertex_counts[v.level]))

    def validate(self):
        """Check the diagram axioms; returns a list of violation strings.

        An empty list means the diagram is valid.  Conditions are named by
        letter: (a) every level nonempty, (c) multiplicities nonnegative,
        (d) a single root, (e) every vertex below the last level emits an
        edge, (f) every vertex above the root receives one.
        """
        found = []
        if self.vertex_counts[0] != 1:
            found.append("(d) level=0: expected exactly one root vertex, got %d" % self.vertex_counts[0])
        for n, c in enumerate(self.vertex_counts):
            if c == 0:
                found.append("(a) level=%d: level is empty" % n)
        column, multiplicity = itemgetter(0), itemgetter(1)
        for n, level in enumerate(self._rows):
            # The edges are scanned in C; Python loops run over the vertices
            # of a level only when it has a violation.  A level with a
            # non-positive entry reports its (c) lines first and keeps only
            # its positive pairs for (e) and (f).
            if min(map(multiplicity, chain.from_iterable(level)), default=1) < 1:
                for i, pairs in enumerate(level):
                    found += ["(c) level=%d edge (%d->%d): negative multiplicity %d" % (n, i, j, x)
                              for j, x in pairs if x < 0]
                level = [[p for p in pairs if p[1] > 0] for pairs in level]
            if not all(level):
                found += ["(e) level=%d vertex=%d: no outgoing edge" % (n, i)
                          for i, pairs in enumerate(level) if not pairs]
            fed = set(map(column, chain.from_iterable(level)))
            if len(fed) < self.vertex_counts[n + 1]:
                found += ["(f) level=%d vertex=%d: no incoming edge" % (n + 1, j)
                          for j in range(self.vertex_counts[n + 1]) if j not in fed]
        return found

    # -- edges and paths ----------------------------------------------------

    def edges_from(self, v):
        """Outgoing edges of v in canonical (target, copy) order."""
        self._check_vertex(v)
        if v.level == self.depth:
            raise DepthExhaustedError(
                "vertex %r sits at the truncation depth %d; no edges stored beyond it" % (v, self.depth)
            )
        def build():
            pairs = self._rows[v.level][v.index]
            return tuple(Edge(v.level, v.index, j, k) for j, x in pairs for k in range(x))
        return self.memo(("edges_from", v.level, v.index), build)

    def path_count(self, v):
        """Number of rooted paths ending at v, by the multiplicity recursion."""
        self._check_vertex(v)
        return self._level_counts()[v.level][v.index]

    def _count_levels(self):
        """Each level's tuple of per-vertex path counts, from the root down.

        One loop down the diagram, so a deep diagram never recurses per
        level; a caller that reads one level at a time holds only that one.
        """
        counts = (1,) * self.vertex_counts[0]
        yield counts
        for level, width in zip(self._rows, self.vertex_counts[1:]):
            out = [0] * width
            for c, pairs in zip(counts, level):
                for j, x in pairs:
                    out[j] += c * x
            counts = tuple(out)
            yield counts

    def _level_counts(self):
        return self.memo(("counts",), lambda: tuple(self._count_levels()))

    def _upward(self, kind, n, root, step):
        """The memoized level-n tuple of ``kind``: ``root()`` builds level 0
        and ``step(k, prev)`` level k+1.  One loop resumes from the deepest
        level already built, so a deep diagram never recurses per level."""
        out = self._memo.get((kind, n))
        if out is not None:
            return out
        self._check_level(n)
        k = n
        while k and (kind, k) not in self._memo:
            k -= 1
        out = self.memo((kind, k), root)
        for k in range(k, n):
            out = self.memo((kind, k + 1), lambda: step(k, out))
        return out

    def paths(self, n):
        """All rooted paths of length n, lexicographically by edge sequence."""
        def step(k, prev):
            return tuple(p.extend(e) for p in prev for e in self.edges_from(p.terminal()))
        return self._upward("paths", n, lambda: (FinitePath(()),), step)

    def terminals(self, n):
        """The terminal-vertex index of each length-n path id, as a tuple.

        Edges leave a vertex in (target, copy) order, so the extensions of a
        path into vertex t end at each j, ``incidence[k][t][j]`` times in a row.
        """
        def step(k, prev):
            targets = [[j for j, x in pairs for _ in range(x)] for pairs in self._rows[k]]
            return tuple(chain.from_iterable(map(targets.__getitem__, prev)))
        return self._upward("terminals", n, lambda: (0,), step)

    def path_id(self, path):
        """Position of a rooted path within the canonical enumeration, ranked
        in O(length x out-degree) steps: no path is built, nothing but the
        downward counts is memoized.  Raises ValueError for a path longer than
        the depth and for anything but a ``FinitePath`` of this diagram."""
        return self._rank(len(path), self._rooted(path))

    @staticmethod
    def _rooted(path):
        # Only a FinitePath's edges are known to chain from the root, which
        # _rank does not check.
        if not isinstance(path, FinitePath):
            raise ValueError("%r is not a path of this diagram" % (path,))
        return path

    def segments(self, v, w):
        """All segments from v to w, ordered like the path enumeration."""
        self._check_vertex(v)
        self._check_vertex(w)
        if w.level < v.level:
            raise ValueError("segment target %r sits above source %r" % (w, v))
        def build():
            frontier = [PathSegment(v, ())]
            for _ in range(w.level - v.level):
                frontier = [s.extend(e) for s in frontier for e in self.edges_from(s.end())]
            return tuple(s for s in frontier if s.end() == w)
        return self.memo(("segments", v, w), build)

    def _down_counts(self, n, m):
        """Per level k = n..m, the paths from each level-k vertex down to level m.

        Each level is a list: ``map(list.__getitem__, ...)`` runs in C, where
        a tuple's ``__getitem__`` is a slower slot wrapper."""
        down = [[1] * self.vertex_counts[m]]
        for level in reversed(self._rows[n:m]):
            down.append([sum(x * down[-1][j] for j, x in pairs) for pairs in level])
        return down[::-1]

    def _unrank(self, m, gid):
        """The length-m path with id gid as ``(level, source, target, copy)``
        tuples, without enumerating level m: from the root, each edge covers
        as many ids as there are paths from its target down to level m."""
        self._check_level(m)
        down = self.memo(("down_counts", m), lambda: self._down_counts(0, m))
        if not 0 <= gid < down[0][0]:
            raise ValueError("path id %d out of range for level %d" % (gid, m))
        steps, v = [], 0
        for k in range(m):
            for j, x in self._rows[k][v]:
                size = down[k + 1][j]
                if gid < x * size:
                    break
                gid -= x * size
            steps.append((k, v, j, gid // size))
            gid, v = gid % size, j
        return steps

    def _path_at(self, m, gid):
        """The length-m path with id gid (see ``_unrank``)."""
        return FinitePath(map(Edge._make, self._unrank(m, gid)))

    def _terminal_at(self, m, gid):
        """The terminal-vertex index of the length-m path with id gid."""
        steps = self._unrank(m, gid)
        return steps[-1][2] if steps else 0

    def _rank(self, m, path):
        """The level-m id of the first length-m extension of n <= m edges
        chained from the root, the inverse of ``_unrank`` at m = n: each edge
        skips the ids of the edges before it, as many per edge as there are
        paths from its target down to level m.  The edges may be ``Edge``s
        or ``_unrank``'s plain steps; only the chaining is left to the
        caller (``_rooted``)."""
        self._check_level(m)
        if len(path) > m:
            raise ValueError("a path of length %d has no extension to level %d" % (len(path), m))
        down = self.memo(("down_counts", m), lambda: self._down_counts(0, m))
        gid = 0
        for level, source, target, copy in path:
            for j, x in self._rows[level][source]:
                if j == target:
                    break
                gid += x * down[level + 1][j]
            else:  # no edge to target
                x = 0
            if not 0 <= copy < x:
                raise ValueError("%r is not a path of this diagram" % (path,))
            gid += copy * down[level + 1][j]
        return gid

    def _first_paths(self, n):
        """The first rooted path into each level-n vertex, in vertex order,
        as a list of ``(level, source, target, copy)`` steps like
        ``_unrank``'s, or None for a vertex no path reaches; an iterator
        that builds one path at a time.  The first path into u extends the
        first path of u's earliest predecessor by that predecessor's first
        edge into u.  So one pass down the levels, taking each level's
        vertices in the order of their first paths, finds every vertex's
        predecessor, and no level is enumerated."""
        self._check_level(n)
        order, parents = [0], []
        for k in range(n):
            parent = [None] * self.vertex_counts[k + 1]
            reached = []
            for p in order:
                for j, x in self._rows[k][p]:
                    if x > 0 and parent[j] is None:
                        parent[j] = p
                        reached.append(j)
            parents.append(parent)
            order = reached

        def first(v):
            steps = []
            for k in reversed(range(n)):
                p = parents[k][v]
                if p is None:
                    return None
                steps.append((k, p, v, 0))
                v = p
            return steps[::-1] if v == 0 else None

        return map(first, range(self.vertex_counts[n]))

    def children(self, n):
        """Where the one-edge extensions of each length-n path sit in paths(n+1).

        Returns offsets c, one more than there are length-n paths: the
        extensions of path id i are the ids ``range(c[i], c[i+1])``, in edge
        order.  The canonical order keeps them contiguous, so embedding,
        widening and refinement walk path ids through this map instead of
        building paths.
        """
        if not 0 <= n < self.depth:
            raise ValueError("level %d has no children (need 0 <= level < depth %d)" % (n, self.depth))
        return self.descendants(n, n + 1)

    def descendants(self, n, m):
        """Offsets like ``children`` from level n down to level m >= n: the
        length-m extensions of length-n path id i are ``range(d[i], d[i+1])``,
        as many as there are paths from its terminal down to level m."""
        if not 0 <= n <= m <= self.depth:
            raise ValueError("need 0 <= n <= m <= depth, got n=%d m=%d" % (n, m))
        def build():
            down = self._down_counts(n, m)[0]
            return tuple(accumulate(map(down.__getitem__, self.terminals(n)), initial=0))
        return self.memo(("descendants", n, m), build)

    # -- canonical indexing for tables --------------------------------------

    def block_paths(self, n):
        """Path ids at level n grouped by terminal vertex, canonical order."""
        def build():
            groups = [[] for _ in range(self.vertex_counts[n])]
            for gid, t in enumerate(self.terminals(n)):
                groups[t].append(gid)
            return tuple(map(tuple, groups))
        return self.memo(("block_paths", n), build)

    def block_pos(self, n):
        """Map path id -> (terminal vertex index, position inside the block)."""
        def build():
            pos = [None] * len(self.terminals(n))
            for v, gids in enumerate(self.block_paths(n)):
                for local, gid in enumerate(gids):
                    pos[gid] = (v, local)
            return tuple(pos)
        return self.memo(("block_pos", n), build)

    def tail_classes(self, m, n):
        """Partition of length-m paths into level-n tail classes.

        Two length-m paths are equivalent when they carry the same edges
        from coordinate n on and pass through the same level-n vertex (the
        vertex clause only matters when m = n).  Returns (classes, class_of)
        where classes is a tuple of tuples of path ids and class_of maps a
        path id to its class index.  Classes are numbered in order of their
        first path id.
        """
        if not 0 <= n <= m <= self.depth:
            raise ValueError("need 0 <= n <= m <= depth, got n=%d m=%d" % (n, m))
        def build():
            # The t-th extensions of the level-n paths into vertex v follow one
            # segment: class (v, t).  So v's classes are the columns of its
            # paths' extension ranges.  Blocks sort by their first path, the
            # order the classes are numbered in.
            terminals, desc = self.terminals(n), self.descendants(n, m)
            ranges = list(map(range, desc, desc[1:]))
            blocks = self.block_paths(n)
            classes, spans = [], [None] * len(blocks)
            for ids in sorted(filter(None, blocks)):
                first = len(classes)
                classes += zip(*map(ranges.__getitem__, ids))
                spans[terminals[ids[0]]] = range(first, len(classes))
            return tuple(classes), tuple(chain.from_iterable(map(spans.__getitem__, terminals)))
        return self.memo(("tail_classes", m, n), build)

    def prefix_ids(self, m_fine, m_coarse):
        """Map each length-m_fine path id to the id of its length-m_coarse prefix."""
        if not 0 <= m_coarse <= m_fine <= self.depth:
            raise ValueError("bad prefix levels %d -> %d" % (m_fine, m_coarse))
        def build():
            d = self.descendants(m_coarse, m_fine)
            return tuple(chain.from_iterable(map(repeat, range(len(d) - 1), map(sub, d[1:], d))))
        return self.memo(("prefix_ids", m_fine, m_coarse), build)

    def __repr__(self):
        return "BratteliDiagram(depth=%d, vertices=%s)" % (self.depth, list(self.vertex_counts))


# -- built-in diagrams -------------------------------------------------------

DEFAULT_DEPTHS = {"car": 5, "pascal": 6, "fibonacci": 6, "uhf3": 4}

BUILTIN_NAMES = ("car", "pascal", "fibonacci", "uhf3")

_ALIASES = {"gicar": "pascal", "uhf-3": "uhf3", "uhf_3": "uhf3"}


def builtin_name(name):
    """Normalize a built-in diagram name, or return None if unknown."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    return key if key in BUILTIN_NAMES else None


def builtin_diagram(name, depth=None):
    """Construct a built-in diagram at the given (or default) depth.

    Known names: ``car`` (one vertex per level, double edges), ``pascal``
    (n+1 vertices at level n, binomial path counts), ``fibonacci`` (two
    vertices per level past the root, golden-mean multiplicities), ``uhf3``
    (one vertex per level, triple edges).
    """
    key = builtin_name(name)
    if key is None:
        raise ValueError("unknown built-in diagram %r (known: %s)" % (name, ", ".join(BUILTIN_NAMES)))
    if depth is None:
        depth = DEFAULT_DEPTHS[key]
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if key == "car":
        return BratteliDiagram._from_rows([1] * (depth + 1), [(((0, 2),),)] * depth)
    if key == "uhf3":
        return BratteliDiagram._from_rows([1] * (depth + 1), [(((0, 3),),)] * depth)
    if key == "pascal":
        # Row k is the same at every level from k on, so the levels share it.
        rows = tuple(((k, 1), (k + 1, 1)) for k in range(depth))
        return BratteliDiagram._from_rows(range(1, depth + 2), (rows[: n + 1] for n in range(depth)))
    if key == "fibonacci":
        rows = (((0, 1), (1, 1)), ((0, 1),))
        return BratteliDiagram._from_rows([1] + [2] * depth, [rows[:1]] + [rows] * (depth - 1))
    raise AssertionError("unreachable")


# -- file format --------------------------------------------------------------
#
#   BRATTELI 1
#   levels <D>
#   vertices <c0> <c1> ... <cD>
#   incidence <n>          (repeated for n = 0..D-1)
#   <cn rows of cn+1 integers>
#
# '#' starts a comment; blank lines are ignored.  Rows of width zero are
# written as nothing at all, so files whose vertex counts include a zero
# still parse (validation, not parsing, reports the empty level).


def parse_diagram(text):
    """Parse the diagram file format; raises DiagramParseError with a line number."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((lineno, body))
    cursor = 0

    def next_line(expect):
        nonlocal cursor
        if cursor >= len(lines):
            lastno = lines[-1][0] if lines else 1
            raise DiagramParseError(lastno, "unexpected end of file, expected %s" % expect)
        item = lines[cursor]
        cursor += 1
        return item

    def parse_ints(lineno, tokens, what):
        out = []
        for t in tokens:
            try:
                out.append(int(t))
            except ValueError:
                raise DiagramParseError(lineno, "non-numeric %s entry %r" % (what, t)) from None
        return out

    lineno, header = next_line("header 'BRATTELI 1'")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "BRATTELI":
        raise DiagramParseError(lineno, "malformed header %r, expected 'BRATTELI 1'" % header)
    if parts[1] != "1":
        raise DiagramParseError(lineno, "unsupported format version %r" % parts[1])

    lineno, body = next_line("'levels <D>'")
    parts = body.split()
    if len(parts) != 2 or parts[0] != "levels":
        raise DiagramParseError(lineno, "expected 'levels <D>', got %r" % body)
    (depth,) = parse_ints(lineno, parts[1:], "levels")
    if depth < 1:
        raise DiagramParseError(lineno, "levels must be >= 1, got %d" % depth)

    lineno, body = next_line("'vertices <c0> ... <cD>'")
    parts = body.split()
    if not parts or parts[0] != "vertices":
        raise DiagramParseError(lineno, "expected 'vertices ...', got %r" % body)
    counts = parse_ints(lineno, parts[1:], "vertex count")
    if len(counts) != depth + 1:
        raise DiagramParseError(
            lineno, "expected %d vertex counts for %d levels, got %d" % (depth + 1, depth, len(counts))
        )
    if any(c < 0 for c in counts):
        raise DiagramParseError(lineno, "vertex counts must be nonnegative")

    matrices = []
    for n in range(depth):
        lineno, body = next_line("'incidence %d'" % n)
        parts = body.split()
        if len(parts) != 2 or parts[0] != "incidence":
            raise DiagramParseError(lineno, "expected 'incidence %d', got %r" % (n, body))
        (tag,) = parse_ints(lineno, parts[1:], "incidence header")
        if tag != n:
            raise DiagramParseError(lineno, "incidence blocks out of order: expected %d, got %d" % (n, tag))
        width = counts[n + 1]
        mat = []
        for _ in range(counts[n]):
            if width == 0:
                mat.append(())
                continue
            lineno, body = next_line("a row of %d integers" % width)
            row = parse_ints(lineno, body.split(), "incidence")
            if len(row) != width:
                raise DiagramParseError(lineno, "row has %d entries, expected %d" % (len(row), width))
            mat.append(tuple(row))
        matrices.append(tuple(mat))

    if cursor != len(lines):
        lineno, body = lines[cursor]
        raise DiagramParseError(lineno, "unexpected trailing content %r" % body)
    return BratteliDiagram(counts, matrices)


def serialize_diagram(d, comment=None):
    """Render a diagram in the file format (round-trips through parse_diagram)."""
    out = []
    if comment:
        for line in comment.splitlines():
            out.append("# " + line)
    out.append("BRATTELI 1")
    out.append("levels %d" % d.depth)
    out.append("vertices " + " ".join(str(c) for c in d.vertex_counts))
    for n, mat in enumerate(d.incidence):
        out.append("incidence %d" % n)
        for row in mat:
            if row:
                out.append(" ".join(str(x) for x in row))
    return "\n".join(out) + "\n"
