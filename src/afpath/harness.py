"""Randomized verification suites with deterministic, reproducible reports.

Each suite checks one layer of the library against exact identities:
diagram axioms, path combinatorics against a brute-force walk, the
*-algebra of cylinder functions, the averaging operators, the matrix-unit
tower, and the convolution model.  Every suite draws from its own RNG
stream derived from (seed, suite name), so a report is a pure function of
the configuration -- byte-identical across runs and platforms.

The levels the suites read are named once, by UNIT_LEVEL and PATH_LEVEL.
The largest table that plan builds is estimated up front and checked against
AF_TAIL_MAX_ENTRIES (default 100000); a breach is reported as a resource
failure rather than silently truncating the run.
"""

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from . import _exact
from .diagram import (
    BratteliDiagram,
    Edge,
    Vertex,
    builtin_diagram,
    builtin_name,
    format_path,
    parse_diagram,
)
from .cylinder import CylinderFunction, constant, indicator_path, indicator_vertex, indicator_edge
from .expectation import _prefix_sums_agree, class_sum, expect, expect_indicator, quasi_basis_apply
from .af_tower import (
    AfElement,
    represent_cylinder,
    jones_projection,
    _toeplitz_word,
    jones_refinement_check,
    dimension_vector,
    embed_multiplicities,
)
from .groupoid import (
    GroupoidFunction,
    convolve,
    diag,
    jones_kernel,
    represent,
    vanishing_check,
    unit_kernel,
    _word_kernel,
)

SUITE_NAMES = (
    "validation",
    "combinatorics",
    "cylinder",
    "expectation",
    "matrix_units",
    "tower",
    "groupoid",
)

RNG_NAME = "mt19937-strseed"

MAX_ENTRIES_VAR = "AF_TAIL_MAX_ENTRIES"
DEFAULT_MAX_ENTRIES = 100000

# 12/d for the entry denominators d = 1, 2, 3, 4, in that order.
_FACTORS = (12, 6, 4, 3)

# Matrix units, random block elements and kernel supports go up to level
# UNIT_LEVEL, pair tables one level deeper; the path walks to PATH_LEVEL.
UNIT_LEVEL = 3
PATH_LEVEL = 5


@dataclass(frozen=True)
class VerifyConfig:
    """Immutable description of one verification run."""

    source: str
    depth: int = None
    seed: int = 7
    samples: int = 20
    suites: tuple = None

    def __post_init__(self):
        if self.depth is not None and self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a natural number")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.suites is not None:
            object.__setattr__(self, "suites", tuple(self.suites))
            unknown = [s for s in self.suites if s not in SUITE_NAMES]
            if unknown:
                raise ValueError("unknown suites: %s" % ", ".join(unknown))


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    counterexample: str = None
    failure_kind: str = None  # "counterexample" or "resource" when failed


class _Failed(Exception):
    def __init__(self, detail):
        super().__init__(detail)
        self.detail = detail


class _Checker:
    __slots__ = ("checks",)

    def __init__(self):
        self.checks = 0

    def ok(self, cond, detail):
        self.checks += 1
        if not cond:
            raise _Failed(detail() if callable(detail) else detail)

    def add(self, n):
        self.checks += n


class _Context:
    def __init__(self, diagram, config):
        self.diagram = diagram
        self.config = config
        self.samples = config.samples
        self.builtin = builtin_name(config.source)
        self.top = min(UNIT_LEVEL, diagram.depth)
        self.deep = min(UNIT_LEVEL + 1, diagram.depth)
        self.heavy = max(1, config.samples // 4)


# -- configuration plumbing ----------------------------------------------------


def truncate_diagram(d, depth):
    """A copy of d cut off at a shallower depth."""
    if depth == d.depth:
        return d
    if not 1 <= depth < d.depth:
        raise ValueError("cannot truncate depth-%d diagram to %d" % (d.depth, depth))
    return BratteliDiagram._from_rows(d.vertex_counts[: depth + 1], d._rows[:depth])


def resolve_diagram(config):
    """Build the diagram a config names: a built-in or a file path."""
    name = builtin_name(config.source)
    if name is not None:
        return builtin_diagram(name, config.depth)
    with open(config.source, "r", encoding="utf-8") as fh:
        d = parse_diagram(fh.read())
    if config.depth is not None:
        d = truncate_diagram(d, config.depth)
    return d


def max_entries_cap():
    raw = os.environ.get(MAX_ENTRIES_VAR)
    if raw is None:
        return DEFAULT_MAX_ENTRIES
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError("%s must be an integer, got %r" % (MAX_ENTRIES_VAR, raw)) from None
    if cap < 1:
        raise ValueError("%s must be >= 1" % MAX_ENTRIES_VAR)
    return cap


def estimate_max_table(d):
    """Largest table any suite would materialize at this depth.

    A block-matrix stage n has the sum over v of #v^2 entries, and no
    convolution kernel at table level n has more.  The suites build such pair
    tables down to level UNIT_LEVEL + 1 only; deeper, every table they build
    has at most one entry per path.
    """
    counts = d._level_counts()
    blocks = max(sum(c * c for c in row) for row in counts[: UNIT_LEVEL + 2])
    return max(blocks, max(map(sum, counts)))


# -- seeded random elements ------------------------------------------------------


def _random_numerators(rng, count):
    """The numerator lists of ``count`` entries over the common denominator 12.

    Each entry has a numerator in [-9, 9] over a denominator in {1, 2, 3,
    4}, for each part in turn; choosing the factor 12/d in the place of d
    makes the same draw.

    The draws go straight to ``rng.getrandbits``, rejecting out-of-range
    values exactly as ``randint(-9, 9)`` (5 bits, below 19) and
    ``choice(_FACTORS)`` (3 bits, below 4) do, so the numerators and the
    generator's state after them are those of the public calls.
    """
    bits = rng.getrandbits
    out = []
    for _ in range(2 * count):
        x = bits(5)
        while x >= 19:
            x = bits(5)
        k = bits(3)
        while k >= 4:
            k = bits(3)
        out.append((x - 9) * _FACTORS[k])
    return out[0::2], out[1::2]


def random_cylinder(diagram, level, rng):
    """A level-m function with Gaussian-rational entries: numerators in
    [-9, 9], denominators in {1, 2, 3, 4}, drawn in canonical path order."""
    res, ims = _random_numerators(rng, len(diagram.terminals(level)))
    return CylinderFunction._from_form(diagram, level, _exact.reduced(12, res, ims))


def _random_rows(rng, groups):
    """A row index with random entries on every pair of each group, row by row."""
    rows = {}
    for gids in groups:
        for a in gids:
            res, ims = _random_numerators(rng, len(gids))
            kept = [(b, x, y) for b, x, y in zip(gids, res, ims) if x or y]
            if kept:
                rows[a] = tuple(map(list, zip(*kept)))
    return _exact.indexed(12, rows)


def random_af_element(diagram, level, rng):
    """A stage-n element with fully random blocks (same entry distribution)."""
    return AfElement._from_index(diagram, level, _random_rows(rng, diagram.block_paths(level)))


def random_groupoid_function(diagram, support_level, table_level, rng):
    """A kernel with random values on every admissible pair, in class order."""
    classes, _ = diagram.tail_classes(table_level, support_level)
    return GroupoidFunction._from_index(diagram, support_level, table_level, _random_rows(rng, classes))


# -- individual suites -------------------------------------------------------------


def _suite_validation(ctx, chk, rng):
    d = ctx.diagram
    instances = 1 + len(d.vertex_counts)
    for above, below in zip(d.vertex_counts, d.vertex_counts[1:]):
        instances += above + below + above * below
    chk.add(instances - 1)
    violations = d.validate()
    chk.ok(not violations, lambda: ";".join(v.replace(" ", "_") for v in violations))


def _brute_force_paths(d, n):
    # Independent oracle: walk the incidence matrices directly, bypassing
    # the cached enumerations.  The depth-first walk keeps its own stack,
    # pushing edges in reverse so they pop in (target, copy) order; a
    # recursive closure would hold the diagram in a reference cycle.
    incidence = d.incidence
    out = []
    stack = [((), 0)]
    while stack:
        edges, idx = stack.pop()
        level = len(edges)
        if level == n:
            out.append(edges)
            continue
        row = incidence[level][idx]
        for j in reversed(range(len(row))):
            for k in reversed(range(row[j])):
                stack.append((edges + (Edge(level, idx, j, k),), j))
    return out


def _suite_combinatorics(ctx, chk, rng):
    d = ctx.diagram
    root = Vertex(0, 0)
    for n in range(min(PATH_LEVEL, d.depth) + 1):
        brute = _brute_force_paths(d, n)
        lib = d.paths(n)
        chk.ok(len(lib) == len(brute), "path-total;level=%d" % n)
        chk.ok(lib == tuple(brute), "path-order;level=%d" % n)
        per_vertex = {}
        for edges in brute:
            v = edges[-1].target_vertex() if edges else root
            per_vertex[v] = per_vertex.get(v, 0) + 1
        for v in d.vertices(n):
            chk.ok(
                d.path_count(v) == per_vertex.get(v, 0),
                lambda v=v: "path-count;vertex=(%d,%d)" % (v.level, v.index),
            )
            segs = d.segments(root, v)
            expected = tuple(e for e in brute if (e[-1].target_vertex() if e else root) == v)
            chk.ok(
                tuple(s.edges for s in segs) == expected,
                lambda v=v: "segments;vertex=(%d,%d)" % (v.level, v.index),
            )
    if ctx.builtin == "pascal":
        for n in range(min(PATH_LEVEL + 1, d.depth) + 1):
            sizes, total = dimension_vector(d, n)
            chk.ok(
                sizes == tuple(math.comb(n, k) for k in range(n + 1)),
                "pascal-sizes;level=%d" % n,
            )
            chk.ok(total == math.comb(2 * n, n), "pascal-dim;level=%d" % n)


def _suite_cylinder(ctx, chk, rng):
    d = ctx.diagram
    one = constant(d, 1)
    for s in range(ctx.samples):
        f = random_cylinder(d, rng.randint(0, ctx.top), rng)
        g = random_cylinder(d, rng.randint(0, ctx.top), rng)
        h = random_cylinder(d, rng.randint(0, ctx.top), rng)
        tag = "sample=%d" % s
        chk.ok((f + g) * h == f * h + g * h, "distributive;" + tag)
        chk.ok(f * g == g * f, "commutative;" + tag)
        chk.ok((f * g) * h == f * (g * h), "associative;" + tag)
        chk.ok(f * one == f, "unit;" + tag)
        chk.ok((f * g).conjugate() == f.conjugate() * g.conjugate(), "conjugation;" + tag)
        chk.ok(f.conjugate().conjugate() == f, "involutive;" + tag)
        m2 = min(max(f.level, g.level) + 1, d.depth)
        chk.ok((f * g).refine(m2) == f.refine(m2) * g.refine(m2), "refine-mul;" + tag)
        chk.ok((f + g).refine(m2) == f.refine(m2) + g.refine(m2), "refine-add;" + tag)
        chk.ok(f.sup_norm_sq() == f.refine(m2).sup_norm_sq(), "refine-norm;" + tag)
    for n in range(ctx.top + 1):
        total = None
        for p in d.paths(n):
            ind = indicator_path(d, p)
            total = ind if total is None else total + ind
        chk.ok(total == one, "partition-of-unity;level=%d" % n)
        f = random_cylinder(d, n, rng)
        rebuilt = None
        for val, p in zip(f.table, d.paths(n)):
            term = val * indicator_path(d, p)
            rebuilt = term if rebuilt is None else rebuilt + term
        chk.ok(rebuilt == f, "indicator-expansion;level=%d" % n)
        for v in d.vertices(n):
            iv = indicator_vertex(d, v)
            chk.ok(iv.is_invariant(n), "vertex-indicator-invariant;level=%d" % n)
            for k in range(n + 1):
                chk.ok(iv.is_invariant(k), "invariance-downward;level=%d;k=%d" % (n, k))
        for p in d.paths(n):
            ind = indicator_path(d, p)
            for v in d.vertices(n):
                expected = ind if p.terminal() == v else 0 * ind
                chk.ok(
                    ind * indicator_vertex(d, v) == expected,
                    lambda p=p, v=v: "path-vertex-product;path=%s;vertex=(%d,%d)"
                    % (format_path(p), v.level, v.index),
                )
    for n in range(1, ctx.top + 1):
        for p in d.paths(n):
            last = p[-1]
            chk.ok(
                indicator_path(d, p)
                == indicator_path(d, p.prefix(n - 1)) * indicator_edge(d, last),
                lambda p=p: "edge-factorization;path=%s" % format_path(p),
            )
    for s in range(ctx.samples):
        f = random_cylinder(d, rng.randint(0, ctx.top), rng)
        m = rng.randint(f.level, d.depth)
        gid = rng.randrange(sum(d._level_counts()[m]))
        p = d._path_at(m, gid)
        den, res, ims = f.refine(m)._form
        chk.ok(
            f.eval(p) == _exact.scalar(den, res[gid], ims[gid]),
            lambda p=p: "eval-refine;path=%s" % format_path(p),
        )


def _suite_expectation(ctx, chk, rng):
    d = ctx.diagram
    n_max, m_max = ctx.top, ctx.deep
    one = constant(d, 1)
    for n in range(n_max + 1):
        chk.ok(expect(one, n) == one, "unital;n=%d" % n)
        sizes = class_sum(one, n).table
        for gid, p in enumerate(d.paths(n)):
            chk.ok(
                sizes[gid] == d.path_count(p.vertex_at(n)),
                lambda p=p, n=n: "class-size;n=%d;path=%s" % (n, format_path(p)),
            )
    for n in range(m_max + 1):
        for gamma in d.paths(n):
            chk.ok(
                expect(indicator_path(d, gamma), n) == expect_indicator(d, gamma),
                lambda gamma=gamma: "indicator-lemma;path=%s" % format_path(gamma),
            )
    for n in range(1, m_max + 1):
        for gamma in d.paths(n):
            stem, last = gamma.prefix(n - 1), gamma[-1]
            lhs = expect(indicator_path(d, stem) * indicator_edge(d, last), n - 1)
            rhs = Fraction(1, d.path_count(stem.terminal())) * indicator_edge(d, last)
            chk.ok(lhs == rhs, lambda gamma=gamma: "edge-lemma;path=%s" % format_path(gamma))
    for n in range(n_max + 1):
        K = max(d._level_counts()[n])
        for m in range(m_max + 1):
            for s in range(ctx.samples):
                tag = "n=%d;m=%d;sample=%d" % (n, m, s)
                f = random_cylinder(d, m, rng)
                g0 = random_cylinder(d, m, rng)
                h0 = random_cylinder(d, m, rng)
                # Each of E_n f, E_n E_n f and E_n g0 is computed once.
                ef = expect(f, n)
                idempotent = expect(ef, n) == ef
                chk.ok(idempotent, "idempotent;" + tag)
                chk.ok(ef.is_invariant(n), "invariant-range;" + tag)
                g = expect(g0, n)
                chk.ok(expect(f + g0, n) == ef + g, "additive;" + tag)
                chk.ok(
                    expect(f.conjugate(), n) == ef.conjugate(),
                    "conjugation;" + tag,
                )
                h = expect(h0, n)
                chk.ok(expect(g * f * h, n) == g * ef * h, "module;" + tag)
                _, res, ims = expect(f * f.conjugate(), n)._exact_form()
                chk.ok(not any(ims) and min(res) >= 0, "positive;" + tag)
                # At n2 = n both tower checks are the idempotent identity on f.
                chk.ok(idempotent, "tower-fix;%s;n2=%d" % (tag, n))
                chk.ok(idempotent, "tower-collapse;%s;n2=%d" % (tag, n))
                for n2 in range(n + 1, n_max + 1):
                    e2 = expect(f, n2)
                    chk.ok(expect(e2, n) == e2, "tower-fix;%s;n2=%d" % (tag, n2))
                    chk.ok(expect(ef, n2) == e2, "tower-collapse;%s;n2=%d" % (tag, n2))
                chk.ok(_prefix_sums_agree(f, ef, n, max(n, m)), "prefix-sums;" + tag)
                chk.ok(quasi_basis_apply(f, n) == f, "quasi-basis;" + tag)
                # sup|class sum|^2 <= K^2 sup|f|^2 with both denominators cleared.
                c, e = class_sum(f, n)._exact_form(), f._exact_form()
                chk.ok(
                    _exact.sup_sq(c) * e[0] ** 2 <= K * K * _exact.sup_sq(e) * c[0] ** 2,
                    "norm-bound;" + tag,
                )


def _unit_ids(d, n):
    """Every same-terminal pair ``(a, b)`` of level-n path ids, block by block."""
    return [(a, b) for gids in d.block_paths(n) for a in gids for b in gids]


def _unit(d, n, a, b):
    """The matrix unit of the level-n path ids a and b."""
    return AfElement._from_index(d, n, _exact.unit(a, b))


def _pair(d, n, a, b):
    """A label's ``a|b`` naming of a pair of level-n path ids by their paths."""
    return "%s|%s" % (format_path(d._path_at(n, a)), format_path(d._path_at(n, b)))


# Sample thresholds of the suites.  At or below one, a check covers every
# case or draws its full sample count; above it, fewer.  A ``_COST`` is an
# estimated count of multiplications (see the comment at its use).
_EXHAUSTIVE_PAIRS = 20000  # unit pairs: all ordered pairs, else a sample
_TOWER_PRODUCT_COST = 30000  # embed products: heavy samples, else a third
_PROJECTION_SQUARE_COST = 250000  # e_n * e_n: checked, else skipped
_SANDWICH_FULL_COST = 10000  # projection-averages: all samples
_SANDWICH_TENTH_COST = 200000  # projection-averages: a tenth, else one
_WORD_UNITS = 1000  # represent-word: every unit, else a sample


def _unit_pairs(d, n, ids, ctx, rng):
    """``(a, b, unit)`` pairs: all ordered pairs of the level's units when that
    is cheap, else a seeded sample.

    The sample draws half its pairs uniformly and half composable (middle
    indices agreeing), so the nonzero branch of the product rule is
    exercised even when matching pairs are rare.  Only the units it returns
    are built.
    """
    if len(ids) * len(ids) <= _EXHAUSTIVE_PAIRS:
        units = [(a, b, _unit(d, n, a, b)) for a, b in ids]
        return [(x, y) for x in units for y in units]
    blocks, terminals = d.block_paths(n), d.terminals(n)
    count = max(100, 13 * ctx.samples)
    drawn = [(rng.choice(ids), rng.choice(ids)) for _ in range(count)]
    for _ in range(count):
        a, b = rng.choice(ids)
        drawn.append(((a, b), (b, rng.choice(blocks[terminals[b]]))))
    return [((a, b, _unit(d, n, a, b)), (c, e, _unit(d, n, c, e))) for (a, b), (c, e) in drawn]


def _suite_matrix_units(ctx, chk, rng):
    d = ctx.diagram
    for n in range(ctx.top + 1):
        terminals = d.terminals(n)
        ids = _unit_ids(d, n)
        zero = AfElement.zero(d, n)
        total = AfElement.zero(d, n)
        for a, b in ids:
            u = _unit(d, n, a, b)
            if a == b:
                total = total + u
            chk.ok(
                u.adjoint() == _unit(d, n, b, a),
                lambda a=a, b=b: "adjoint;n=%d;pair=%s" % (n, _pair(d, n, a, b)),
            )
        chk.ok(total == AfElement.identity(d, n), "diagonal-partition;n=%d" % n)
        for (a, b, u1), (c, e, u2) in _unit_pairs(d, n, ids, ctx, rng):
            expected = _unit(d, n, a, e) if b == c else zero
            chk.ok(
                u1 * u2 == expected,
                lambda a=a, b=b, c=c, e=e: "product-rule;n=%d;pairs=%s*%s"
                % (n, _pair(d, n, a, b), _pair(d, n, c, e)),
            )
        for a in range(len(terminals)):
            for b in range(len(terminals)):
                # The units are exactly the same-terminal pairs.
                expected = _unit(d, n, a, b) if terminals[a] == terminals[b] else zero
                chk.ok(
                    _toeplitz_word(d, a, b, n, n) == expected,
                    lambda a=a, b=b: "word-recovery;n=%d;pair=%s" % (n, _pair(d, n, a, b)),
                )
        if n < d.depth:
            m2 = n + 1
            for a, b in ids[:6]:
                chk.ok(
                    _toeplitz_word(d, a, b, n, m2) == _unit(d, n, a, b).embed_to(m2),
                    lambda a=a, b=b: "word-embedded;n=%d;pair=%s" % (n, _pair(d, n, a, b)),
                )


def _suite_tower(ctx, chk, rng):
    d = ctx.diagram
    m_max, heavy = ctx.deep, ctx.heavy
    for n in range(min(ctx.deep + 1, d.depth)):
        chk.ok(
            AfElement.identity(d, n).embed() == AfElement.identity(d, n + 1),
            "embed-unital;n=%d" % n,
        )
    for n in range(d.depth):
        chk.ok(
            embed_multiplicities(d, n) == d.incidence[n],
            "realized-multiplicity;n=%d" % n,
        )
    for n in range(min(ctx.top + 1, d.depth)):
        # one dense product at level n+1 costs about (sum of block sizes
        # squared) x (max block size) x (max out-degree) multiplications
        sizes = d._level_counts()[n]
        outdeg = max(len(d.edges_from(v)) for v in d.vertices(n))
        cost = sum(s * s for s in sizes) * max(sizes) * outdeg
        count = heavy if cost <= _TOWER_PRODUCT_COST else max(2, heavy // 3)
        for s in range(count):
            tag = "n=%d;sample=%d" % (n, s)
            x = random_af_element(d, n, rng)
            y = random_af_element(d, n, rng)
            xe, ye = x.embed(), y.embed()
            chk.ok(xe * ye == (x * y).embed(), "embed-multiplicative;" + tag)
            chk.ok(xe + ye == (x + y).embed(), "embed-additive;" + tag)
            chk.ok(x.adjoint().embed() == xe.adjoint(), "embed-star;" + tag)
            chk.ok(x.is_zero() or not xe.is_zero(), "embed-injective;" + tag)
            f = random_cylinder(d, n, rng)
            chk.ok(
                represent_cylinder(f).embed() == represent_cylinder(f.refine(n + 1)),
                "embed-coherent;" + tag,
            )
    for m in range(m_max + 1):
        chk.ok(
            jones_projection(d, 0, m) == AfElement.identity(d, m),
            "projection-base;m=%d" % m,
        )
        for n in range(m + 1):
            e_n = jones_projection(d, n, m)
            pcost = e_n.nnz() * max(d._level_counts()[n])
            if pcost <= _PROJECTION_SQUARE_COST:
                chk.ok(e_n * e_n == e_n, "projection-idempotent;n=%d;m=%d" % (n, m))
            chk.ok(e_n.adjoint() == e_n, "projection-selfadjoint;n=%d;m=%d" % (n, m))
            if n < m:
                e_next = jones_projection(d, n + 1, m)
                chk.ok(e_next * e_n == e_next, "ladder-right;n=%d;m=%d" % (n, m))
                chk.ok(e_n * e_next == e_next, "ladder-left;n=%d;m=%d" % (n, m))
    for m in range(m_max + 1):
        for n in range(m + 1):
            e_n = jones_projection(d, n, m)
            # one sandwich costs about nnz(e_n) x class size multiplications;
            # scale the sample count down as that grows
            cost = e_n.nnz() * max(d._level_counts()[n])
            if cost <= _SANDWICH_FULL_COST:
                count = ctx.samples
            elif cost <= _SANDWICH_TENTH_COST:
                count = max(1, ctx.samples // 10)
            else:
                count = 1
            for s in range(count):
                tag = "n=%d;m=%d;sample=%d" % (n, m, s)
                f = random_cylinder(d, m, rng)
                lhs = e_n * represent_cylinder(f) * e_n
                rhs = represent_cylinder(expect(f, n).refine(m)) * e_n
                chk.ok(lhs == rhs, "projection-averages;" + tag)
    for m in range(1, m_max + 1):
        for n in range(m):
            chk.ok(jones_refinement_check(d, n, m), "projection-refines;n=%d;m=%d" % (n, m))


def _suite_groupoid(ctx, chk, rng):
    d = ctx.diagram
    n_max, heavy = ctx.top, ctx.heavy
    one = unit_kernel(d)
    for s in range(heavy):
        tag = "sample=%d" % s
        n1 = rng.randint(0, min(ctx.top, UNIT_LEVEL - 1))
        m1 = rng.randint(n1, ctx.top)
        F = random_groupoid_function(d, n1, m1, rng)
        G = random_groupoid_function(d, rng.randint(0, min(UNIT_LEVEL - 1, m1)), m1, rng)
        H = random_groupoid_function(d, n1, rng.randint(n1, ctx.top), rng)
        chk.ok(convolve(convolve(F, G), H) == convolve(F, convolve(G, H)), "associative;" + tag)
        chk.ok(convolve(F, G).adjoint() == convolve(G.adjoint(), F.adjoint()), "anti-hom;" + tag)
        chk.ok(F.adjoint().adjoint() == F, "involutive;" + tag)
        chk.ok(convolve(one, F) == F, "unit-left;" + tag)
        chk.ok(convolve(F, one) == F, "unit-right;" + tag)
        f1 = random_cylinder(d, m1, rng)
        g1 = random_cylinder(d, m1, rng)
        chk.ok(diag(f1 * g1) == convolve(diag(f1), diag(g1)), "diag-multiplicative;" + tag)
        chk.ok(diag(f1).adjoint() == diag(f1.conjugate()), "diag-star;" + tag)
    for n in range(n_max + 1):
        jk = jones_kernel(d, n)
        chk.ok(convolve(jk, jk) == jk, "kernel-idempotent;n=%d" % n)
        chk.ok(jk.adjoint() == jk, "kernel-selfadjoint;n=%d" % n)
        if n + 1 <= ctx.deep:
            jk2 = jones_kernel(d, n + 1)
            chk.ok(convolve(jk, jk2) == jk2, "kernel-ladder-left;n=%d" % n)
            chk.ok(convolve(jk2, jk) == jk2, "kernel-ladder-right;n=%d" % n)
    for n in range(n_max + 1):
        jk = jones_kernel(d, n)
        for s in range(heavy):
            tag = "n=%d;sample=%d" % (n, s)
            m = rng.randint(n, ctx.deep)
            f = random_cylinder(d, m, rng)
            g = random_cylinder(d, m, rng)
            chk.ok(
                convolve(convolve(jk, diag(f)), jk) == convolve(diag(expect(f, n)), jk),
                "kernel-averages;" + tag,
            )
            P1 = convolve(convolve(diag(f), jk), diag(g))
            jkw = jk.widen(m, m)
            P2 = convolve(convolve(diag(f), jkw), diag(g))
            chk.ok(P2 == P1.widen(m, m), "support-bound;" + tag)
            _, class_of = d.tail_classes(P2.table_level, n)
            chk.ok(
                all(class_of[a] == class_of[b] for a, b in P2.keys()),
                "support-admissible;" + tag,
            )
    for n in range(n_max + 1):
        ids = _unit_ids(d, n)
        chk.ok(represent(AfElement.identity(d, n)) == one, "represent-unital;n=%d" % n)
        for a, b in ids:
            img = represent(_unit(d, n, a, b))
            chk.ok(not img.is_zero(), lambda a=a, b=b: "represent-injective;n=%d;pair=%s" % (n, _pair(d, n, a, b)))
            chk.ok(
                img.adjoint() == represent(_unit(d, n, b, a)),
                lambda a=a, b=b: "represent-star;n=%d;pair=%s" % (n, _pair(d, n, a, b)),
            )
        # the image of a matrix unit must agree with the full convolution
        # word that defines it, not just with the collapsed closed form
        if len(ids) <= _WORD_UNITS:
            word_pairs = ids
        else:
            word_pairs = [rng.choice(ids) for _ in range(max(48, 2 * ctx.samples))]
        for a, b in word_pairs:
            chk.ok(
                represent(_unit(d, n, a, b)) == _word_kernel(d, a, b, n),
                lambda a=a, b=b: "represent-word;n=%d;pair=%s" % (n, _pair(d, n, a, b)),
            )
        for (a, b, u1), (c, e, u2) in _unit_pairs(d, n, ids, ctx, rng):
            chk.ok(
                convolve(represent(u1), represent(u2)) == represent(u1 * u2),
                lambda a=a, b=b, c=c, e=e: "represent-multiplicative;n=%d;pairs=%s*%s"
                % (n, _pair(d, n, a, b), _pair(d, n, c, e)),
            )
        if n < ctx.top:
            for a, b in ids:
                u = _unit(d, n, a, b)
                chk.ok(
                    represent(u.embed()) == represent(u).widen(n + 1, n + 1),
                    lambda a=a, b=b: "represent-embed;n=%d;pair=%s" % (n, _pair(d, n, a, b)),
                )
    # ids and n are those of the last level, n_max
    paths = d.paths(n)
    chk.ok(
        vanishing_check(GroupoidFunction.zero(d, n, n), ctx.deep) is True,
        "vanishing-zero;n=%d" % n,
    )
    for a, b in ids:
        witness = vanishing_check(represent(_unit(d, n, a, b)), n)
        chk.ok(
            witness == paths[b],
            lambda a=a, b=b: "vanishing-witness;n=%d;pair=%s" % (n, _pair(d, n, a, b)),
        )


_SUITE_FUNCTIONS = {
    "validation": _suite_validation,
    "combinatorics": _suite_combinatorics,
    "cylinder": _suite_cylinder,
    "expectation": _suite_expectation,
    "matrix_units": _suite_matrix_units,
    "tower": _suite_tower,
    "groupoid": _suite_groupoid,
}


# -- the runner -------------------------------------------------------------------


def _run_one(name, ctx):
    chk = _Checker()
    rng = random.Random("%d:%s" % (ctx.config.seed, name))
    try:
        _SUITE_FUNCTIONS[name](ctx, chk, rng)
    except _Failed as exc:
        return SuiteResult(name, False, chk.checks, str(exc.detail), "counterexample")
    return SuiteResult(name, True, chk.checks)


def run_suites(config, diagram=None):
    """Run the configured suites; returns a list of SuiteResult.

    The diagram is validated first regardless of the filter: on an invalid
    diagram only the validation result is returned and everything else is
    skipped.  A configuration whose tables would exceed AF_TAIL_MAX_ENTRIES
    short-circuits into a single resource failure.
    """
    if diagram is None:
        diagram = resolve_diagram(config)
    cap = max_entries_cap()
    needed = estimate_max_table(diagram)
    if needed > cap:
        return [
            SuiteResult(
                "resource",
                False,
                0,
                "resource-limit:needed=%d,cap=%d,var=%s" % (needed, cap, MAX_ENTRIES_VAR),
                "resource",
            )
        ]
    ctx = _Context(diagram, config)
    wanted = config.suites if config.suites is not None else SUITE_NAMES
    validation = _run_one("validation", ctx)
    if not validation.passed:
        return [validation]
    results = []
    for name in SUITE_NAMES:
        if name not in wanted:
            continue
        if name == "validation":
            results.append(validation)
        else:
            results.append(_run_one(name, ctx))
    return results


def render_report(config, results, depth=None):
    """The machine-readable report: header comments, SUITE lines, RESULT."""
    lines = []
    lines.append(
        "# verify source=%s depth=%s seed=%d samples=%d rng=%s"
        % (
            config.source,
            depth if depth is not None else (config.depth if config.depth is not None else "default"),
            config.seed,
            config.samples,
            RNG_NAME,
        )
    )
    ok = True
    for r in results:
        if r.passed:
            lines.append("SUITE %s PASS checks=%d" % (r.name, r.checks))
        else:
            ok = False
            detail = (r.counterexample or "unknown").replace(" ", "_")
            lines.append("SUITE %s FAIL checks=%d counterexample=%s" % (r.name, r.checks, detail))
    lines.append("RESULT %s" % ("PASS" if ok else "FAIL"))
    return "\n".join(lines) + "\n"
