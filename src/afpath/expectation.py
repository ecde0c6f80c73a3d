"""Averaging operators onto tail-invariant functions.

For a level-n tail class the unnormalized operator sums a function over the
class; dividing by the class size (the path count of the level-n vertex the
class passes through) gives an idempotent, positive, unital conditional
expectation.  Both are computed as exact table rewrites at working level
max(level(f), n).
"""

from fractions import Fraction

from ._exact import class_average, class_means, reduced
from .cylinder import CylinderFunction, indicator_vertex


def class_sum(f, n):
    """Sum f over each level-n tail class (the unnormalized averaging map)."""
    return _averaged(f, n, mean=False)


def expect(f, n):
    """The conditional expectation: average f over each level-n tail class."""
    return _averaged(f, n, mean=True)


def _averaged(f, n, mean):
    d = f.diagram
    m = max(f.level, n)
    classes, class_of, scale = _plan(d, m, n, mean)
    return CylinderFunction._from_form(d, m, class_average(f._exact_form(m), classes, class_of, scale))


def _plan(d, m, n, mean):
    """The memoized averaging plan of level n on the length-m paths: the tail
    classes and class map, with the scale that turns class sums into means
    when ``mean`` is set."""

    def build():
        d._check_level(n)
        classes, class_of = d.tail_classes(m, n)
        return classes, class_of, class_means(classes) if mean else None

    return d.memo(("averaging", m, n, mean), build)


def expect_indicator(diagram, gamma):
    """Closed form for the expectation of a path indicator.

    Averaging the indicator of a length-n path gamma over level-n tail
    classes spreads its mass evenly over the block of paths ending at the
    same vertex: the result is indicator_vertex(r(gamma)) / #r(gamma).
    """
    v = gamma.terminal()
    return Fraction(1, diagram.path_count(v)) * indicator_vertex(diagram, v)


def quasi_basis_apply(f, n):
    """Reconstruct f from the weighted path indicators at level n.

    Computes sum over length-n paths gamma of
    #r(gamma) * I_gamma * E_n(I_gamma * f); the quasi-basis property of the
    expectation says this returns f itself (refined to max(level(f), n)).

    The term of gamma lives on the level-m extensions of gamma, the ids
    ``range(a, b)`` of ``descendants(n, m)``, and so does ``I_gamma * f``.
    Each term is averaged from that support alone: its entries are summed
    into their classes through the memoized averaging plan's ``class_of``,
    and only the classes met are read back, times the plan's class-mean
    multiplier and #r(gamma).  Every term shares the plan's denominator, so
    the sum is one reduced form, and a call costs O(level-m paths).
    """
    d = f.diagram
    d._check_level(n)
    m = max(f.level, n)
    _, class_of, (big, mults) = _plan(d, m, n, True)
    desc = d.descendants(n, m)
    den, res, ims = f._exact_form(m)
    counts = d._level_counts()[n]
    out_res, out_ims = [], []
    for t, a, b in zip(d.terminals(n), desc, desc[1:]):
        sums = {}
        for p in range(a, b):
            c = class_of[p]
            s = sums.get(c)
            sums[c] = (res[p], ims[p]) if s is None else (s[0] + res[p], s[1] + ims[p])
        count = counts[t]
        for c in class_of[a:b]:
            x, y = sums[c]
            k = mults[c] * count
            out_res.append(x * k)
            out_ims.append(y * k)
    return CylinderFunction._from_form(d, m, reduced(den * big, out_res, out_ims))


def prefix_sum_check(f, n, m):
    """Check that summing over rooted prefixes commutes with the expectation.

    For every level-n vertex v, every level-m vertex w and every segment y
    from v to w, the sum of f(x.y) over all rooted length-n paths x ending
    at v must be unchanged when f is replaced by its level-n expectation.
    Returns True when every instance holds exactly.
    """
    f.diagram.descendants(n, m)  # raises unless 0 <= n <= m <= depth
    if f.level > m:
        raise ValueError("f has level %d, cannot evaluate on length-%d paths" % (f.level, m))
    return _prefix_sums_agree(f, expect(f, n), n, m)


def _prefix_sums_agree(f, ef, n, m):
    """``prefix_sum_check`` on valid levels, with ``ef`` the level-n
    expectation of f already computed."""
    d = f.diagram
    desc = d.descendants(n, m)
    # Both sides are read at level m, each over its own denominator.
    den_f, res_f, ims_f = f._exact_form(m)
    den_e, res_e, ims_e = ef._exact_form(m)
    for gids in d.block_paths(n):
        # The paths x into one vertex have their level-m extensions in the
        # same segment order, so the t-th id of each is x.y for the t-th y.
        for ids in zip(*(range(desc[g], desc[g + 1]) for g in gids)):
            lhs = (sum(res_f[g] for g in ids), sum(ims_f[g] for g in ids))
            rhs = (sum(res_e[g] for g in ids), sum(ims_e[g] for g in ids))
            if lhs[0] * den_e != rhs[0] * den_f or lhs[1] * den_e != rhs[1] * den_f:
                return False
    return True
