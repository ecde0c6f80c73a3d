"""Averaging operators onto tail-invariant functions.

For a level-n tail class the unnormalized operator sums a function over the
class; dividing by the class size (the path count of the level-n vertex the
class passes through) gives an idempotent, positive, unital conditional
expectation.  Both are computed as exact table rewrites at working level
max(level(f), n).
"""

from fractions import Fraction
from math import lcm

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
    classes, class_of, scale = d.memo(("averaging", m, n, mean), lambda: _averaging_plan(d, m, n, mean))
    return CylinderFunction._from_form(d, m, class_average(f._exact_form(m), classes, class_of, scale))


def _averaging_plan(d, m, n, mean):
    """The tail classes and class map of level n on the length-m paths, with
    the scale that turns class sums into means when ``mean`` is set."""
    d._check_level(n)
    classes, class_of = d.tail_classes(m, n)
    return classes, class_of, class_means(classes) if mean else None


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
    ``range(a, b)`` of ``descendants(n, m)``.  So ``I_gamma * f`` is f's form
    with every entry outside ``[a, b)`` zeroed, ``expect`` is called on it
    once, and only the ``[a, b)`` slice of the mean is kept and scaled by
    #r(gamma).  The slices lie side by side: they are placed over one
    common denominator and reduced once, which is the same exact sum.
    """
    d = f.diagram
    d._check_level(n)
    m = max(f.level, n)
    desc = d.descendants(n, m)
    den, res, ims = f._exact_form(m)
    counts = [d.path_count(v) for v in d.vertices(n)]
    parts = []
    for gid, t in enumerate(d.terminals(n)):
        a, b = desc[gid], desc[gid + 1]
        term_res, term_ims = [0] * len(res), [0] * len(res)
        term_res[a:b], term_ims[a:b] = res[a:b], ims[a:b]
        term = (den, term_res, term_ims)
        e_den, e_res, e_ims = expect(CylinderFunction._from_form(d, m, term), n)._exact_form()
        parts.append((e_den, counts[t], e_res[a:b], e_ims[a:b]))
    common = lcm(*(e_den for e_den, _, _, _ in parts))
    out_res, out_ims = [], []
    for e_den, count, e_res, e_ims in parts:
        k = count * (common // e_den)
        out_res += [x * k for x in e_res]
        out_ims += [y * k for y in e_ims]
    return CylinderFunction._from_form(d, m, reduced(common, out_res, out_ims))


def prefix_sum_check(f, n, m):
    """Check that summing over rooted prefixes commutes with the expectation.

    For every level-n vertex v, every level-m vertex w and every segment y
    from v to w, the sum of f(x.y) over all rooted length-n paths x ending
    at v must be unchanged when f is replaced by its level-n expectation.
    Returns True when every instance holds exactly.
    """
    d = f.diagram
    desc = d.descendants(n, m)  # raises unless 0 <= n <= m <= depth
    if f.level > m:
        raise ValueError("f has level %d, cannot evaluate on length-%d paths" % (f.level, m))
    # Both sides are read at level m, each over its own denominator.
    den_f, res_f, ims_f = f._exact_form(m)
    den_e, res_e, ims_e = expect(f, n)._exact_form(m)
    for gids in d.block_paths(n):
        # The paths x into one vertex have their level-m extensions in the
        # same segment order, so the t-th id of each is x.y for the t-th y.
        for ids in zip(*(range(desc[g], desc[g + 1]) for g in gids)):
            lhs = (sum(res_f[g] for g in ids), sum(ims_f[g] for g in ids))
            rhs = (sum(res_e[g] for g in ids), sum(ims_e[g] for g in ids))
            if lhs[0] * den_e != rhs[0] * den_f or lhs[1] * den_e != rhs[1] * den_f:
                return False
    return True
