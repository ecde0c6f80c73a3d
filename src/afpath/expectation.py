"""Averaging operators onto tail-invariant functions.

For a level-n tail class the unnormalized operator sums a function over the
class; dividing by the class size (the path count of the level-n vertex the
class passes through) gives an idempotent, positive, unital conditional
expectation.  Both are computed as exact table rewrites at working level
max(level(f), n).
"""

from fractions import Fraction

from ._exact import class_sums, reindex
from .cylinder import CylinderFunction, indicator_vertex


def class_sum(f, n):
    """Sum f over each level-n tail class (the unnormalized averaging map)."""
    return _averaged(f, n, mean=False)


def expect(f, n):
    """The conditional expectation: average f over each level-n tail class."""
    return _averaged(f, n, mean=True)


def _averaged(f, n, mean):
    d = f.diagram
    d._check_level(n)
    m = max(f.level, n)
    classes, class_of = d.tail_classes(m, n)
    sums = class_sums(f._exact_form(m), classes, mean)
    return CylinderFunction._from_form(d, m, reindex(sums, class_of))


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
    """
    from .cylinder import indicator_path  # local import to keep module load light

    d = f.diagram
    result = None
    for gamma in d.paths(n):
        ind = indicator_path(d, gamma)
        term = d.path_count(gamma.terminal()) * (ind * expect(ind * f, n))
        result = term if result is None else result + term
    return result


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
