"""Cylinder function tables: refinement, evaluation, pointwise *-algebra."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from afpath import (
    BratteliDiagram,
    CylinderFunction,
    Scalar,
    ZERO,
    ONE,
    I,
    builtin_diagram,
    constant,
    indicator_path,
    indicator_vertex,
    indicator_edge,
    Vertex,
)
from test_extension_maps import BUILTIN, SEEDED

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
scalars = st.builds(Scalar, rationals, rationals)

_car2 = builtin_diagram("car", 2)


def car2_functions():
    return st.builds(
        lambda a, b, c, d: CylinderFunction(_car2, 2, (a, b, c, d)),
        scalars,
        scalars,
        scalars,
        scalars,
    )


def test_table_length_is_checked(car):
    with pytest.raises(ValueError):
        CylinderFunction(car, 1, (1,))
    with pytest.raises(ValueError):
        CylinderFunction(car, 9, (1,))


def test_constant_refines_to_constant(car):
    one = constant(car, 1)
    assert one.level == 0
    assert one.refine(3).table == (ONE,) * 8


def test_indicator_path_table(car):
    p = car.paths(2)[1]
    f = indicator_path(car, p)
    assert f.table == (ZERO, ONE, ZERO, ZERO)
    # refining spreads the indicator over both extensions
    assert f.refine(3).table == (ZERO, ZERO, ONE, ONE, ZERO, ZERO, ZERO, ZERO)


def test_indicator_vertex_table(pascal):
    f = indicator_vertex(pascal, Vertex(2, 1))
    assert [x == ONE for x in f.table] == [p.terminal().index == 1 for p in pascal.paths(2)]
    assert sum(1 for x in f.table if x) == 2


@pytest.mark.parametrize("d", BUILTIN + SEEDED)
def test_indicator_edge_table(d):
    # Built from path ids on a fresh diagram, the table equals the scan of
    # every path's level-k edge, and no level of paths is enumerated.
    fresh = BratteliDiagram(d.vertex_counts, d.incidence)
    for k in range(min(d.depth, 5)):
        for v in fresh.vertices(k):
            for e in fresh.edges_from(v):
                f = indicator_edge(fresh, e)
                assert f.level == k + 1
                assert f.table == tuple(ONE if p[k] == e else ZERO for p in d.paths(k + 1))
    assert not [key for key in fresh._memo if key[0] == "paths"]


def test_indicator_edge_rejects_foreign_edge(car, fibonacci):
    # edges are value objects, so only an edge whose endpoints fall outside
    # the diagram is actually foreign
    e = fibonacci.edges_from(Vertex(1, 0))[1]
    assert e.target == 1
    with pytest.raises(ValueError):
        indicator_edge(car, e)


def test_eval_ignores_tails(car):
    p1 = car.paths(1)[0]
    f = indicator_path(car, p1)
    for q in car.paths(3):
        assert f.eval(q) == (ONE if q.prefix(1) == p1 else ZERO)
    with pytest.raises(ValueError):
        f.eval(car.paths(0)[0])


def test_equality_across_levels(car):
    assert constant(car, 1) == CylinderFunction(car, 1, (1, 1))
    assert constant(car, 1) != CylinderFunction(car, 1, (1, 0))
    assert CylinderFunction(car, 1, (1, 0)) + CylinderFunction(car, 1, (0, 1)) == constant(car, 1)


def test_equal_functions_are_unhashable(car):
    # Equality holds across table levels, so no table hash could agree with it.
    f = CylinderFunction(car, 1, (1, 2))
    assert f == f.refine(2)
    with pytest.raises(TypeError):
        hash(f)
    with pytest.raises(TypeError):
        {f}


def test_refine_cannot_coarsen(car):
    f = constant(car, 0).refine(2)
    with pytest.raises(ValueError):
        f.refine(1)


def test_scalar_and_pointwise_ops(car):
    f = CylinderFunction(car, 1, (1, 2))
    g = CylinderFunction(car, 1, (Fraction(1, 2), -1))
    assert (f * g).table == (Scalar(Fraction(1, 2)), Scalar(-2))
    assert (f + g).table == (Scalar(Fraction(3, 2)), Scalar(1))
    assert (f - g).table == (Scalar(Fraction(1, 2)), Scalar(3))
    assert (3 * f).table == (Scalar(3), Scalar(6))
    assert (f * Fraction(1, 2)).table == (Scalar(Fraction(1, 2)), Scalar(1))
    assert (1 - f).table == (ZERO, Scalar(-1))
    assert (-f).table == (Scalar(-1), Scalar(-2))


def test_scalar_type_promotes_into_tables(car):
    f = CylinderFunction(car, 1, (1, 0))
    assert (I * f).table == (I, ZERO)
    assert I * f == f * I


def test_mixed_level_product(car):
    f = indicator_path(car, car.paths(1)[0])
    g = indicator_path(car, car.paths(2)[1])
    assert f * g == g  # the level-2 path extends the level-1 one
    h = indicator_path(car, car.paths(2)[2])
    assert (f * h).is_zero()


def test_conjugate(car):
    f = CylinderFunction(car, 1, (Scalar(1, 2), Scalar(0, -1)))
    assert f.conjugate().table == (Scalar(1, -2), Scalar(0, 1))
    assert f.conjugate().conjugate() == f


def test_is_invariant(car, pascal):
    # a vertex indicator looks at one vertex, hence at coordinates before it
    f = indicator_vertex(pascal, Vertex(2, 1))
    assert f.is_invariant(2)
    assert f.is_invariant(1)
    assert not f.is_invariant(3)
    # a path indicator pins the first edge: not level-1 invariant on car
    assert not indicator_path(car, car.paths(1)[0]).is_invariant(1)
    assert indicator_path(car, car.paths(1)[0]).is_invariant(0)
    assert constant(car, 7).is_invariant(2)


def test_invariance_is_downward_monotone(fibonacci):
    """Depending only on coordinates >= n is weaker as n shrinks."""
    rng = random.Random(5)
    for _ in range(10):
        table = [Scalar(rng.randint(-3, 3)) for _ in fibonacci.paths(2)]
        f = CylinderFunction(fibonacci, 2, table)
        for n in range(fibonacci.depth + 1):
            if f.is_invariant(n):
                for k in range(n + 1):
                    assert f.is_invariant(k)


def test_sup_norm_sq(car):
    f = CylinderFunction(car, 1, (Scalar(1, 1), Scalar(Fraction(1, 2))))
    assert f.sup_norm_sq() == Fraction(2)
    assert constant(car, 0).sup_norm_sq() == 0


def test_different_diagrams_do_not_mix(car):
    other = builtin_diagram("car", 2)
    f = constant(car, 1)
    g = constant(other, 1)
    with pytest.raises(ValueError):
        f + g
    assert f != g


@settings(max_examples=40)
@given(car2_functions(), car2_functions(), car2_functions())
def test_pointwise_ring_axioms(f, g, h):
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)


@settings(max_examples=40)
@given(car2_functions(), car2_functions())
def test_pointwise_star_axioms(f, g):
    assert (f * g).conjugate() == f.conjugate() * g.conjugate()
    assert (f + g).conjugate() == f.conjugate() + g.conjugate()
    assert f.conjugate().conjugate() == f


@settings(max_examples=40)
@given(car2_functions())
def test_refinement_is_algebraic(f):
    g = f.refine(_car2.depth)
    assert g * g == (f * f).refine(_car2.depth)
    assert g + g == (f + f).refine(_car2.depth)
    assert f.is_zero() == g.is_zero()
