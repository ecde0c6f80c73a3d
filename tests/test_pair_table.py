"""The *-algebra the two pair-table classes share, and how each lines up
its operands: AfElement demands equal levels, GroupoidFunction widens."""

import operator
import random
from fractions import Fraction

import pytest

from afpath import AfElement, GroupoidFunction, Scalar, builtin_diagram, convolve, represent
from afpath.harness import random_af_element, random_groupoid_function
from test_extension_maps import MIXED

DIAGRAMS = {"car": builtin_diagram("car"), "mixed": MIXED}
LEVELS = {AfElement: ("level",), GroupoidFunction: ("support_level", "table_level")}


def draw(kind, d, rng):
    """A random table of the given class, at levels 1 and 2 for a kernel."""
    if kind is AfElement:
        return random_af_element(d, 2, rng)
    return random_groupoid_function(d, 1, 2, rng)


def levels(x):
    return tuple(getattr(x, name) for name in LEVELS[type(x)])


@pytest.mark.parametrize("name", DIAGRAMS)
def test_af_elements_at_unequal_levels_or_diagrams_do_not_combine(name):
    d = DIAGRAMS[name]
    other = DIAGRAMS["mixed" if name == "car" else "car"]
    rng = random.Random(53)
    x = random_af_element(d, 1, rng)
    for y, message in (
        (random_af_element(d, 2, rng), "different levels"),
        (random_af_element(other, 1, rng), "different diagrams"),
    ):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match=message):
                op(x, y)
            with pytest.raises(ValueError, match=message):
                op(y, x)
    assert not x == x.embed()


@pytest.mark.parametrize("name", DIAGRAMS)
def test_kernels_at_unequal_levels_widen(name):
    d = DIAGRAMS[name]
    rng = random.Random(59)
    F = random_groupoid_function(d, 0, 1, rng)
    G = random_groupoid_function(d, 1, 2, rng)
    F2, G2 = F.widen(1, 2), G.widen(1, 2)
    for op in (operator.add, operator.sub, convolve):
        out = op(F, G)
        assert levels(out) == (1, 2)
        assert out == op(F2, G2)
        assert op(G, F) == op(G2, F2)
    assert F == F2


@pytest.mark.parametrize("name", DIAGRAMS)
def test_mixing_the_classes_or_multiplying_kernels_raises_type_error(name):
    d = DIAGRAMS[name]
    x = random_af_element(d, 2, random.Random(61))
    F = represent(x)
    for a, b in ((x, F), (F, x)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(a, b)
        assert a != b
    for op in (convolve, operator.matmul):
        with pytest.raises(TypeError):
            op(F, x)
    with pytest.raises(TypeError):
        F * F
    with pytest.raises(TypeError):
        x * "2"
    with pytest.raises(TypeError):
        "2" * F


@pytest.mark.parametrize("kind", [AfElement, GroupoidFunction])
@pytest.mark.parametrize("name", DIAGRAMS)
def test_scaling_by_zero_keeps_class_and_levels(kind, name):
    x = draw(kind, DIAGRAMS[name], random.Random(67))
    assert not x.is_zero()
    for zero in (0, Fraction(0), Scalar(0)):
        for z in (zero * x, x * zero):
            assert type(z) is kind
            assert z.diagram is x.diagram and levels(z) == levels(x)
            assert z.is_zero() and z.nnz() == 0


@pytest.mark.parametrize("kind", [AfElement, GroupoidFunction])
@pytest.mark.parametrize("name", DIAGRAMS)
def test_negation_scaling_and_adjoint_keep_class_and_levels(kind, name):
    rng = random.Random(71)
    x, y = draw(kind, DIAGRAMS[name], rng), draw(kind, DIAGRAMS[name], rng)
    assert -x == (-1) * x
    assert x - y == x + (-1) * y
    assert (x + -x).is_zero()
    assert Scalar(0, 1) * x == x * Scalar(0, 1)
    assert x.adjoint().adjoint() == x
    for z in (-x, Fraction(1, 3) * x, x + y, x - y, x.adjoint()):
        assert type(z) is kind
        assert z.diagram is x.diagram and levels(z) == levels(x)
    with pytest.raises(TypeError):
        hash(x)
