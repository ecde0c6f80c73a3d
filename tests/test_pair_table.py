"""The *-algebra the two pair-table classes share, and how each lines up
its operands: AfElement demands equal levels, GroupoidFunction widens."""

import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from afpath import (
    AfElement,
    BratteliDiagram,
    GroupoidFunction,
    Scalar,
    _exact,
    as_scalar,
    builtin_diagram,
    convolve,
    expect,
    jones_kernel,
    jones_projection,
    represent,
    represent_cylinder,
)
from afpath.harness import VerifyConfig, random_af_element, random_cylinder, random_groupoid_function, run_suites
from test_extension_maps import BUILTIN, MIXED, RANDOM

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


@pytest.mark.parametrize("kind", [AfElement, GroupoidFunction])
@pytest.mark.parametrize("name", DIAGRAMS)
def test_equal_tables_on_different_diagrams_compare_unequal(kind, name):
    # Two equal diagrams are still two diagrams: the same random table on
    # each compares unequal, and == does not raise.
    d = DIAGRAMS[name]
    twin = BratteliDiagram(d.vertex_counts, d.incidence)
    x, y = draw(kind, d, random.Random(73)), draw(kind, twin, random.Random(73))
    assert x.table == y.table
    assert not x == y and not y == x
    assert x != y and y != x
    assert x == draw(kind, d, random.Random(73))


# -- scaling by denominator arithmetic ------------------------------------------------


def _shared_tables():
    """Tables of both classes, some holding one row object at several ids."""
    rng = random.Random(79)
    car, mixed = DIAGRAMS["car"], DIAGRAMS["mixed"]
    e = jones_projection(car, 1, 3)
    return [
        random_af_element(mixed, 2, rng),
        random_groupoid_function(car, 1, 2, rng),
        e,
        Fraction(-2, 9) * e,
        jones_kernel(mixed, 1).widen(1, 3),
        represent_cylinder(random_cylinder(car, 3, rng)) * e,
        AfElement.zero(mixed, 2),
    ]


SHARED_TABLES = _shared_tables()


def _divisors(n):
    return [k for k in range(1, n + 1) if n % k == 0]


@st.composite
def table_and_multiplier(draw):
    x = draw(st.sampled_from(SHARED_TABLES))
    den = x._index[0]
    sign = draw(st.sampled_from((1, -1)))
    c = draw(
        st.one_of(
            st.integers(-40, 40),
            st.just(True),
            st.sampled_from(_divisors(den)).map(lambda k: sign * k),
            st.integers(-9, 9).map(lambda k: k * den),
            st.integers(2**64, 2**80).map(lambda k: sign * k),
            st.fractions(max_denominator=50),
            st.builds(Scalar, st.fractions(max_denominator=50), st.fractions(max_denominator=50)),
        )
    )
    return x, c


def _held_once(rows):
    """The ids of each row object that several ids hold."""
    by_row = {}
    for i, row in rows.items():
        by_row.setdefault(id(row), []).append(i)
    return [ids for ids in by_row.values() if len(ids) > 1]


@settings(max_examples=150, deadline=None)
@given(table_and_multiplier())
def test_scaling_is_reduced_exact_and_keeps_shared_rows(case):
    x, c = case
    y = c * x
    assert y == x * c
    s = as_scalar(c)
    assert y.table == {key: s * v for key, v in x.table.items() if s * v}
    den, rows = y._index
    assert gcd(den, *(v for _, res, ims in rows.values() for v in res + ims)) == 1
    for ids in _held_once(x._index[1]):
        if ids[0] in rows:
            assert all(rows[i] is rows[ids[0]] for i in ids)
    if not isinstance(c, Scalar) or not c.im:
        p, _ = (c.re if isinstance(c, Scalar) else c).as_integer_ratio()
        if p and p // gcd(p, x._index[0]) == 1:
            assert all(rows[i] is row for i, row in x._index[1].items())


@pytest.mark.parametrize("c", [1, 2, 4, True])
def test_a_multiplier_dividing_the_denominator_keeps_the_rows(c, monkeypatch):
    # e_2 in stage 4 of car is 1/4 on every pair of a class: den 4, numerators 1.
    e = jones_projection(DIAGRAMS["car"], 2, 4)

    def refuse(*args):
        raise AssertionError("built a Scalar or a row")

    for owner, name in ((_exact, "_row_times"), (_exact, "_times"), (_exact, "form"), (Scalar, "_of"), (Scalar, "__init__")):
        monkeypatch.setattr(owner, name, refuse)
    for y in (c * e, e * c):
        assert y._index[0] == 4 // c
        assert all(y._index[1][i] is row for i, row in e._index[1].items())


@pytest.mark.parametrize("d", BUILTIN + RANDOM)
def test_averaged_diagonal_times_projection_holds_one_row_per_class(d):
    # diag(E_n f) * e_n in stage m: E_n f is constant on each level-n tail
    # class, and e_n shares one row per class, so the product builds one.
    rng = random.Random(83)
    for m in range(min(3, d.depth) + 1):
        for n in range(m + 1):
            f = random_cylinder(d, m, rng)
            rows = (represent_cylinder(expect(f, n).refine(m)) * jones_projection(d, n, m))._index[1]
            classes, _ = d.tail_classes(m, n)
            held = [{id(rows[g]) for g in cls if g in rows} for cls in classes]
            assert all(len(ids) <= 1 for ids in held)
            assert len({id(row) for row in rows.values()}) == sum(map(len, held))


def test_mixed_and_cross_diagram_operands_raise_the_same_messages():
    car, mixed = DIAGRAMS["car"], DIAGRAMS["mixed"]
    rng = random.Random(89)
    x = random_af_element(car, 2, rng)
    F, G = represent(x), random_groupoid_function(mixed, 1, 2, rng)
    with pytest.raises(TypeError, match="^expected an AfElement, got GroupoidFunction$"):
        x * F
    with pytest.raises(TypeError, match=r"^use convolve \(or @\) for kernel products, \* for scalars$"):
        F * x
    with pytest.raises(TypeError, match="^expected a GroupoidFunction, got AfElement$"):
        convolve(F, x)
    for a, b in ((F, G), (G, F), (F, represent(random_af_element(BratteliDiagram(car.vertex_counts, car.incidence), 2, rng)))):
        with pytest.raises(ValueError, match="^operands live on different diagrams$"):
            convolve(a, b)


@pytest.mark.parametrize("suite, label", [("matrix_units", "word-recovery;n=1;"), ("groupoid", "represent-word;n=1;")])
def test_suite_fails_when_the_rational_scaling_skips_the_division_once(suite, label, monkeypatch):
    # The first scaling whose gcd matters keeps its undivided denominator,
    # so one word reads 1/#r(gamma) where the unit has 1.
    true_scale = _exact._rational_scale
    hits = []

    def off(p, q, den):
        k, d = true_scale(p, q, den)
        if k != p and not hits:
            hits.append((p, q, den))
            return k, den * q
        return k, d

    monkeypatch.setattr(_exact, "_rational_scale", off)
    d = builtin_diagram("uhf3", 3)
    (result,) = run_suites(VerifyConfig(source="uhf3", depth=3, suites=(suite,)), d)
    assert hits
    assert not result.passed and result.failure_kind == "counterexample"
    assert result.counterexample.startswith(label)
