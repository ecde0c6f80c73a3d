"""The averaging operators: frozen values, laws, and the quasi-basis identity."""

import random
from fractions import Fraction

import pytest

from afpath import expectation
from afpath import (
    CylinderFunction,
    Scalar,
    builtin_diagram,
    class_sum,
    constant,
    expect,
    expect_indicator,
    indicator_path,
    indicator_vertex,
    prefix_sum_check,
    quasi_basis_apply,
    random_cylinder,
    serialize_diagram,
    Vertex,
)
from afpath.harness import VerifyConfig, run_suites
from test_extension_maps import BUILTIN, MIXED, SEEDED, oracle_tail_classes, path_id_diagrams


def test_expect_of_edge_indicator_car(car):
    # both length-1 paths share the terminal, so averaging flattens I_a to 1/2
    gamma = car.paths(1)[0]
    e = expect(indicator_path(car, gamma), 1)
    assert e == Fraction(1, 2) * constant(car, 1)
    assert e == expect_indicator(car, gamma)


def test_expect_of_length_two_indicator_car(car):
    gamma = car.paths(2)[3]
    assert expect(indicator_path(car, gamma), 2) == Fraction(1, 4) * constant(car, 1)


def test_expect_indicator_closed_form(builtins):
    for d in builtins.values():
        for n in range(min(3, d.depth) + 1):
            for gamma in d.paths(n):
                assert expect(indicator_path(d, gamma), n) == expect_indicator(d, gamma)


def test_class_sum_counts_class_sizes(car, pascal):
    assert class_sum(constant(car, 1), 3).table == (Scalar(8),) * 8
    got = class_sum(constant(pascal, 1), 2)
    expected = tuple(Scalar(pascal.path_count(p.terminal())) for p in pascal.paths(2))
    assert got.table == expected


def test_class_sum_is_expect_times_size(pascal):
    rng = random.Random(11)
    f = random_cylinder(pascal, 3, rng)
    cs = class_sum(f, 2)
    ef = expect(f, 2)
    for gid, p in enumerate(pascal.paths(3)):
        size = pascal.path_count(p.vertex_at(2))
        assert cs.table[gid] == size * ef.table[gid]


def test_expect_level_zero_is_identity(fibonacci):
    rng = random.Random(3)
    f = random_cylinder(fibonacci, 2, rng)
    assert expect(f, 0) == f


def test_expect_at_own_level_averages_blocks(pascal):
    f = indicator_vertex(pascal, Vertex(2, 1))
    # E_2 fixes anything that only looks at the level-2 vertex
    assert expect(f, 2) == f


def test_quasi_basis_worked_example_car(car):
    a = car.paths(1)[0]
    b = car.paths(1)[1]
    f = indicator_path(car, a)
    # sum_gamma #r(gamma) I_gamma E_1(I_gamma f): the gamma=a term gives
    # 2 * I_a * (1/2) and the gamma=b term vanishes
    assert expect(indicator_path(car, b) * f, 1).is_zero()
    assert quasi_basis_apply(f, 1) == f


def test_quasi_basis_reconstructs(builtins):
    for name, d in builtins.items():
        rng = random.Random(name)
        for n in range(min(2, d.depth) + 1):
            f = random_cylinder(d, min(3, d.depth), rng)
            assert quasi_basis_apply(f, n) == f


def _quasi_basis_by_formula(f, n):
    """The literal sum over length-n paths gamma of
    #r(gamma) * I_gamma * E_n(I_gamma * f), one full table per operation."""
    d = f.diagram
    result = None
    for gamma in d.paths(n):
        ind = indicator_path(d, gamma)
        term = d.path_count(gamma.terminal()) * (ind * expect(ind * f, n))
        result = term if result is None else result + term
    return result


@pytest.mark.parametrize("d", [pytest.param(d, id=name) for name, d in path_id_diagrams()])
def test_quasi_basis_apply_matches_the_sum_formula(d):
    rng = random.Random(61)
    for level in range(d.depth + 1):
        for n in range(d.depth + 1):
            f = random_cylinder(d, level, rng)
            got = quasi_basis_apply(f, n)
            assert got.level == max(level, n)
            assert got == _quasi_basis_by_formula(f, n)
            assert got == f


def test_quasi_basis_apply_makes_no_expect_call(pascal, monkeypatch):
    true_expect = expectation.expect
    calls = []

    def counted(g, k):
        calls.append(k)
        return true_expect(g, k)

    monkeypatch.setattr(expectation, "expect", counted)
    f = random_cylinder(pascal, 2, random.Random(53))
    for n in range(pascal.depth + 1):
        assert quasi_basis_apply(f, n) == f
    assert calls == []


def test_quasi_basis_check_fails_when_the_plan_is_off_at_one_path(pascal, monkeypatch):
    # Each term averages its own support [a, b) through the plan's class map
    # and class-mean multipliers, so a plan that is wrong at one extension p
    # of gamma shows up in the term of gamma.
    rng = random.Random(59)
    f = random_cylinder(pascal, 3, rng)
    _, res, ims = f._exact_form()
    merged = 0
    for n in (0, 1, 3):
        key = ("averaging", 3, n, True)
        expect(f, n)
        classes, class_of, (big, mults) = pascal._memo[key]
        desc = pascal.descendants(n, 3)
        for gamma in range(len(pascal.paths(n))):
            a, b = desc[gamma], desc[gamma + 1]
            p = rng.choice([q for q in range(a, b) if res[q] or ims[q]])
            wrong = list(mults)
            wrong[class_of[p]] += 1
            monkeypatch.setitem(pascal._memo, key, (classes, class_of, (big, tuple(wrong))))
            assert quasi_basis_apply(f, n) != f
            if b - a > 1:
                # Two extensions of gamma sent to one class.
                q = a if p != a else a + 1
                wrong = list(class_of)
                wrong[q] = class_of[p]
                monkeypatch.setitem(pascal._memo, key, (classes, tuple(wrong), (big, mults)))
                assert quasi_basis_apply(f, n) != f
                merged += 1
            monkeypatch.setitem(pascal._memo, key, (classes, class_of, (big, mults)))
    assert merged


def test_quasi_basis_apply_rejects_levels_out_of_range(car):
    f = constant(car, 1)
    for n in (-1, car.depth + 1):
        with pytest.raises(ValueError):
            quasi_basis_apply(f, n)


def test_expectation_laws_random(fibonacci):
    d = fibonacci
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randint(0, 2)
        f = random_cylinder(d, 3, rng)
        g = random_cylinder(d, 3, rng)
        ef = expect(f, n)
        assert expect(ef, n) == ef
        assert ef.is_invariant(n)
        assert expect(f + g, n) == ef + expect(g, n)
        eg = expect(g, n)
        assert expect(eg * f, n) == eg * ef
        assert expect(f.conjugate(), n) == ef.conjugate()


def test_tower_of_expectations(pascal):
    rng = random.Random(29)
    for _ in range(6):
        f = random_cylinder(pascal, 4, rng)
        for n in range(3):
            for m in range(n, 4):
                em = expect(f, m)
                assert expect(em, n) == em
                assert expect(expect(f, n), m) == em


def test_expectation_contracts_sup_norm(car, uhf3):
    rng = random.Random(31)
    for d in (car, uhf3):
        for _ in range(6):
            f = random_cylinder(d, 3, rng)
            n = rng.randint(0, 3)
            assert expect(f, n).sup_norm_sq() <= f.sup_norm_sq()


def test_positivity(fibonacci):
    rng = random.Random(37)
    for _ in range(6):
        f = random_cylinder(fibonacci, 3, rng)
        e = expect(f * f.conjugate(), 1)
        assert all(x.im == 0 and x.re >= 0 for x in e.table)


def test_prefix_sum_identity(car, pascal):
    rng = random.Random(41)
    for d in (car, pascal):
        for _ in range(5):
            f = random_cylinder(d, 3, rng)
            for n in range(3):
                for m in range(max(n, f.level), min(4, d.depth) + 1):
                    assert prefix_sum_check(f, n, m)


def test_prefix_sum_rejects_bad_levels(car):
    f = constant(car, 1)
    with pytest.raises(ValueError):
        prefix_sum_check(f, 3, 2)
    g = f.refine(4)
    with pytest.raises(ValueError):
        prefix_sum_check(g, 1, 3)


def _prefix_sums_hold_by_segments(f, e, n, m):
    """The check by explicit paths: for every segment y from a level-n
    vertex v, sum f and e over the continuations x.y of the paths x into v."""
    d = f.diagram
    for v in d.vertices(n):
        xs = [p for p in d.paths(n) if p.terminal() == v]
        for w in d.vertices(m):
            for y in d.segments(v, w):
                paths = [x.followed_by(y) for x in xs]
                if sum(f.eval(p) for p in paths) != sum(e.eval(p) for p in paths):
                    return False
    return True


@pytest.mark.parametrize("name", ["car", "pascal", "fibonacci", "uhf3", "mixed"])
def test_prefix_sum_check_matches_the_segment_walk(name, monkeypatch):
    # Against the true expectation both sides hold; against one moved by
    # +1 at a path p and -1 at a path q they hold exactly when p and q
    # continue one segment, i.e. share a level-n tail class.
    d = MIXED if name == "mixed" else builtin_diagram(name)
    rng = random.Random(43)
    true_expect = expectation.expect
    for m in range(5):
        for n in range(m + 1):
            f = random_cylinder(d, rng.randint(0, m), rng)
            assert prefix_sum_check(f, n, m) is True
            assert _prefix_sums_hold_by_segments(f, true_expect(f, n), n, m)
            classes, class_of = d.tail_classes(m, n)
            for same_class in (True, False):
                p = rng.randrange(len(d.paths(m)))
                q = rng.choice(classes[class_of[p]]) if same_class else rng.randrange(len(d.paths(m)))
                bits = [0] * len(d.paths(m))
                bits[p] += 1
                bits[q] -= 1
                moved = true_expect(f, n) + CylinderFunction(d, m, bits)
                monkeypatch.setattr(expectation, "expect", lambda g, k: moved)
                want = _prefix_sums_hold_by_segments(f, moved, n, m)
                assert want == (class_of[p] == class_of[q])
                assert prefix_sum_check(f, n, m) is want
                monkeypatch.setattr(expectation, "expect", true_expect)


def test_prefix_sum_check_fails_when_expect_is_off_at_one_path(pascal, monkeypatch):
    rng = random.Random(47)
    f = random_cylinder(pascal, 3, rng)
    true_expect = expectation.expect
    for p in range(len(pascal.paths(3))):
        bits = [0] * len(pascal.paths(3))
        bits[p] = Scalar(0, 1)
        off = true_expect(f, 1) + CylinderFunction(pascal, 3, bits)
        monkeypatch.setattr(expectation, "expect", lambda g, k: off)
        assert prefix_sum_check(f, 1, 3) is False


def test_level_bounds_checked():
    # An out-of-range level raises before any averaging plan is memoized.
    d = builtin_diagram("car")
    f = random_cylinder(d, 2, random.Random(73))
    for op, n in ((expect, -1), (expect, d.depth + 1), (expect, 9), (class_sum, -1), (class_sum, d.depth + 1)):
        with pytest.raises(ValueError, match="^level %d out of range 0..%d$" % (n, d.depth)):
            op(f, n)
    assert not [key for key in d._memo if key[0] == "averaging"]


def _class_oracle(f, n):
    """The class sum and class mean at each path of f's level, in Fractions,
    over the classes of the path-key oracle."""
    classes, class_of = oracle_tail_classes(f.diagram, f.level, n)
    values = f.table
    sums = [
        (sum((values[g].re for g in cls), Fraction(0)), sum((values[g].im for g in cls), Fraction(0)))
        for cls in classes
    ]
    means = [(re / len(cls), im / len(cls)) for (re, im), cls in zip(sums, classes)]
    return tuple(Scalar(*sums[c]) for c in class_of), tuple(Scalar(*means[c]) for c in class_of)


@pytest.mark.parametrize("d", BUILTIN + SEEDED)
def test_expect_and_class_sum_match_a_fraction_oracle_at_every_level_pair(d):
    rng = random.Random(67)
    for m in range(min(4, d.depth) + 1):
        for n in range(m + 1):
            f = random_cylinder(d, m, rng)
            sums, means = _class_oracle(f, n)
            assert class_sum(f, n).table == sums
            assert expect(f, n).table == means


def test_one_averaging_plan_per_level_pair_and_kind():
    d = builtin_diagram("pascal")
    f = random_cylinder(d, 3, random.Random(71))
    for _ in range(2):
        for n in range(4):
            expect(f, n)
            class_sum(f, n)
    plans = sorted(key for key in d._memo if key[0] == "averaging")
    assert plans == [("averaging", 3, n, mean) for n in range(4) for mean in (False, True)]
    assert not [key for key in d._memo if key[0] == "class_means"]


def _shape(classes, class_of):
    if len(classes) == len(class_of):
        return "singletons"
    return "one" if len(classes) == 1 else "mixed"


@pytest.mark.parametrize(
    "name, shape",
    # car: one class at m = n >= 1, singletons at n = 0; pascal: mixed.
    [("car", "one"), ("car", "singletons"), ("pascal", "mixed")],
)
def test_expectation_suite_fails_when_one_partition_shape_is_off_at_one_entry(name, shape, monkeypatch):
    true_average = expectation.class_average
    hits = []

    def off(f, classes, class_of, scale):
        den, res, ims = true_average(f, classes, class_of, scale)
        if _shape(classes, class_of) != shape:
            return den, res, ims
        hits.append(len(class_of))
        return den, res[:-1] + [res[-1] + den], ims

    monkeypatch.setattr(expectation, "class_average", off)
    (result,) = run_suites(VerifyConfig(source=name, suites=("expectation",)))
    assert hits
    assert not result.passed and result.failure_kind == "counterexample"


@pytest.mark.parametrize("source", ["pascal", "file"])
def test_expectation_suite_averages_each_function_once_per_level_and_kind(source, monkeypatch, tmp_path):
    # One suite run asks for each E_n f (and each class sum) at most once:
    # no call repeats a (function object, n, mean) triple.  Every argument is
    # held, so no id is reused within the run.
    if source == "file":
        path = tmp_path / "mixed.bratteli"
        path.write_text(serialize_diagram(MIXED), encoding="utf-8")
        source = str(path)
    true_averaged = expectation._averaged
    held, seen, repeats = [], set(), []

    def spy(f, n, mean):
        held.append(f)
        key = (id(f), n, mean)
        if key in seen:
            repeats.append((f.level, n, mean))
        seen.add(key)
        return true_averaged(f, n, mean)

    monkeypatch.setattr(expectation, "_averaged", spy)
    (result,) = run_suites(VerifyConfig(source=source, suites=("expectation",)))
    assert result.passed
    assert len(held) > 1000
    assert repeats == []
