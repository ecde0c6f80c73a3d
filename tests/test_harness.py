"""The verification harness: configs, determinism, suite plumbing, reports."""

import gc
import random
import tracemalloc
import weakref

import pytest

from afpath import (
    AfElement,
    CylinderFunction,
    GroupoidFunction,
    VerifyConfig,
    SUITE_NAMES,
    builtin_diagram,
    matrix_unit,
    random_cylinder,
    run_suites,
    render_report,
)
from afpath.harness import (
    _FACTORS,
    _random_numerators,
    MAX_ENTRIES_VAR,
    DEFAULT_MAX_ENTRIES,
    _Context,
    _unit_ids,
    _unit_pairs,
    estimate_max_table,
    max_entries_cap,
    resolve_diagram,
    truncate_diagram,
)

INVALID_DEAD_END = """BRATTELI 1
levels 2
vertices 1 2 1
incidence 0
1 1
incidence 1
1
0
"""

INVALID_ORPHAN = """BRATTELI 1
levels 2
vertices 1 1 2
incidence 0
1
incidence 1
1 0
"""

# One vertex per level with 7, 7 and 6 parallel edges: one block of 7, 49
# and 294 paths at levels 1, 2 and 3.
WIDE_776 = """BRATTELI 1
levels 3
vertices 1 1 1 1
incidence 0
7
incidence 1
7
incidence 2
6
"""


def small_config(**kw):
    base = dict(source="car", depth=2, seed=7, samples=3)
    base.update(kw)
    return VerifyConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        VerifyConfig(source="car", depth=0)
    with pytest.raises(ValueError):
        VerifyConfig(source="car", samples=0)
    with pytest.raises(ValueError):
        VerifyConfig(source="car", seed=-1)
    with pytest.raises(ValueError):
        VerifyConfig(source="car", suites=("expectation", "nope"))


def test_resolve_builtin_and_file(tmp_path):
    d = resolve_diagram(VerifyConfig(source="gicar", depth=3))
    assert d.vertex_counts == builtin_diagram("pascal", 3).vertex_counts
    p = tmp_path / "d.bratteli"
    p.write_text(INVALID_DEAD_END)
    d2 = resolve_diagram(VerifyConfig(source=str(p)))
    assert d2.vertex_counts == (1, 2, 1)


def test_truncate_diagram():
    full = builtin_diagram("fibonacci", 6)
    cut = truncate_diagram(full, 3)
    assert cut.depth == 3
    assert cut.vertex_counts == full.vertex_counts[:4]
    assert cut.incidence == full.incidence[:3]
    with pytest.raises(ValueError):
        truncate_diagram(full, 9)


def test_random_cylinder_is_seed_deterministic(car):
    f = random_cylinder(car, 3, random.Random("x"))
    g = random_cylinder(car, 3, random.Random("x"))
    h = random_cylinder(car, 3, random.Random("y"))
    assert f.table == g.table
    assert f.table != h.table


def test_run_suites_all_pass():
    config = small_config()
    results = run_suites(config)
    assert [r.name for r in results] == list(SUITE_NAMES)
    assert all(r.passed for r in results)
    assert all(r.checks > 0 for r in results)


def test_run_suites_filter():
    config = small_config(suites=("expectation",))
    results = run_suites(config)
    assert [r.name for r in results] == ["expectation"]
    config = small_config(suites=("validation", "combinatorics"))
    results = run_suites(config)
    assert [r.name for r in results] == ["validation", "combinatorics"]


def test_invalid_diagram_short_circuits(tmp_path):
    p = tmp_path / "bad.bratteli"
    p.write_text(INVALID_DEAD_END)
    results = run_suites(VerifyConfig(source=str(p), suites=("tower",)))
    assert len(results) == 1
    r = results[0]
    assert r.name == "validation" and not r.passed
    assert "(e)" in r.counterexample
    assert r.failure_kind == "counterexample"


def test_orphan_diagram_names_condition_f(tmp_path):
    p = tmp_path / "bad.bratteli"
    p.write_text(INVALID_ORPHAN)
    results = run_suites(VerifyConfig(source=str(p)))
    assert len(results) == 1
    assert "(f)" in results[0].counterexample


def test_resource_cap(monkeypatch):
    monkeypatch.setenv(MAX_ENTRIES_VAR, "10")
    results = run_suites(VerifyConfig(source="car"))
    assert len(results) == 1
    r = results[0]
    assert r.name == "resource"
    assert not r.passed
    assert r.failure_kind == "resource"
    assert MAX_ENTRIES_VAR in r.counterexample


def test_resource_cap_permits_small_runs(monkeypatch):
    monkeypatch.setenv(MAX_ENTRIES_VAR, "50")
    results = run_suites(small_config(suites=("combinatorics",)))
    assert [r.name for r in results] == ["combinatorics"]
    assert results[0].passed


def test_max_entries_cap_parsing(monkeypatch):
    monkeypatch.delenv(MAX_ENTRIES_VAR, raising=False)
    assert max_entries_cap() == DEFAULT_MAX_ENTRIES
    monkeypatch.setenv(MAX_ENTRIES_VAR, "123")
    assert max_entries_cap() == 123
    monkeypatch.setenv(MAX_ENTRIES_VAR, "zero")
    with pytest.raises(ValueError):
        max_entries_cap()
    monkeypatch.setenv(MAX_ENTRIES_VAR, "0")
    with pytest.raises(ValueError):
        max_entries_cap()


def test_estimate_max_table():
    # Block stages count only down to UNIT_LEVEL + 1 = 4: car's 16x16 stage
    # there outweighs its 32 paths at level 5.
    car5 = builtin_diagram("car", 5)
    assert estimate_max_table(car5) == 256
    pas2 = builtin_diagram("pascal", 2)
    assert estimate_max_table(pas2) == 6  # blocks 1, 2, 1
    # Past level 4 only the paths count: 2^17 of them.
    assert estimate_max_table(builtin_diagram("car", 17)) == 131072


def test_estimate_bounds_every_table_built(monkeypatch):
    # Each table the suites build goes through one of these constructors; a
    # check that tabulates deeper than the level plan exceeds the estimate.
    sizes = []

    def probe(cls, name, size):
        original = getattr(cls, name).__func__

        def record(klass, *args):
            x = original(klass, *args)
            sizes.append(size(x))
            return x

        monkeypatch.setattr(cls, name, classmethod(record))

    probe(AfElement, "_from_index", AfElement.nnz)
    probe(GroupoidFunction, "_from_index", GroupoidFunction.nnz)
    probe(CylinderFunction, "_from_form", lambda f: len(f._form[1]))
    config = VerifyConfig("uhf3", depth=6, samples=3)
    assert all(r.passed for r in run_suites(config))
    assert max(sizes) == estimate_max_table(builtin_diagram("uhf3", 6)) == 81 * 81


def test_report_is_deterministic():
    config = small_config()
    a = render_report(config, run_suites(config), depth=2)
    b = render_report(config, run_suites(config), depth=2)
    assert a == b
    assert a.startswith("# verify source=car depth=2 seed=7 samples=3 rng=mt19937-strseed\n")
    assert a.endswith("RESULT PASS\n")
    for name in SUITE_NAMES:
        assert ("SUITE %s PASS checks=" % name) in a


def test_report_failure_line(tmp_path):
    p = tmp_path / "bad.bratteli"
    p.write_text(INVALID_DEAD_END)
    config = VerifyConfig(source=str(p))
    report = render_report(config, run_suites(config), depth=2)
    lines = report.strip().splitlines()
    assert lines[-1] == "RESULT FAIL"
    fail = [l for l in lines if l.startswith("SUITE validation FAIL")]
    assert len(fail) == 1
    assert "counterexample=" in fail[0]
    assert " " not in fail[0].split("counterexample=")[1]


def test_different_seeds_change_samples():
    d = builtin_diagram("car", 3)
    f = random_cylinder(d, 2, random.Random("7:expectation"))
    g = random_cylinder(d, 2, random.Random("8:expectation"))
    assert f.table != g.table


@pytest.mark.parametrize("count", [0, 1, 7, 41])
def test_random_numerators_make_the_draws_of_randint_and_choice(count):
    for seed in range(50):
        rng, public = random.Random(seed), random.Random(seed)
        got = _random_numerators(rng, count)
        want = ([], [])
        for _ in range(count):
            for part in want:
                part.append(public.randint(-9, 9) * public.choice(_FACTORS))
        assert got == want
        assert rng.random() == public.random()


def test_a_verified_diagram_is_freed_by_reference_counting():
    gc.disable()
    try:
        d = builtin_diagram("pascal", 3)
        results = run_suites(VerifyConfig("pascal", depth=3, samples=2), d)
        assert [r.name for r in results] == list(SUITE_NAMES)
        assert all(r.passed for r in results)
        ref = weakref.ref(d)
        del d
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("suite, bound_mb", [("matrix_units", 1.0), ("groupoid", 2.5)])
def test_unit_suites_build_each_unit_where_they_read_it(tmp_path, suite, bound_mb):
    # At depth 2 the 49-path block has 2,401 units.  Suites that hold a
    # table of every unit of a level peak at about 1.8 MB (matrix_units)
    # and 4.1 MB (groupoid) here; building each unit at its check keeps
    # them at about 0.5 and 1.2 MB.
    p = tmp_path / "d776.bratteli"
    p.write_text(WIDE_776)
    config = VerifyConfig(str(p), depth=2, samples=5, suites=(suite,))
    d = resolve_diagram(config)
    tracemalloc.start()
    try:
        results = run_suites(config, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.passed for r in results] == [True]
    assert peak < bound_mb * 2**20


def test_sampled_unit_pairs_draw_as_a_row_index_of_the_units_would():
    # Pascal's level 5 has blocks of 1, 5, 10, 10, 5 and 1 paths: 252 units,
    # too many to pair exhaustively.  The composable half draws the second
    # unit from the first unit's column, in block order.
    d = builtin_diagram("pascal", 5)
    ids = _unit_ids(d, 5)
    got = _unit_pairs(d, 5, ids, _Context(d, VerifyConfig("pascal", samples=3)), random.Random(1))
    rng = random.Random(1)
    by_row = {}
    for a, b in ids:
        by_row.setdefault(a, []).append((a, b))
    want = [(rng.choice(ids), rng.choice(ids)) for _ in range(100)]
    for _ in range(100):
        x = rng.choice(ids)
        want.append((x, rng.choice(by_row[x[1]])))
    assert [((a, b), (c, e)) for (a, b, _), (c, e, _) in got] == want
    paths = d.paths(5)
    for x, y in got:
        for a, b, u in (x, y):
            assert u == matrix_unit(d, paths[a], paths[b])
