"""The words of the unit checks on path ids: ``_toeplitz_word`` and
``_word_kernel`` against the public path forms and the indicator oracles,
and the unit suites' use of ids with no path ranked."""

import pytest
from hypothesis import given, settings, strategies as st

from afpath import (
    BUILTIN_NAMES,
    BratteliDiagram,
    VerifyConfig,
    builtin_diagram,
    run_suites,
    toeplitz_word,
    word_kernel,
)
from afpath import harness
from afpath.af_tower import _toeplitz_word
from afpath.groupoid import _word_kernel
from test_af_tower import _toeplitz_oracle
from test_groupoid import _word_oracle

_BUILTINS = {name: builtin_diagram(name) for name in BUILTIN_NAMES}


@st.composite
def generated_diagrams(draw):
    """A valid diagram of depth 1-3 with 2-3 vertices per level below the
    root, multiplicities 0-2 and a parallel edge at every level."""
    counts = [1] + draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    mats = []
    for rows, cols in zip(counts, counts[1:]):
        mat = [draw(st.lists(st.integers(0, 2), min_size=cols, max_size=cols)) for _ in range(rows)]
        # Every vertex has an out-edge and an in-edge, and one pair of
        # vertices two parallel edges.
        for i, row in enumerate(mat):
            if not any(row):
                row[i % cols] = 1
        for j in range(cols):
            if not any(row[j] for row in mat):
                mat[j % rows][j] = 1
        if 2 not in sum(mat, []):
            mat[0][0] = 2
        mats.append(mat)
    d = BratteliDiagram(counts, mats)
    assert d.validate() == []
    return d


diagrams = st.sampled_from(sorted(_BUILTINS)).map(_BUILTINS.__getitem__) | generated_diagrams()


@settings(deadline=None)
@given(diagrams, st.data())
def test_word_id_forms_match_the_path_forms_and_the_oracles(d, data):
    n = data.draw(st.integers(0, min(2, d.depth)), label="n")
    paths = d.paths(n)
    for m in range(n, min(n + 1, d.depth) + 1):
        for g, gamma in enumerate(paths):
            for h, delta in enumerate(paths):
                word = _toeplitz_word(d, g, h, n, m)
                assert word.level == m
                assert word == toeplitz_word(d, gamma, delta, m) == _toeplitz_oracle(d, gamma, delta, m)
    for g, gamma in enumerate(paths):
        for h, delta in enumerate(paths):
            kernel = _word_kernel(d, g, h, n)
            assert (kernel.support_level, kernel.table_level) == (n, n)
            assert kernel == word_kernel(d, gamma, delta) == _word_oracle(d, gamma, delta)


def test_unit_suites_rank_no_path(monkeypatch):
    # The unit checks read path ids from the level tables; a rank would mean
    # a path was built only to be turned back into its id.
    calls = []
    rank = BratteliDiagram._rank

    def counted(self, m, path):
        calls.append(m)
        return rank(self, m, path)

    monkeypatch.setattr(BratteliDiagram, "_rank", counted)
    for suite in ("matrix_units", "groupoid"):
        [validation, result] = run_suites(VerifyConfig("uhf3", depth=3, suites=("validation", suite)))
        assert validation.passed and result.passed and result.checks > 0
        assert calls == []
    # The spy sees the ranks of the public path form.
    d = builtin_diagram("uhf3", 3)
    gamma, delta = d.paths(2)[:2]
    toeplitz_word(d, gamma, delta)
    assert calls == [2, 2]


@pytest.mark.parametrize(
    "suite, name, label",
    [
        ("matrix_units", "_toeplitz_word", "word-recovery;n=2;pair=0>0#1;0>0#0|0>0#0;0>0#0"),
        ("groupoid", "_word_kernel", "represent-word;n=2;pair=0>0#1;0>0#0|0>0#0;0>0#0"),
    ],
)
def test_a_faulty_word_is_named_by_its_paths(suite, name, label, monkeypatch):
    # The suites hold ids and unrank a pair only for a failed check's label.
    # The labels are those the suites printed when they passed paths to
    # toeplitz_word and word_kernel, with the same words of level-2 id 3 of
    # uhf3 made wrong.
    true_word = getattr(harness, name)

    def faulty(d, g, h, n, *m):
        word = true_word(d, g, h, n, *m)
        return word * 2 if (n, g) == (2, 3) else word

    monkeypatch.setattr(harness, name, faulty)
    (result,) = run_suites(VerifyConfig("uhf3", depth=3, suites=(suite,)))
    assert not result.passed and result.counterexample == label
