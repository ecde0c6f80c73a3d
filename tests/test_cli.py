"""End-to-end behavior of the command-line front end (in-process)."""

import gc
import math

import pytest

from afpath.cli import main
from afpath import SUITE_NAMES

DEAD_END = """BRATTELI 1
levels 2
vertices 1 2 1
incidence 0
1 1
incidence 1
1
0
"""

ORPHAN = """BRATTELI 1
levels 2
vertices 1 1 2
incidence 0
1
incidence 1
1 0
"""

GARBAGE = "this is not a diagram\n"


def test_validate_builtin(capsys):
    assert main(["validate", "car"]) == 0
    out = capsys.readouterr().out
    assert out == "valid: depth=5 vertices=1 1 1 1 1 1\n"


def test_validate_with_depth(capsys):
    assert main(["validate", "pascal", "--depth", "3"]) == 0
    assert capsys.readouterr().out == "valid: depth=3 vertices=1 2 3 4\n"


def test_validate_invalid_file(tmp_path, capsys):
    p = tmp_path / "bad.bratteli"
    p.write_text(DEAD_END)
    assert main(["validate", str(p)]) == 1
    out = capsys.readouterr().out
    assert "(e) level=1 vertex=1" in out
    assert out.strip().endswith("invalid: 1 violation")


def test_parse_error_exits_2(tmp_path, capsys):
    p = tmp_path / "junk.bratteli"
    p.write_text(GARBAGE)
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1:")


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_builtin_depth_errors(capsys):
    assert main(["validate", "car", "--depth", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_counts_all_levels(capsys):
    assert main(["counts", "fibonacci", "--depth", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "level 0: vertices=1 counts=1 total=1",
        "level 1: vertices=2 counts=1 1 total=2",
        "level 2: vertices=2 counts=2 1 total=3",
        "level 3: vertices=2 counts=3 2 total=5",
    ]


def test_counts_single_level(capsys):
    assert main(["counts", "pascal", "--level", "3"]) == 0
    assert capsys.readouterr().out == "level 3: vertices=4 counts=1 3 3 1 total=8\n"


def test_counts_deep_diagram_does_not_recurse(capsys):
    assert main(["counts", "car", "--depth", "1200", "--level", "1200"]) == 0
    assert capsys.readouterr().out == "level 1200: vertices=1 counts=%d total=%d\n" % (2**1200, 2**1200)


def test_counts_level_out_of_range(capsys):
    assert main(["counts", "pascal", "--level", "9"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("level", [-1, 7])
def test_counts_level_out_of_range_prints_only_the_diagram_error(level, capsys):
    assert main(["counts", "pascal", "--level", str(level)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: level %d out of range 0..6\n" % level


def test_counts_rejects_invalid_diagram(tmp_path, capsys):
    p = tmp_path / "bad.bratteli"
    p.write_text(DEAD_END)
    assert main(["counts", str(p)]) == 1
    captured = capsys.readouterr()
    assert "invalid diagram:" in captured.err
    assert "(e)" in captured.err


def test_dims_table(capsys):
    assert main(["dims", "pascal", "--max-level", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "level 0: blocks=1 dimension=1"
    assert out[-1] == "level 3: blocks=1 3 3 1 dimension=20"


def test_embed_matrix(capsys):
    assert main(["embed-matrix", "fibonacci", "--level", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["# realized multiplicities, stage 2 -> 3", "1 1", "1 0", "match=yes"]


def test_embed_matrix_deep_chain_does_not_recurse(tmp_path, capsys):
    p = tmp_path / "chain.bratteli"
    p.write_text(
        "BRATTELI 1\nlevels 400\nvertices %s\n" % " ".join(["1"] * 401)
        + "".join("incidence %d\n1\n" % n for n in range(400))
    )
    assert main(["embed-matrix", str(p), "--level", "399"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "match=yes"


def test_deep_counts_dims_validate_build_no_dense_row(monkeypatch, capsys):
    from afpath import diagram

    def refuse(pairs, width):
        raise AssertionError("dense row built")

    monkeypatch.setattr(diagram, "_dense_row", refuse)
    for command in ("validate", "counts", "dims"):
        assert main([command, "pascal", "--depth", "300"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "valid: depth=300 vertices=%s" % " ".join(str(c) for c in range(1, 302))
    assert out[301].endswith(" total=%d" % 2**300)
    assert out[-1].endswith(" dimension=%d" % math.comb(600, 300))


def test_counts_dims_keep_no_level_counts(monkeypatch, capsys):
    from afpath.diagram import BratteliDiagram

    def refuse(d):
        raise AssertionError("every level's counts kept")

    monkeypatch.setattr(BratteliDiagram, "_level_counts", refuse)
    assert main(["counts", "pascal", "--depth", "40"]) == 0
    assert main(["counts", "pascal", "--depth", "40", "--level", "7"]) == 0
    assert main(["dims", "pascal", "--depth", "40", "--max-level", "9"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 41 + 1 + 10
    assert out[40].endswith(" total=%d" % 2**40)
    assert out[41] == "level 7: vertices=8 counts=%s total=128" % " ".join(
        str(math.comb(7, k)) for k in range(8)
    )
    assert out[-1] == "level 9: blocks=%s dimension=%d" % (
        " ".join(str(math.comb(9, k)) for k in range(10)),
        math.comb(18, 9),
    )


def test_main_leaves_no_garbage(capsys):
    # A parser is a reference cycle, so main must not build one per call.
    main(["verify", "car", "--depth", "2", "--samples", "1"])
    gc.disable()
    try:
        gc.collect()
        for argv in (["verify", "car", "--depth", "2", "--samples", "1"], ["counts", "car"]):
            assert main(argv) == 0
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


def test_embed_matrix_reads_one_dense_level(monkeypatch, capsys):
    from afpath.diagram import BratteliDiagram

    levels = []
    dense_level = BratteliDiagram._dense_level

    def record(d, n):
        levels.append(n)
        return dense_level(d, n)

    monkeypatch.setattr(BratteliDiagram, "_dense_level", record)
    assert main(["embed-matrix", "pascal", "--depth", "300", "--level", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "match=yes"
    assert levels == [5]


def test_embed_matrix_level_bounds(capsys):
    assert main(["embed-matrix", "car", "--level", "5"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_embed_matrix_requires_level():
    with pytest.raises(SystemExit) as exc:
        main(["embed-matrix", "car"])
    assert exc.value.code == 2


def test_verify_small_run(capsys):
    rc = main(["verify", "car", "--depth", "2", "--samples", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# verify source=car depth=2 seed=7 samples=2 rng=mt19937-strseed"
    assert lines[-1] == "RESULT PASS"
    assert len(lines) == 2 + len(SUITE_NAMES)


def test_verify_suite_filter(capsys):
    rc = main(["verify", "car", "--depth", "2", "--samples", "2", "--suite", "expectation"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("SUITE expectation PASS checks=")


def test_verify_repeated_suites(capsys):
    rc = main(
        [
            "verify",
            "car",
            "--depth",
            "2",
            "--samples",
            "2",
            "--suite",
            "cylinder",
            "--suite",
            "combinatorics",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    names = [l.split()[1] for l in out.splitlines() if l.startswith("SUITE ")]
    # report order follows the canonical suite order, not the flag order
    assert names == ["combinatorics", "cylinder"]


def test_verify_unknown_suite_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "car", "--suite", "nope"])
    assert exc.value.code == 2


def test_verify_invalid_diagram_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.bratteli"
    p.write_text(ORPHAN)
    rc = main(["verify", str(p)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "SUITE validation FAIL" in out
    assert "(f)" in out
    assert out.strip().endswith("RESULT FAIL")


def test_verify_reports_are_byte_identical(capsys):
    assert main(["verify", "fibonacci", "--depth", "3", "--samples", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "fibonacci", "--depth", "3", "--samples", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_seed_changes_nothing_about_passing(capsys):
    assert main(["verify", "car", "--depth", "2", "--samples", "2", "--seed", "99"]) == 0
    out = capsys.readouterr().out
    assert "seed=99" in out.splitlines()[0]
    assert out.strip().endswith("RESULT PASS")


def test_verify_admits_car_below_its_block_levels(capsys):
    # Pair tables stop at level 4, so car at depth 12 needs only its 4096
    # paths, under the default cap.
    assert main(["verify", "car", "--depth", "12", "--samples", "5"]) == 0
    assert capsys.readouterr().out.endswith("RESULT PASS\n")


def test_verify_refuses_car_at_depth_17(capsys):
    assert main(["verify", "car", "--depth", "17"]) == 1
    out = capsys.readouterr().out
    assert "SUITE resource FAIL checks=0 counterexample=resource-limit:needed=131072,cap=100000" in out


def test_verify_resource_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AF_TAIL_MAX_ENTRIES", "10")
    rc = main(["verify", "car"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "SUITE resource FAIL" in out
    assert "AF_TAIL_MAX_ENTRIES" in out
