"""Tests of the afpath benchmark itself.

    python3 -m pytest afbench/tests

Each workload is run once end to end through ``afbench/run.py`` with
``--seconds 0`` (a single pass, the smallest run the benchmark makes), so
the correctness gate compares every output with its recorded digest.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "afbench")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import afpath  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    out = subprocess.run([sys.executable, script] + [str(a) for a in args],
                         cwd=cwd, capture_output=True, text=True, timeout=300)
    return out


def result_of(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_pass_of_each_workload_is_correct(workload):
    result = result_of(bench("--workload", workload, "--seed", 3, "--seconds", 0, "--trace", 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0  # failed_ratio is 0 on the current code
    assert result["attempted"] == len(workloads.prepare(workload, 3))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_and_the_same_digests():
    # The gate compares the outputs of the untraced and the traced pass with
    # the same recorded digests, so "correct" means they are identical.
    result = result_of(bench("--workload", "verify-sparse", "--seed", 3, "--seconds", 0, "--trace", 1))
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2 * len(workloads.prepare("verify-sparse", 3))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    # Calls made through names harness imported directly are measured.
    assert metrics["groupoid.convolve.calls"] > 0
    assert metrics["af_tower.mul.calls"] > 0
    assert metrics["expectation.calls"] > 0
    assert metrics["harness.groupoid.checks"] > 0


def test_calibrated_pass_sums_per_job_time_relative_to_the_reference():
    samples = {
        # On a host running at half speed a job and its references take twice as long.
        "a": [(1.0, run.REF_S), (2.0, 2 * run.REF_S), (3.0, 3 * run.REF_S)],
        "b": [(0.5, 2 * run.REF_S)],
    }
    assert run.calibrated_pass(samples) == pytest.approx(1.0 + 0.25)
    assert run.raw_pass(samples) == pytest.approx(2.0 + 0.5)


def test_install_rebinds_directly_imported_names_and_uninstall_restores_them():
    from afpath import groupoid, harness

    originals = (harness.convolve, groupoid.convolve, afpath.convolve, harness.expect,
                 afpath.AfElement.__mul__, afpath.CylinderFunction.__radd__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.convolve is groupoid.convolve is afpath.convolve
        assert harness.convolve.__wrapped__ is originals[0]
        assert harness.expect.__wrapped__ is originals[3]
        assert afpath.CylinderFunction.__radd__ is afpath.CylinderFunction.__add__
    finally:
        tracer.uninstall()
    assert (harness.convolve, groupoid.convolve, afpath.convolve, harness.expect,
            afpath.AfElement.__mul__, afpath.CylinderFunction.__radd__) == originals


def _fibonacci_job():
    (job,) = [j for j in workloads.prepare("verify-sparse", 3) if j.label == "fibonacci"]
    return job


def test_gate_flags_a_report_with_one_flipped_byte():
    digests = workloads.load_digests()
    job = _fibonacci_job()
    rc, report = job.run()
    assert job.check((rc, report), digests) is None
    i = report.index("checks=") + len("checks=")
    flipped = report[:i] + chr(ord(report[i]) ^ 1) + report[i + 1:]
    assert len(flipped) == len(report) and flipped != report
    assert "digest" in job.check((rc, flipped), digests)
    assert "RESULT PASS" in job.check((rc, report.replace("RESULT PASS", "RESULT PAST")), digests)


def test_gate_flags_a_deep_cold_table_with_one_flipped_byte():
    digests = workloads.load_digests()
    (job,) = [j for j in workloads.prepare("deep-cold", 3) if j.label == "fibonacci-embed-matrix"]
    rc, text = job.run()
    assert job.check((rc, text), digests) is None
    assert job.check((rc, text.replace("match=yes", "match=yez")), digests) is not None


def test_relabelled_sparse_diagrams_give_the_recorded_report():
    digests = workloads.load_digests()
    base = workloads.sparse_diagram(3).incidence
    for seed in (3 + workloads.VARIANTS, 3 + 5 * workloads.VARIANTS):
        assert workloads.sparse_diagram(seed).incidence != base
        jobs = [j for j in workloads.prepare("verify-sparse", seed) if j.label.startswith("sparse-file")]
        assert len(jobs) == 3
        for job in jobs:
            assert job.check(job.run(), digests) is None


def test_split_verify_jobs_run_every_suite_on_every_diagram():
    for workload, specs in workloads.VERIFY_JOBS.items():
        suites = {}
        for source, depth, names in specs:
            got = suites.setdefault((source, depth), [])
            got += ("validation",) + names if names else afpath.SUITE_NAMES
        for got in suites.values():
            # Validation runs in every job; every other suite runs once.
            assert set(got) == set(afpath.SUITE_NAMES), workload
            assert len(got) - got.count("validation") == len(afpath.SUITE_NAMES) - 1, workload


def test_sparse_file_has_the_fixed_shape():
    d = workloads.write_sparse_file(11)
    assert d.validate() == []
    assert d.vertex_counts == workloads.SPARSE_COUNTS
    assert [sum(d.path_count(v) for v in d.vertices(n)) for n in range(5)] == [1, 4, 9, 21, 41]
    assert max(x for mat in d.incidence for row in mat for x in row) == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "afbench", ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    out = bench("--workload", "deep-cold", "--seed", 1, "--seconds", 1, "--trace", 0,
                cwd=tmp_path, script=str(tmp_path / "afbench" / "run.py"))
    assert out.returncode != 0
    assert out.stdout == ""
