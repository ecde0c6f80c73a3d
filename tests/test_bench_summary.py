"""The BENCH summary script on fixture result files."""

import hashlib
import importlib.util
import json
import os

from afpath.cli import main as afpath_main

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_summary.py")
_spec = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)


def _record(tmp_path, sha, workload, seed, pass_s, setup_s=0.1, rss=40.0, trace=0):
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": sha,
        "metrics": {"pass_s": pass_s, "setup_s": setup_s, "peak_rss_mb": rss},
    }
    path = tmp_path / ("%s-%s-%d-%d.json" % (sha, workload, seed, trace))
    path.write_text(json.dumps(record))
    return str(path)


def test_summary_groups_runs_by_commit_and_counts_pair_wins(tmp_path):
    files = [
        _record(tmp_path, "p", "verify-sparse", 1, 3.0),
        _record(tmp_path, "p", "verify-sparse", 2, 3.4, setup_s=0.2),
        _record(tmp_path, "p", "verify-sparse", 3, 3.2),
        _record(tmp_path, "c", "verify-sparse", 1, 2.0, rss=41.0),
        _record(tmp_path, "c", "verify-sparse", 2, 3.5),
        # Unpaired, traced and foreign runs: counted, skipped, skipped.
        _record(tmp_path, "c", "verify-sparse", 9, 1.0),
        _record(tmp_path, "c", "verify-sparse", 3, 0.5, trace=1),
        _record(tmp_path, "x", "verify-sparse", 3, 0.5),
        _record(tmp_path, "c", "deep-cold", 1, 1.5),
    ]
    summary = bench_summary.summarize(bench_summary.load(files), "p", "c")
    sparse = summary["verify-sparse"]
    assert sparse["runs"] == {"parent": 3, "change": 3}
    assert sparse["paired_seeds"] == [1, 2]
    assert sparse["metrics"]["pass_s"] == {
        "parent": 3.2, "change": 2.0, "parent_iqr": 3.4 - 3.0, "pairs": 2, "change_wins": 1,
    }
    assert sparse["metrics"]["setup_s"]["change_wins"] == 1
    assert sparse["metrics"]["peak_rss_mb"]["change_wins"] == 0
    cold = summary["deep-cold"]
    assert cold["runs"] == {"parent": 0, "change": 1}
    assert cold["metrics"]["pass_s"] == {
        "parent": None, "change": 1.5, "parent_iqr": None, "pairs": 0, "change_wins": 0,
    }


def test_report_digest_is_the_sha256_of_the_verify_report(capsys):
    assert afpath_main(["verify", "fibonacci"]) == 0
    want = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert bench_summary.report_digest(os.path.join(os.path.dirname(_PATH), "..", "src"), "fibonacci") == want
