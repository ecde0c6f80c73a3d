"""The suite timer runs car at depth 2 and reports the CLI's report digests."""

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys

from afpath.cli import main as afpath_main

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
_SUITES = ("matrix_units", "groupoid")


def bench_lines(*args):
    suites = [arg for suite in _SUITES for arg in ("--suite", suite)]
    out = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "tools", "bench_suites.py"), "car", "--depth", "2", "--rounds", "2", *suites, *args],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout
    lines = out.splitlines()
    assert len(lines) == len(_SUITES)
    return lines


def cli_sha256(suite):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert afpath_main(["verify", "car", "--depth", "2", "--suite", suite]) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def test_bench_suites_times_each_suite_with_the_cli_report_digest():
    for suite, line in zip(_SUITES, bench_lines()):
        m = re.fullmatch(r"(\w+) +\d+\.\d{3} s  sha256 ([0-9a-f]{64})  \(2 rounds\)", line)
        assert m and m.group(1) == suite
        assert m.group(2) == cli_sha256(suite)


def test_bench_suites_compares_two_trees_in_one_process():
    # One tree given twice still loads as two packages, each suite run on both.
    for suite, line in zip(_SUITES, bench_lines("--src", _SRC, "--src", _SRC)):
        m = re.fullmatch(
            r"(\w+) +\d+\.\d{3} +\d+\.\d{3} s +\d+\.\d{3}x  spread +\d+\.\d{3}  sha256 ([0-9a-f]{64}) ([0-9a-f]{64})  \(2 rounds\)",
            line,
        )
        assert m and m.group(1) == suite
        assert m.group(2) == m.group(3) == cli_sha256(suite)
