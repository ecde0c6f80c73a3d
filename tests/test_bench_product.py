"""The product microbenchmark runs at its smallest size and reports every case."""

import os
import re
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
_LABELS = ["unit x unit", "unit x dense27", "empty x dense27", "dense27 x diag27", "jones x diag", "dense27 x dense27"]
_LABELS += ["dense2 x dense2", "drop2 x drop2", "row2 x diag1", "e3*D x e3", "identity x jones", "Ediag x jones"]
_LABELS += ["blocks10x30 x blocks10x30", "diag41 x ident41"]


def bench_lines(*args):
    out = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "tools", "bench_product.py"), "--calls", "1", "--wide", "2", *args],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout
    lines = out.splitlines()
    assert len(lines) == len(_LABELS)
    for label, line in zip(_LABELS, lines):
        assert line.startswith(label)
    return lines


def test_bench_product_reports_each_case_once():
    for line in bench_lines():
        assert re.search(r" \d+\.\d us/call  \(1 calls\)$", line)


def test_bench_product_compares_two_trees_in_one_process():
    # One tree given twice still loads as two packages, each case timed on both.
    for line in bench_lines("--src", _SRC, "--src", _SRC):
        assert re.search(r" \d+\.\d +\d+\.\d us/call +\d+\.\d{3}x  spread +\d+\.\d{3}  \(1 calls\)$", line)
