"""The product microbenchmark runs at its smallest size and reports every case."""

import os
import re
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_product_reports_each_case_once():
    out = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "tools", "bench_product.py"), "--calls", "1", "--wide", "2"],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout
    labels = ["unit x unit", "unit x dense27", "empty x dense27", "dense27 x diag27", "jones x diag", "dense27 x dense27", "dense2 x dense2"]
    labels += ["drop2 x drop2", "row2 x diag1", "e3*D x e3", "identity x jones", "Ediag x jones"]
    lines = out.splitlines()
    assert len(lines) == len(labels)
    for label, line in zip(labels, lines):
        assert line.startswith(label)
        assert re.search(r" \d+\.\d us/call  \(1 calls\)$", line)
