"""The averaging microbenchmark runs at its smallest size and reports every case."""

import os
import re
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_expect_reports_each_map_and_shape_once():
    out = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "tools", "bench_expect.py"), "--calls", "1"],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout
    labels = ["%s %s" % (op, shape) for shape in ("one-class", "singletons", "mixed") for op in ("expect", "class_sum")]
    labels.append("quasi-basis mixed")
    lines = out.splitlines()
    assert len(lines) == len(labels)
    for label, line in zip(labels, lines):
        assert line.startswith(label + " ")
        assert re.search(r" \d+\.\d us/call  \(1 calls\)$", line)
