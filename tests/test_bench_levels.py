"""The level-table microbenchmark runs at its smallest size and reports every case."""

import os
import re
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_levels_reports_each_builder_and_shape_once():
    out = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "tools", "bench_levels.py"), "--calls", "1"],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout
    deep = [
        "terminals fib20",
        "descendants pascal13",
        "block_paths pascal13",
        "tail_classes pascal13",
        "prefix_ids pascal13",
        "extend_index fib-embed",
        "extend_index car-widen",
        "validate pascal120",
        "embed_multiplicities car15",
        "embed_multiplicities fib20",
        "embed_multiplicities pascal120",
        "indicator_edge car16",
    ]
    builders = ("terminals", "descendants", "block_paths", "tail_classes", "prefix_ids", "extend_index", "validate")
    labels = deep + ["%s %s" % (b, shape) for shape in ("uhf3", "sparse") for b in builders]
    lines = out.splitlines()
    assert len(lines) == len(labels)
    for label, line in zip(labels, lines):
        assert line.startswith(label + " ")
        assert re.search(r" \d+\.\d us/call  \(1 calls\)$", line)
