"""Summarize paired afbench runs of a parent commit and a change into one JSON file.

    python3 tools/bench_summary.py --parent SHA --change SHA --out BENCH_6.json \\
        afbench/results/*.json

Each result file named on the command line is one ``afbench/run.py --trace 0``
run; files are grouped by their ``git_sha``, and files of other commits or of
traced runs are ignored.  For each workload the output gives the median of
``pass_s``, ``setup_s`` and ``peak_rss_mb`` over the parent's and the
change's runs, the distance between the quartiles of the parent's runs, and,
over the seeds both commits ran, how many pairs the change won (all three
metrics are better when lower).

It also records the sha256 of the ``afpath verify <built-in>`` report at
default settings, run from ``src/`` of this checkout and, with
``--parent-src``, from the parent's ``src/`` too, so that the output shows
whether any report byte changed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("pass_s", "setup_s", "peak_rss_mb")
BUILTINS = ("car", "pascal", "fibonacci", "uhf3")


def load(paths):
    """The untraced run records among the named result files."""
    records = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("trace") == 0:
            records.append(record)
    return records


def summarize(records, parent, change):
    """Per workload: run counts, per-metric medians and pair wins."""
    runs = {}
    for record in records:
        side = {parent: "parent", change: "change"}.get(record.get("git_sha"))
        if side is not None:
            runs.setdefault(record["workload"], {"parent": {}, "change": {}})[side][record["seed"]] = record["metrics"]
    out = {}
    for workload, sides in sorted(runs.items()):
        seeds = sorted(set(sides["parent"]) & set(sides["change"]))
        metrics = {}
        for name in METRICS:
            entry = {}
            for side in ("parent", "change"):
                values = [m[name] for m in sides[side].values()]
                entry[side] = statistics.median(values) if values else None
            parent_runs = [m[name] for m in sides["parent"].values()]
            if len(parent_runs) >= 2:
                low, _, high = statistics.quantiles(parent_runs, n=4)
                entry["parent_iqr"] = high - low
            else:
                entry["parent_iqr"] = None
            entry["pairs"] = len(seeds)
            entry["change_wins"] = sum(
                1 for s in seeds if sides["change"][s][name] < sides["parent"][s][name]
            )
            metrics[name] = entry
        out[workload] = {
            "runs": {side: len(sides[side]) for side in ("parent", "change")},
            "paired_seeds": seeds,
            "metrics": metrics,
        }
    return out


def report_digest(src, name):
    """The sha256 of ``afpath verify <name>`` at default settings, run from src."""
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-m", "afpath", "verify", name],
        env=env, capture_output=True, timeout=600, check=True,
    )
    return hashlib.sha256(out.stdout).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--parent", required=True, help="git sha of the parent commit's runs")
    ap.add_argument("--change", required=True, help="git sha of the change's runs")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    ap.add_argument("--parent-src", help="src/ directory of a checkout of the parent commit")
    ap.add_argument("results", nargs="+", help="afbench/results/*.json files")
    args = ap.parse_args(argv)
    sources = {"change": os.path.join(ROOT, "src")}
    if args.parent_src:
        sources["parent"] = args.parent_src
    reports = {
        name: {side: report_digest(src, name) for side, src in sources.items()}
        for name in BUILTINS
    }
    summary = {
        "parent": args.parent,
        "change": args.change,
        "metrics_better": "lower",
        "workloads": summarize(load(args.results), args.parent, args.change),
        "verify_sha256": reports,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
