"""Benchmark runner for afpath: one workload, one seed, one fresh process.

    python3 afbench/run.py --workload verify-dense --seed 3 --seconds 30 --trace 0

One closed-loop client runs the workload's job list again and again (each
job starts only after the previous one returned) until ``--seconds`` have
passed.  Each job's output is checked after the job, outside the timed
region.

The host this benchmark was defined on, a shared virtual machine, changes
speed by up to 2x within a minute.  So every job is timed between two runs
of a fixed reference kernel (a Fraction matrix product in this file, which no
change to afpath touches), and each job's time is taken relative to theirs.

``--trace 0`` reports the end-to-end metrics: ``pass_s`` (the time one pass
over the job list takes), ``setup_s`` (median, over several fresh
interpreters, of the time from interpreter start to the first job), both
calibrated to the reference kernel, and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of the traced ones, plus
``trace.overhead_s``.

Every run writes a result file with its provenance and raw samples to
``afbench/results/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_PROBES = 11

UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# The reference kernel: a dense product of two fixed 26x26 Fraction matrices
# held in dicts, the same kind of work as afpath's exact block products.
# REF_S is its time on a quiet host (a 2-core x86-64 VM, Python 3.11), so a
# calibrated time reads as seconds on that host.
REF_N = 26
REF_S = 0.060
_ref_rng = random.Random("afbench-reference")
REF_MATRIX = {(i, j): Fraction(_ref_rng.randint(-9, 9), _ref_rng.randint(1, 9))
              for i in range(REF_N) for j in range(REF_N)}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def loadavg():
    try:
        with open("/proc/loadavg", "r", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def reference_kernel():
    """Seconds the reference kernel takes right now: how fast the host runs."""
    a = REF_MATRIX
    t0 = time.perf_counter()
    c = {}
    for (i, k), x in a.items():
        for j in range(REF_N):
            c[i, j] = c.get((i, j), 0) + x * a[k, j]
    return time.perf_counter() - t0


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def setup_probe(workload, seed):
    """Measure set-up in a fresh interpreter: spawn to the first job, in seconds.

    ``time.perf_counter`` is the system-wide monotonic clock on Linux, so the
    child's reading minus the parent's reading before the spawn spans
    interpreter start, ``import afpath`` and the workload's set-up.
    """
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if out.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % out.stderr.strip())
    return float(out.stdout.split()[-1]) - t0


def run_job(job, digests, failures):
    """Run one job and check its output; return (seconds it took, report).

    A job that raises or fails its check is recorded in ``failures`` and the
    run goes on.  The output is dropped after its check, so that
    ``peak_rss_mb`` reflects one job at a time; only a verify report is
    returned (else None), for the traced run's check counts.
    """
    t0 = time.perf_counter()
    try:
        output = job.run()
    except Exception as exc:  # a failed job must not end the run
        elapsed = time.perf_counter() - t0
        failures.append("%s: raised %s: %s" % (job.label, type(exc).__name__, exc))
        return elapsed, None
    elapsed = time.perf_counter() - t0
    try:
        reason = job.check(output, digests)
    except Exception as exc:
        reason = "%s: check raised %s: %s" % (job.label, type(exc).__name__, exc)
    if reason is not None:
        failures.append(reason)
    return elapsed, output[1] if job.is_verify else None


def measure(jobs, digests, seconds, failures):
    """Run the job list round-robin for ``seconds``; return samples per job.

    A sample is (seconds the job took, mean of the reference kernel's time
    just before and just after it).  Every job runs at least once; after the
    deadline the run stops at the next job boundary.
    """
    samples = {job.label: [] for job in jobs}
    ref_before = reference_kernel()
    deadline = time.perf_counter() + seconds
    while True:
        for job in jobs:
            if time.perf_counter() >= deadline and all(samples.values()):
                return samples
            elapsed, _ = run_job(job, digests, failures)
            ref_after = reference_kernel()
            samples[job.label].append((elapsed, (ref_before + ref_after) / 2))
            ref_before = ref_after


def run_pass(jobs, digests, failures):
    """Run every job once; return the summed job time and the verify reports."""
    elapsed = 0.0
    reports = []
    for job in jobs:
        t, report = run_job(job, digests, failures)
        elapsed += t
        if report is not None:
            reports.append(report)
    return elapsed, reports


def calibrated_pass(samples):
    """Seconds one pass takes at the reference speed.

    For each job, the run's total job time over the total of its reference
    times (a ratio of sums, so that a long sample weighs as much as the host
    time it spans); the sum of these over the jobs, times ``REF_S``.
    """
    return REF_S * sum(sum(t for t, _ in s) / sum(ref for _, ref in s) for s in samples.values())


def raw_pass(samples):
    """Uncalibrated seconds of one pass: the sum of the median job times."""
    return sum(statistics.median(t for t, _ in s) for s in samples.values())


def measure_traced(jobs, digests, seconds, failures, workload, seed):
    """Alternate untraced and traced passes for ``seconds``, at least one of each.

    Returns the per-layer metrics of the traced passes and the pass times.
    """
    import tracing
    import workloads

    walls = {False: [], True: []}
    layer_samples = []
    deadline = time.perf_counter() + seconds
    traced = False
    while True:
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            wall, reports = run_pass(jobs, digests, failures)
        finally:
            if tracer:
                tracer.uninstall()
        walls[traced].append(wall)
        if tracer:
            sample = tracer.metrics()
            layer_samples.append(sample)
            # The traced suite check counts must equal those in the reports.
            for name, n in workloads.report_checks(reports).items():
                if sample["harness.%s.checks" % name] != n:
                    failures.append("harness.%s.checks traced %d, report %d"
                                    % (name, sample["harness.%s.checks" % name], n))
            os.makedirs(RESULTS, exist_ok=True)
            tracer.write_spans(os.path.join(RESULTS, "%s-seed%d.spans.jsonl" % (workload, seed)))
        if time.perf_counter() >= deadline and walls[True]:
            break
        traced = not traced
    metrics = {name: statistics.median(s[name] for s in layer_samples) for name in layer_samples[0]}
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return metrics, walls


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "afpath", "__init__.py")):
        print("afbench: no afpath sources at %s; run from a checkout of the repository" % SRC, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)

    if args.setup_probe:
        import workloads

        workloads.prepare(args.workload, args.seed)
        print(time.perf_counter())
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("afbench: unknown workload %r (known: %s)" % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": workloads.variant(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "git_sha": git_sha(),
    }
    setup_samples = []
    ref_before = reference_kernel()
    for _ in range(SETUP_PROBES):
        t = setup_probe(args.workload, args.seed)
        ref_after = reference_kernel()
        setup_samples.append((t, (ref_before + ref_after) / 2))
        ref_before = ref_after

    digests = workloads.load_digests()
    jobs = workloads.prepare(args.workload, args.seed)
    failures = []
    if args.trace:
        metrics, walls = measure_traced(jobs, digests, args.seconds, failures, args.workload, args.seed)
        attempted = len(jobs) * (len(walls[False]) + len(walls[True]))
        samples = {"pass_s": walls[False], "traced_pass_s": walls[True]}
    else:
        job_samples = measure(jobs, digests, args.seconds, failures)
        attempted = sum(len(s) for s in job_samples.values())
        metrics = {
            "pass_s": calibrated_pass(job_samples),
            "setup_s": REF_S * statistics.median(t / ref for t, ref in setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {"jobs": job_samples, "raw_pass_s": raw_pass(job_samples),
                   "raw_setup_s": statistics.median(t for t, _ in setup_samples)}
    samples["setup_s"] = setup_samples

    provenance["loadavg_end"] = loadavg()
    record = dict(provenance)
    record.update({
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "failures": failures,
        "samples": samples,
        "metrics": metrics,
    })
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for reason in failures:
        print("FAILED " + reason, file=sys.stderr)
    if args.trace:
        from tracing import unit
    else:
        unit = UNITS.get
    summary = " ".join("%s=%.6g %s" % (k, v, unit(k)) for k, v in metrics.items())
    print("%s seed=%d: %s failed_ratio=%.6g (%d/%d)" % (
        args.workload, args.seed, summary, record["failed_ratio"], len(failures), attempted))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
