"""Workload inputs, job lists and the correctness gate of the afpath benchmark.

A workload is a fixed list of jobs.  Each job calls afpath through a public
entry point (``afpath.cli.main`` or the package API) on diagrams it builds
itself, so every job starts with cold memo tables.  ``run`` does the work
that is timed; ``check`` inspects its output afterwards, outside the timed
region, and returns ``None`` when the output is correct or a one-line reason
when it is not.

The workload seed picks the inputs.  ``seed % VARIANTS`` selects the verify
seed and the random tables, so every seed lands on one of the variants whose
report digests are recorded in ``digests.json``.  The full seed permutes the
vertex labels of the verify-sparse file diagram; relabelling never changes a
report, which the benchmark's tests check.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import afpath
import afpath.cli

WORKLOADS = ("verify-dense", "verify-sparse", "deep-cold")

VARIANTS = 16

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

# Written relative to the checkout root, because the path is part of the
# verify report header and so of its digest.
SPARSE_PATH = "afbench/work/sparse.bratteli"

# The verify jobs of each workload: (source, depth or None for the default,
# suites or None for all of them).  Long verifies are split by suite so that
# every job takes a second or two and repeats many times in a run; together a
# workload's jobs run every suite on each of its diagrams.  afpath validates
# the diagram before any suite, so every split job also asks for the
# validation suite: then its report shows all the work the job did.  uhf3
# runs at depth 3 (blocks up to 27x27): at its default depth 4 the tower suite
# alone takes 12 s or more.
REST = ("combinatorics", "cylinder", "matrix_units")
VERIFY_JOBS = {
    "verify-dense": (
        ("uhf3", 3, ("expectation",)),
        ("uhf3", 3, ("tower",)),
        ("uhf3", 3, ("groupoid",)),
        ("uhf3", 3, REST),
        ("car", None, ("expectation",)),
        ("car", None, ("tower",)),
        ("car", None, REST + ("groupoid",)),
    ),
    "verify-sparse": (
        ("pascal", None, ("expectation",)),
        ("pascal", None, REST + ("tower", "groupoid")),
        ("fibonacci", None, None),
        (SPARSE_PATH, None, ("expectation",)),
        (SPARSE_PATH, None, ("tower",)),
        (SPARSE_PATH, None, REST + ("groupoid",)),
    ),
}

# The verify-sparse file diagram: vertices 1,3,3,3,3, multiplicities 0-2,
# parallel edges and uneven fan-in, 4/9/21/41 paths at levels 1-4.  The seed
# only relabels vertices within each level: freely drawn shapes of this size
# differ in cost by more than 2x, relabellings of one shape do not.
SPARSE_COUNTS = (1, 3, 3, 3, 3)
SPARSE_SHAPE = (
    ((1, 2, 1),),
    ((1, 0, 1), (1, 1, 0), (0, 2, 1)),
    ((2, 0, 1), (0, 1, 1), (1, 1, 0)),
    ((1, 0, 0), (0, 1, 1), (1, 2, 0)),
)

# deep-cold sizes.  All stay below the level-16 embed-matrix case that an
# admission check is expected to refuse.
EMBED_CAR = (15, 14)  # depth, level
EMBED_FIB = (20, 19)
PASCAL_DEPTH = 120
TABLE_LEVEL = 13  # pascal level 13: 8192 paths
EXPECT_LEVELS = (2, 4, 6, 8, 10, 12)
CLASS_SUM_LEVELS = (3, 7, 11)
TOWER = (20, 3)  # fibonacci depth, level of the embedded diagonal units
WIDEN = (12, 3)  # car depth, support level of the widened kernel


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object, dict], str]  # (output, recorded digests) -> reason or None
    digest: Callable[[object], str]
    is_verify: bool = False  # output is (exit code, verify report)


def variant(seed):
    return seed % VARIANTS


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests():
    with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(argv):
    """Call ``afpath.cli.main`` and return (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = afpath.cli.main(argv)
    return rc, buf.getvalue()


def _cli_digest(output):
    return sha256(output[1])


# -- inputs ---------------------------------------------------------------------


def sparse_diagram(seed):
    """The fixed verify-sparse shape with vertex labels permuted by ``seed``."""
    rng = random.Random("afbench-sparse:%d" % seed)
    perms = [list(range(c)) for c in SPARSE_COUNTS]
    for perm in perms[1:]:
        rng.shuffle(perm)
    mats = []
    for n, mat in enumerate(SPARSE_SHAPE):
        out = [[0] * SPARSE_COUNTS[n + 1] for _ in range(SPARSE_COUNTS[n])]
        for i, row in enumerate(mat):
            for j, mult in enumerate(row):
                out[perms[n][i]][perms[n + 1][j]] = mult
        mats.append(out)
    return afpath.BratteliDiagram(SPARSE_COUNTS, mats)


def write_sparse_file(seed):
    """Serialize the sparse diagram, then parse the file back as verify will."""
    os.makedirs(os.path.dirname(SPARSE_PATH), exist_ok=True)
    text = afpath.serialize_diagram(sparse_diagram(seed), comment="afbench verify-sparse seed %d" % seed)
    with open(SPARSE_PATH, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(SPARSE_PATH, "r", encoding="utf-8") as fh:
        return afpath.parse_diagram(fh.read())


# -- verify jobs ----------------------------------------------------------------


def _recorded(workload, vseed, label, digest, digests):
    want = digests[workload][str(vseed)][label]
    if digest != want:
        return "%s: digest %s differs from recorded %s" % (label, digest, want)
    return None


def _verify_job(workload, source, label, vseed, extra=()):
    argv = ["verify", source, "--seed", str(vseed)] + list(extra)

    def check(output, digests):
        rc, report = output
        if rc != 0 or not report.endswith("RESULT PASS\n"):
            return "%s: exit %d, report does not end RESULT PASS" % (label, rc)
        return _recorded(workload, vseed, label, sha256(report), digests)

    return Job(label, lambda: run_cli(argv), check, _cli_digest, is_verify=True)


def report_checks(reports):
    """Check counts per suite, summed over the SUITE lines of verify reports."""
    counts = {}
    for report in reports:
        for line in report.splitlines():
            if line.startswith("SUITE "):
                _, name, _, checks = line.split()[:4]
                counts[name] = counts.get(name, 0) + int(checks.split("=", 1)[1])
    return counts


# -- deep-cold jobs -------------------------------------------------------------


def _table_text(table):
    return "\n".join(x.to_report() for x in table)


def _fib(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _cli_job(workload, vseed, label, argv, closed_form):
    def check(output, digests):
        rc, text = output
        if rc != 0:
            return "%s: exit %d" % (label, rc)
        reason = closed_form(text)
        return reason or _recorded(workload, vseed, label, sha256(text), digests)

    return Job(label, lambda: run_cli(argv), check, _cli_digest)


def _embed_matrix_form(level, rows):
    expected = "# realized multiplicities, stage %d -> %d\n%s\nmatch=yes\n" % (level, level + 1, rows)

    def closed_form(text):
        return None if text == expected else "embed-matrix output %r, expected %r" % (text, expected)

    return closed_form


def _counts_form(text):
    lines = text.splitlines()
    if len(lines) != PASCAL_DEPTH + 1:
        return "counts printed %d levels, expected %d" % (len(lines), PASCAL_DEPTH + 1)
    for n, line in enumerate(lines):
        want = "level %d: vertices=%d counts=%s total=%d" % (
            n, n + 1, " ".join(str(math.comb(n, k)) for k in range(n + 1)), 2 ** n)
        if line != want:
            return "counts level %d: %r is not the binomial row" % (n, line)
    return None


def _dims_form(text):
    lines = text.splitlines()
    if len(lines) != PASCAL_DEPTH + 1:
        return "dims printed %d levels, expected %d" % (len(lines), PASCAL_DEPTH + 1)
    for n, line in enumerate(lines):
        want = "level %d: blocks=%s dimension=%d" % (
            n, " ".join(str(math.comb(n, k)) for k in range(n + 1)), math.comb(2 * n, n))
        if line != want:
            return "dims level %d: %r is not the binomial row" % (n, line)
    return None


def _expect_job(workload, vseed):
    label = "pascal-expect"

    def run():
        d = afpath.builtin_diagram("pascal", TABLE_LEVEL)
        f = afpath.random_cylinder(d, TABLE_LEVEL, random.Random("afbench-table:%d" % vseed))
        one = afpath.constant(d, 1).refine(TABLE_LEVEL)
        means = [afpath.expect(f, n) for n in EXPECT_LEVELS]
        sums = [afpath.class_sum(f, n) for n in CLASS_SUM_LEVELS]
        sizes = [afpath.class_sum(one, n) for n in CLASS_SUM_LEVELS]
        return d, means + sums, sizes

    def digest(output):
        _, tables, _ = output
        return sha256("\n#\n".join(_table_text(t.table) for t in tables))

    def check(output, digests):
        d, tables, sizes = output
        paths = d.paths(TABLE_LEVEL)
        for n, size in zip(CLASS_SUM_LEVELS, sizes):
            # A level-n tail class of pascal through vertex k has C(n, k) paths.
            for p, val in zip(paths, size.table):
                if val != afpath.as_scalar(math.comb(n, p.vertex_at(n).index)):
                    return "%s: class size %s at level %d is not binomial" % (label, val, n)
        return _recorded(workload, vseed, label, digest(output), digests)

    return Job(label, run, check, digest)


def _tower_job(workload, vseed):
    label = "fibonacci-embed-to"
    depth, level = TOWER

    def run():
        d = afpath.builtin_diagram("fibonacci", depth)
        return d, [afpath.matrix_unit(d, g, g).embed_to(depth) for g in d.paths(level)]

    def digest(output):
        _, images = output
        return sha256("\n#\n".join(
            "%d: %s" % (v, " ".join("%d,%d=%s" % (i, j, block[i, j].to_report()) for i, j in sorted(block)))
            for x in images for v, block in enumerate(x.blocks)))

    def check(output, digests):
        d, images = output
        for g, x in zip(d.paths(level), images):
            # A diagonal unit at a path ending in vertex v extends to one
            # diagonal 1 per continuation: F(k+2) from v=0, F(k+1) from v=1.
            k = depth - level
            want = _fib(k + 2) if g.terminal().index == 0 else _fib(k + 1)
            total = sum(x.trace_block(w) for w in range(len(x.blocks)))
            nnz = sum(len(b) for b in x.blocks)
            if total != afpath.as_scalar(want) or nnz != want:
                return "%s: image of %r has trace %s and %d entries, expected %d" % (
                    label, g, total, nnz, want)
        return _recorded(workload, vseed, label, digest(output), digests)

    return Job(label, run, check, digest)


def _widen_job(workload, vseed):
    label = "car-widen"
    depth, n = WIDEN

    def run():
        d = afpath.builtin_diagram("car", depth)
        return afpath.jones_kernel(d, n).widen(n, depth)

    def digest(kernel):
        return sha256(" ".join("%d,%d" % ab for ab in sorted(kernel.table)))

    def check(kernel, digests):
        # car has one vertex with 2^n paths per level: every pair of the
        # 2^n x 2^n block, times 2^(depth-n) common continuations, holds 1/2^n.
        want = 4 ** n * 2 ** (depth - n)
        value = afpath.as_scalar(Fraction(1, 2 ** n))
        if len(kernel.table) != want or any(v != value for v in kernel.table.values()):
            return "%s: %d entries, expected %d equal to 1/%d" % (label, len(kernel.table), want, 2 ** n)
        return _recorded(workload, vseed, label, digest(kernel), digests)

    return Job(label, run, check, digest)


# -- workloads ------------------------------------------------------------------


def prepare(workload, seed):
    """Build a workload's inputs and return its job list.

    This is the benchmark's set-up: it resolves, generates or parses every
    diagram the jobs name, so that a set-up cost shows in ``setup_s``.
    """
    vseed = variant(seed)
    if workload in VERIFY_JOBS:
        if workload == "verify-sparse":
            write_sparse_file(seed)
        jobs = []
        for source, depth, suites in VERIFY_JOBS[workload]:
            extra = ["--depth", str(depth)] if depth else []
            for suite in ("validation",) + suites if suites else ():
                extra += ["--suite", suite]
            if source != SPARSE_PATH:
                afpath.builtin_diagram(source, depth)
            name = "sparse-file" if source == SPARSE_PATH else source
            if suites is None:
                label = name
            else:
                label = "%s-%s" % (name, suites[0] if len(suites) == 1 else "rest")
            jobs.append(_verify_job(workload, source, label, vseed, extra))
        return jobs
    if workload == "deep-cold":
        car_depth, car_level = EMBED_CAR
        fib_depth, fib_level = EMBED_FIB
        pascal = ["pascal", "--depth", str(PASCAL_DEPTH)]
        return [
            _cli_job(workload, vseed, "car-embed-matrix",
                     ["embed-matrix", "car", "--depth", str(car_depth), "--level", str(car_level)],
                     _embed_matrix_form(car_level, "2")),
            _cli_job(workload, vseed, "fibonacci-embed-matrix",
                     ["embed-matrix", "fibonacci", "--depth", str(fib_depth), "--level", str(fib_level)],
                     _embed_matrix_form(fib_level, "1 1\n1 0")),
            _cli_job(workload, vseed, "pascal-counts", ["counts"] + pascal, _counts_form),
            _cli_job(workload, vseed, "pascal-dims", ["dims"] + pascal, _dims_form),
            _expect_job(workload, vseed),
            _tower_job(workload, vseed),
            _widen_job(workload, vseed),
        ]
    raise ValueError("unknown workload %r (known: %s)" % (workload, ", ".join(WORKLOADS)))
