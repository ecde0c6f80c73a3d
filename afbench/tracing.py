"""Spans and counters around afpath's layers, recorded from outside the package.

``Tracer.install`` replaces public functions and methods of afpath with
wrappers that record a span (name, start, end, parent) per call and a few
counters.  Names a module imported with ``from .x import name`` are separate
bindings, so each wrapped function is rebound in every afpath module that
holds it; otherwise calls from ``harness`` and ``cli`` would go unmeasured.
``uninstall`` puts every original back.

Spans are kept in flat arrays while a pass runs.  ``metrics`` turns them into
the per-layer figures: a span's self time is its duration minus the time its
child spans cover.
"""

import collections
import json
import sys
import time
from array import array

import afpath
from afpath import harness
from afpath.af_tower import AfElement
from afpath.cylinder import CylinderFunction
from afpath.diagram import BratteliDiagram
from afpath.groupoid import GroupoidFunction

SUITES = afpath.SUITE_NAMES
CLI_COMMANDS = ("verify", "embed-matrix", "counts", "dims")

CYLINDER_OPS = ("__add__", "__mul__", "refine", "conjugate", "__eq__")


def unit(name):
    """The unit of a per-layer metric, read from its name."""
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(".ns_per_term"):
        return "ns"
    return "count"


def _af_nnz(x):
    return sum(len(b) for b in x.blocks)


def _mul_terms(a, b):
    """Scalar multiply-adds of ``a * b``: matched (i,k),(k,j) pairs per block."""
    if not isinstance(b, AfElement):
        return _af_nnz(a)
    terms = 0
    for x, y in zip(a.blocks, b.blocks):
        row_len = collections.Counter(k for (k, _) in y)
        terms += sum(row_len[k] for (_, k) in x if k in row_len)
    return terms


def _convolve_terms(f, g):
    """Scalar multiply-adds of ``convolve(f, g)`` on the widened operands."""
    f, g = f._common(g)
    row_len = collections.Counter(c for (c, _) in g.table)
    return sum(row_len[c] for (_, c) in f.table if c in row_len)


def _memo_items(key, value):
    if key[0] == "tail_classes":
        return len(value[1])
    if isinstance(value, AfElement):
        return _af_nnz(value)
    if isinstance(value, GroupoidFunction):
        return len(value.table)
    return len(value)


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.counters = collections.Counter()
        self.maxima = collections.Counter()
        self._stack = [-1]
        self._paused = False
        self._patches = []

    # -- spans ---------------------------------------------------------------------

    def _open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def _untraced(self, fn, *args):
        """Run ``fn`` without recording, for the tracer's own bookkeeping."""
        self._paused = True
        try:
            return fn(*args)
        finally:
            self._paused = False

    def _span(self, name, original, after=None):
        """A wrapper that records one span per call, then calls ``after``."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return original(*args, **kwargs)
            i = tracer._open(name if isinstance(name, str) else name(args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(i)
            if after is not None:
                tracer._untraced(after, result, *args)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- patching ------------------------------------------------------------------

    def _rebind_function(self, module, attr, wrapper_of):
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for mod in [m for n, m in sys.modules.items() if n == "afpath" or n.startswith("afpath.")]:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def _rebind_method(self, cls, attr, wrapper_of):
        original = cls.__dict__[attr]
        wrapper = wrapper_of(original)
        for name, value in list(vars(cls).items()):
            if value is original:  # also catches aliases such as __radd__ = __add__
                self._patches.append((cls, name, value))
                setattr(cls, name, wrapper)

    def install(self):
        count = self.counters
        top = self.maxima

        def suite_done(result, name, ctx):
            count["harness.%s.checks" % name] += result.checks

        def mul_done(result, a, b):
            count["af_tower.mul.terms"] += _mul_terms(a, b)
            top["af_tower.max_nnz"] = max(top["af_tower.max_nnz"], _af_nnz(result))

        def embed_done(result, x):
            top["af_tower.max_nnz"] = max(top["af_tower.max_nnz"], _af_nnz(result))

        def convolve_done(result, f, g):
            count["groupoid.convolve.terms"] += _convolve_terms(f, g)
            top["groupoid.max_entries"] = max(top["groupoid.max_entries"], len(result.table))

        def widen_done(result, f, *levels):
            top["groupoid.max_entries"] = max(top["groupoid.max_entries"], len(result.table))

        def expectation_done(result, f, n):
            count["expectation.entries"] += len(result.table)

        self._rebind_function(afpath.cli, "main", lambda fn: self._span(lambda args: "cli." + args[0][0], fn))
        self._rebind_function(harness, "_run_one", lambda fn: self._span(
            lambda args: "harness." + args[0], fn, suite_done))
        self._rebind_method(AfElement, "__mul__", lambda fn: self._span("af_tower.mul", fn, mul_done))
        self._rebind_method(AfElement, "embed", lambda fn: self._span("af_tower.embed", fn, embed_done))
        self._rebind_function(afpath.groupoid, "convolve", lambda fn: self._span(
            "groupoid.convolve", fn, convolve_done))
        self._rebind_method(GroupoidFunction, "widen", lambda fn: self._span("groupoid.widen", fn, widen_done))
        for attr in ("expect", "class_sum"):
            self._rebind_function(afpath.expectation, attr, lambda fn: self._span(
                "expectation", fn, expectation_done))
        for attr in CYLINDER_OPS:
            self._rebind_method(CylinderFunction, attr, lambda fn: self._span("cylinder.ops", fn))
        self._rebind_method(BratteliDiagram, "memo", self._memo_wrapper)

    def _memo_wrapper(self, original):
        tracer = self
        count = self.counters

        def memo(diagram, key, build):
            if tracer._paused:
                return original(diagram, key, build)
            built = []

            def timed_build():
                i = tracer._open("diagram.build." + key[0])
                try:
                    value = build()
                finally:
                    tracer._close(i)
                built.append(value)
                return value

            value = original(diagram, key, timed_build)
            if built:
                count["diagram.items"] += _memo_items(key, value)
            else:
                count["diagram.memo.hits"] += 1
            return value

        memo.__wrapped__ = original
        return memo

    def uninstall(self):
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches = []

    # -- results -------------------------------------------------------------------

    def span_totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        totals = {}
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            calls, total, own = totals.get(self.names[i], (0, 0.0, 0.0))
            totals[self.names[i]] = (calls + 1, total + dur, own + dur - child[i])
        return totals

    def metrics(self):
        """The per-layer figures of everything recorded so far (``trace.overhead_s`` aside)."""
        totals = self.span_totals()

        def calls(name):
            return totals.get(name, (0, 0.0, 0.0))[0]

        def total_s(name):
            return totals.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return totals.get(name, (0, 0.0, 0.0))[2]

        builds = [name for name in totals if name.startswith("diagram.build.")]
        out = {}
        for suite in SUITES:
            out["harness.%s.s" % suite] = total_s("harness." + suite)
            out["harness.%s.checks" % suite] = self.counters["harness.%s.checks" % suite]
        out["af_tower.mul.calls"] = calls("af_tower.mul")
        out["af_tower.mul.self_s"] = self_s("af_tower.mul")
        out["af_tower.mul.terms"] = self.counters["af_tower.mul.terms"]
        out["af_tower.embed.calls"] = calls("af_tower.embed")
        out["af_tower.embed.self_s"] = self_s("af_tower.embed")
        out["af_tower.max_nnz"] = self.maxima["af_tower.max_nnz"]
        out["groupoid.convolve.calls"] = calls("groupoid.convolve")
        out["groupoid.convolve.self_s"] = self_s("groupoid.convolve")
        out["groupoid.convolve.terms"] = self.counters["groupoid.convolve.terms"]
        out["groupoid.widen.calls"] = calls("groupoid.widen")
        out["groupoid.widen.self_s"] = self_s("groupoid.widen")
        out["groupoid.max_entries"] = self.maxima["groupoid.max_entries"]
        terms = out["af_tower.mul.terms"] + out["groupoid.convolve.terms"]
        kernel_s = out["af_tower.mul.self_s"] + out["groupoid.convolve.self_s"]
        out["scalars.ns_per_term"] = 1e9 * kernel_s / terms if terms else 0.0
        out["expectation.calls"] = calls("expectation")
        out["expectation.self_s"] = self_s("expectation")
        out["expectation.entries"] = self.counters["expectation.entries"]
        out["cylinder.ops.calls"] = calls("cylinder.ops")
        out["cylinder.ops.self_s"] = self_s("cylinder.ops")
        out["diagram.build.calls"] = sum(calls(name) for name in builds)
        out["diagram.build.s"] = sum(self_s(name) for name in builds)
        out["diagram.paths.s"] = self_s("diagram.build.paths")
        out["diagram.tail_classes.s"] = self_s("diagram.build.tail_classes")
        out["diagram.memo.hits"] = self.counters["diagram.memo.hits"]
        out["diagram.items"] = self.counters["diagram.items"]
        for command in CLI_COMMANDS:
            out["cli.%s.s" % command] = total_s("cli." + command)
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, self.starts[i], self.ends[i], self.parents[i]]) + "\n")
