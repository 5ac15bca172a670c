"""Spans and counters for the traced benchmark run.

The library is not modified.  While a ``Tracer`` is installed, the public
functions listed below are replaced, in every ``wellfounded`` module other
than the one defining them and in the package namespace, by wrappers that
open a span around each call.  Relation constructors return copies of
their relation whose ``decide``, ``predecessors`` and recursor open spans.

A recursion operator runs code that is not its own: the step function,
and, for a composed relation, the glue its combinator hands to the inner
relation's operator.  Each step call is therefore a span owned by whoever
passed the step in, and each recursive call the step makes is a span of
the operator that supplied it, so every stretch of time is charged to the
module whose code ran.

A span's self time is its duration minus that of its direct children.  A
call of a name is an outermost span of that name: the self time of one
call adds up every span of the name opened inside it, such as the
recursive calls of one evaluation or the step calls of one ``quicksort``.
Metrics report the median self time per call of each name, over up to
``SAMPLE_LIMIT`` calls.  Spans of the first traced round stay in
memory, up to ``SPAN_LOG_LIMIT``, and are written out by ``dump`` when
the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
from array import array
from collections import defaultdict
from dataclasses import replace
from time import perf_counter

# constructor -> (span prefix, relation parts that get spans besides wfrec)
RELATIONS = {
    ("core", "nat_less"): ("core", ()),
    ("combinators", "transitive_closure"): ("combinators.closure", ("decide",)),
    ("combinators", "lex_family"): ("combinators.lex", ("decide",)),
    ("combinators", "lex_product"): ("combinators.lex", ("decide",)),
    ("combinators", "disjoint_sum"): ("combinators.sum", ()),
    ("combinators", "subrelation"): ("combinators.subrelation", ()),
    ("combinators", "inverse_image"): ("combinators.inverse_image", ()),
    ("power", "pow_relation"): ("power.pow", ("decide", "predecessors")),
    ("derived", "multiset_relation"): ("derived.multiset", ("decide",)),
    ("derived", "nested_multiset_relation"): ("derived.nested", ("decide",)),
    ("derived", "stepped_lex"): ("derived.stepped", ("decide",)),
}

FUNCTIONS = {
    ("core", "check_recursion_equation"): "core.check_recursion_equation",
    ("core", "check_unique_solution"): "core.check_unique_solution",
    ("core", "nat_less_decide"): "core.nat_less_decide",
    ("core", "fuzz_descent"): "core.fuzz_descent",
    ("wtree", "tree_fold"): "wtree.fold",
    ("wtree", "predecessor_tree"): "wtree.predecessor_tree",
    ("derived", "multiset_of"): "derived.multiset_of",
    ("derived", "dm_oracle"): "derived.dm_oracle",
    ("ordinal", "parse_ordinal"): "ordinal.parse",
    ("ordinal", "compare"): "ordinal.compare",
    ("ordinal", "to_nested"): "ordinal.to_nested",
    ("demos", "quicksort"): "demos.quicksort",
    ("demos", "fib"): "demos.fib",
    ("demos", "ackermann"): "demos.ackermann",
    ("checks", "run_all"): "checks.run_all",
}

EVALUATORS = {("core", "nat_wfrec"): "core.nat_wfrec"}

STEP_CALLS = "core.wfrec.step_calls"
SPAN_LOG_LIMIT = 250_000  # spans written per run; later spans are still measured
SAMPLE_LIMIT = 100_000  # per-call self times kept per span name


class NullTracer:
    """Stand-in for untraced runs: every hook hands back what it was given."""

    def call(self, _name, fn, *args):
        return fn(*args)

    def step(self, fn):
        return fn

    def callback(self, _span, fn, _counter=None):
        return fn

    def relation(self, rel, _prefix, _parts=()):
        return rel

    def counting_predecessors(self, rel, _counter):
        return rel


class Tracer:
    def __init__(self):
        self.stack: list = []  # open spans: [name, child seconds, log index]
        self.open_calls = defaultdict(int)  # name -> spans of it now open
        self.call_self = defaultdict(float)  # name -> self seconds of its open call
        self.self_times = defaultdict(lambda: array("d"))  # name -> self seconds per call
        self.logging = True  # spans are logged until ``logging`` is cleared
        self.counts = defaultdict(int)
        self.distinct_args: set = set()
        self.distinct_total = 0
        self.op = -1
        self.name_ids: dict = {}
        self.log_name = array("H")
        self.log_op = array("i")
        self.log_parent = array("i")
        self.log_start = array("d")
        self.log_end = array("d")
        self._patched: list = []

    # -- spans ---------------------------------------------------------------

    def call(self, name, fn, *args):
        frame = self._enter(name)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._leave(frame, start, perf_counter())

    def call2(self, name, fn, a, b):
        # fixed arity keeps deep recursions on the interpreter's fast path
        frame = self._enter(name)
        start = perf_counter()
        try:
            return fn(a, b)
        finally:
            self._leave(frame, start, perf_counter())

    def _enter(self, name):
        index = -1
        if self.logging and len(self.log_start) < SPAN_LOG_LIMIT:
            index = len(self.log_start)
            self.log_name.append(self.name_ids.setdefault(name, len(self.name_ids)))
            self.log_op.append(self.op)
            self.log_parent.append(self.stack[-1][2] if self.stack else -1)
            self.log_start.append(0.0)
            self.log_end.append(0.0)
        frame = [name, 0.0, index]
        self.stack.append(frame)
        self.open_calls[name] += 1
        return frame

    def _leave(self, frame, start, end):
        self.stack.pop()
        name, children, index = frame
        duration = end - start
        if index >= 0:
            self.log_start[index] = start
            self.log_end[index] = end
        if self.stack:
            self.stack[-1][1] += duration
        self.call_self[name] += duration - children
        self.open_calls[name] -= 1
        if not self.open_calls[name]:
            samples = self.self_times[name]
            if len(samples) < SAMPLE_LIMIT:
                samples.append(self.call_self[name])
            self.call_self[name] = 0.0

    def owner(self):
        return self.stack[-1][0] if self.stack else "bench.op"

    # -- operations ----------------------------------------------------------

    def begin_op(self, index):
        self.op = index
        self.distinct_args = set()

    def end_op(self):
        self.distinct_total += len(self.distinct_args)

    # -- callbacks the benchmark owns ----------------------------------------

    def step(self, fn):
        """Count and span a benchmark step; its ``rec`` belongs to the caller."""

        def counted(x, rec):
            self.counts[STEP_CALLS] += 1
            try:
                self.distinct_args.add(x)
            except TypeError:
                pass
            owner = self.owner()

            def traced_rec(y, evidence):
                return self.call2(owner, rec, y, evidence)

            return self.call2("bench.step", fn, x, traced_rec)

        counted.bench_step = True
        return counted

    def callback(self, span, fn, counter=None):
        """Span a benchmark callback (comparator, base relation, fold step),
        counting its calls in ``counter`` if one is given."""

        def spanned(*args):
            if counter is not None:
                self.counts[counter] += 1
            return self.call(span, fn, *args)

        return spanned

    def counting_predecessors(self, rel, counter, span=None):
        """Copy of ``rel`` whose predecessor enumeration counts the elements
        it finds in ``counter`` and its calls in ``counter + ".calls"``, and,
        given ``span``, runs as that span."""
        enumerate_below = rel.predecessors

        def predecessors(upper):
            found = enumerate_below(upper) if span is None else self.call(span, enumerate_below, upper)
            self.counts[counter] += len(found)
            self.counts[counter + ".calls"] += 1
            return found

        return replace(rel, predecessors=predecessors)

    # -- relations and evaluators --------------------------------------------

    def evaluate(self, name, run, step, a):
        """Run the operator ``run(step, a)`` as span ``name``."""
        if not getattr(step, "bench_step", False):
            owner, glue = self.owner(), step

            def step(x, rec):
                def traced_rec(y, evidence):
                    return self.call2(name, rec, y, evidence)

                return self.call2(owner, glue, x, traced_rec)

        return self.call2(name, run, step, a)

    def relation(self, original, prefix, parts=()):
        wfrec_name = prefix + ".wfrec"

        def recursor(step, a):
            return self.evaluate(wfrec_name, original.wfrec, step, a)

        changes = {"recursor": recursor}
        if "decide" in parts:
            decide_name = prefix + ".decide"
            changes["decide"] = lambda lower, upper: self.call2(
                decide_name, original.decide, lower, upper
            )
        traced = replace(original, **changes)
        if "predecessors" in parts and original.predecessors is not None:
            span = prefix + ".predecessors"
            traced = self.counting_predecessors(traced, span + "_count", span)
        return traced

    # -- installing wrappers -------------------------------------------------

    def install(self):
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if name == "wellfounded" or name.startswith("wellfounded.")
        }
        homes = {name[len("wellfounded."):] for name in modules}
        for (home, attr), (prefix, parts) in RELATIONS.items():
            if home not in homes:
                continue
            original = getattr(modules["wellfounded." + home], attr)

            def constructor(*args, _make=original, _prefix=prefix, _parts=parts, **kwargs):
                return self.relation(_make(*args, **kwargs), _prefix, _parts)

            self._patch(modules, home, attr, original, constructor)
        for (home, attr), span in FUNCTIONS.items():
            if home not in homes:
                continue
            original = getattr(modules["wellfounded." + home], attr)

            def traced(*args, _fn=original, _span=span, **kwargs):
                return self.call(_span, lambda: _fn(*args, **kwargs))

            self._patch(modules, home, attr, original, traced)
        for (home, attr), span in EVALUATORS.items():
            original = getattr(modules["wellfounded." + home], attr)

            def evaluator(step, a, _run=original, _span=span):
                return self.evaluate(_span, _run, step, a)

            self._patch(modules, home, attr, original, evaluator)

    def _patch(self, modules, home, attr, original, wrapper):
        for name, module in modules.items():
            if name == "wellfounded." + home:
                continue  # calls inside a module are not spanned
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def median_ms(self, name) -> float:
        """Median self time of one call of span ``name``, 0 if never entered."""
        samples = self.self_times.get(name)
        return statistics.median(samples) * 1000.0 if samples else 0.0

    def dump(self, path, header: dict):
        names = sorted(self.name_ids, key=self.name_ids.get)
        spans = zip(self.log_name, self.log_op, self.log_parent, self.log_start, self.log_end)
        document = {
            **header,
            "names": names,
            "columns": ["name", "op", "parent", "start_s", "end_s"],
            "spans": list(spans),
            "counts": dict(self.counts),
        }
        with open(path, "w") as out:
            out.write(json.dumps(document))
