"""Spans around the calls into clsh, for the traced run.

A span is [name, start_ns, end_ns, parent span index or -1, op id].  Spans
are kept in memory and written out when the run ends; a layer's self time
is its spans' durations minus the time their child spans cover.  The
wrappers live here, not in clsh: the traced run swaps them in for the
functions the ops call and for the names the clsh modules listed below call
each other through (wrapping what is there, such as the step counters of
workloads.Fired), and puts the originals back afterwards.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

from spec import COUNTERS, SPANS


def _count_nodes(t) -> int:
    """Tree size without touching the _size cache term_size keeps."""
    n, stack = 0, [t]
    while stack:
        x = stack.pop()
        n += 1
        if hasattr(x, "fun"):
            stack.append(x.fun)
            stack.append(x.arg)
        elif hasattr(x, "body"):
            stack.append(x.body)
    return n


def _strategy(args, kwargs) -> str:
    return args[3] if len(args) > 3 else kwargs.get("strategy", "lo")


# (Lib attribute, span name or a function of the call's arguments giving
# it, clsh modules whose calls through that name are traced too, work
# counted from (args, result))
PATCHES = (
    ("parse", "syntax.parse", ("checks", "cli"), lambda a, r: len(a[0])),
    ("format_term", "syntax.format_term", ("checks", "rewrite", "cli"),
     lambda a, r: len(r)),
    ("compile_term", "disassemble.compile_term", ("cli",),
     lambda a, r: _count_nodes(r)),
    ("expand_derived", "disassemble.expand_derived", ("checks",), None),
    ("normalize", "rewrite.normalize", ("checks", "cli"),
     lambda a, r: r.nsteps),
    ("normalize_fast",
     lambda a, k: f"rewrite.normalize_fast.{_strategy(a, k)}",
     ("randterms", "cli"), lambda a, r: r[1]),
    ("beta_normalize_fast", "lam.beta_normalize_fast", ("randterms",),
     lambda a, r: r[1]),
    ("alpha_eq", "terms.alpha_eq", ("checks", "randterms"), None),
    ("load_catalog", "checks.load_catalog", (), None),
    ("run_check", "checks.run_check", (), None),
    ("probe_eq", "randterms.probe_eq", (), None),
)

OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.work: dict[str, int] = defaultdict(int)
        self._undo: list = []

    def _open(self, name: str) -> list:
        span = [name, 0, 0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._open(OP_SPAN)[1] = perf_counter_ns()

    def end_op(self) -> None:
        self.spans[self.stack.pop()][2] = perf_counter_ns()
        self.op = None

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            span = self._open(name if type(name) is str else name(args, kwargs))
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[1], span[2] = t0, perf_counter_ns()
                self.stack.pop()
            if count is not None:
                self.work[span[0]] += count(args, result)
            return result
        return traced

    def install(self, lib) -> None:
        """Swap traced wrappers into lib and into the clsh modules."""
        for attr, name, modules, count in PATCHES:
            for owner in (lib, *(lib.mods[m] for m in modules)):
                orig = getattr(owner, attr)
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name, count))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def per_pass(self, passes: int) -> dict:
        """Calls, self seconds and counted work of every layer, divided by
        the number of traced passes."""
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        child_ns = [0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            name, t0, t1, parent, _ = self.spans[i]
            if parent >= 0:
                child_ns[parent] += t1 - t0
            calls[name] += 1
            self_ns[name] += t1 - t0 - child_ns[i]
        out = {}
        for span in SPANS:
            self_s = self_ns[span] / 1e9 / passes
            out[f"{span}.calls"] = calls[span] / passes
            out[f"{span}.self_s"] = self_s
            work = COUNTERS.get(span)
            if work:
                amount = self.work[span] / passes
                out[f"{span}.{work}"] = amount
                if work != "out_nodes":
                    out[f"{span}.{work}_per_s"] = (amount / self_s
                                                   if self_s else 0.0)
        return out

    def write(self, path) -> None:
        """One JSON object per span, times relative to the first span."""
        base = self.spans[0][1] if self.spans else 0
        with open(path, "w") as f:
            for name, t0, t1, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start_ns": t0 - base,
                                    "end_ns": t1 - base, "parent": parent,
                                    "op": op}) + "\n")
