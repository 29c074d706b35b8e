"""Microbenchmarks of the machines' inner operations, on inputs harvested
from the church and catalog workloads.

Every repetition times freshly built copies of its inputs: term_size caches
sizes on nodes, so timing the same objects twice would time cache hits.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

from workloads import Lib, church_source

REPS = 9
# Every EVERY-th intermediate term of each harvested reduction is kept,
# up to MAX_TERM_NODES nodes in all; at most MAX_NODES redexes and as many
# non-redexes are kept for match_at.
EVERY = 9
MAX_TERM_NODES = 20_000
MAX_NODES = 1500


def _copy(terms, t):
    """A fresh tree shaped like the lambda-free term t: it shares no node
    with t or with another copy, and no cache on it is filled."""
    App = terms.App
    out: list = []
    work = [t]
    while work:
        x = work.pop()
        if x is None:
            a = out.pop()
            out.append(App(out.pop(), a))
        elif type(x) is App:
            work.extend((None, x.arg, x.fun))
        else:
            out.append(type(x)(x.name))
    return out[0]


def harvest(lib: Lib) -> list:
    """Intermediate terms of two church reductions and of the expanded
    catalog checks, as the reference engine visits them."""
    terms = lib.mods["terms"]
    runs = [(lib.compile_term(lib.parse(church_source(op, m, n))), lib.FULL)
            for op, m, n in (("mul", 3, 3), ("exp", 2, 3))]
    for c in lib.mods["checks"].builtin_catalog():
        e = lib.expand_check(c)
        if e is not None and e.mode == "extensional":
            args = [terms.Var(f"v{i}") for i in range(1, e.arity + 1)]
            runs.append((terms.app(e.lhs, *args), lib.CL_BASE))
    out, total = [], 0
    for t, rules in runs:
        tr = lib.normalize(t, rules, lib.DEFAULT_MAX_STEPS)
        for x in ([tr.initial] + [s.result for s in tr.steps])[::EVERY]:
            n = sum(1 for _ in terms.positions(x))
            if total + n <= MAX_TERM_NODES:
                out.append(x)
                total += n
    return out


def run(lib: Lib) -> dict:
    """Median over REPS repetitions of each inner operation's cost."""
    terms, rewrite = lib.mods["terms"], lib.mods["rewrite"]
    match_at, instantiate = lib.FULL.match_at, rewrite.instantiate
    term_size, alpha_eq = terms.term_size, terms.alpha_eq
    harvested = harvest(lib)
    hits, misses = [], []
    for t in harvested:
        for _, sub in terms.positions(t, into_lam=False):
            (hits if match_at(sub) else misses).append(sub)
    hits, misses = hits[:MAX_NODES], misses[:MAX_NODES]
    nodes = sum(1 for t in harvested for _ in terms.positions(t))
    got: dict[str, list[float]] = {
        "rewrite.match_at.hit_ns": [], "rewrite.match_at.miss_ns": [],
        "rewrite.instantiate.ns": [], "terms.term_size.fresh_ns_per_node": [],
        "terms.alpha_eq.ns_per_node": []}
    for _ in range(REPS):
        for name, group in (("rewrite.match_at.hit_ns", hits),
                            ("rewrite.match_at.miss_ns", misses)):
            fresh = [_copy(terms, x) for x in group]
            t0 = perf_counter_ns()
            for x in fresh:
                match_at(x)
            got[name].append((perf_counter_ns() - t0) / len(fresh))
        fired = [match_at(_copy(terms, x)) for x in hits]
        t0 = perf_counter_ns()
        for rule, sigma in fired:
            instantiate(rule.rhs, sigma)
        got["rewrite.instantiate.ns"].append(
            (perf_counter_ns() - t0) / len(fired))
        fresh = [_copy(terms, x) for x in harvested]
        t0 = perf_counter_ns()
        for x in fresh:
            term_size(x)
        got["terms.term_size.fresh_ns_per_node"].append(
            (perf_counter_ns() - t0) / nodes)
        pairs = [(_copy(terms, x), _copy(terms, x)) for x in harvested]
        t0 = perf_counter_ns()
        for a, b in pairs:
            alpha_eq(a, b)
        got["terms.alpha_eq.ns_per_node"].append(
            (perf_counter_ns() - t0) / nodes)
    return {k: statistics.median(v) for k, v in got.items()}
