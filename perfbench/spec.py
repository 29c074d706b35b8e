"""What the benchmark measures and why: workloads, metric names and units,
and the per-layer -> end-to-end predictions later changes are judged by.

BENCHMARK.json at the repository root lists the same workloads and metrics
for the harness that drives run.py; perfbench/tests/test_bench.py keeps the
two in step.
"""

WORKLOADS = {
    "catalog": (
        "clsh check and check --expanded: load_catalog, 20 checks under FULL, "
        "then expand_check and 12 checks under CL_BASE; one op is one check. "
        "The verdict path users wait on, the only workload where the "
        "rescanning rewrite.normalize runs inside checks and where catalog "
        "parsing matters."),
    "church": (
        "clsh reduce --max-steps 100000 on Church arithmetic (mul 20 20, "
        "exp 2 10, exp 3 7 and 13 smaller mul/exp terms) under lo and ri, "
        "run through clsh.cli.main, plus beta_normalize_fast on the lambda "
        "source; one op is one (term, engine) reduction. Few long "
        "reductions where the machine loop, match_at, instantiate and "
        "term_size dominate."),
    "trace": (
        "clsh reduce --trace and --json on mul 3 4, mul 4 4, mul 4 5 and "
        "exp 2 4 (286 to 488 lo steps) under lo and ri, run through "
        "clsh.cli.main with its output captured in memory; one op is one "
        "command. The only workload where printing is hot: "
        "format_term outweighs normalize several times."),
    "sampled": (
        "the bodies of oracle_agreement_experiment and confluence_experiment "
        "at n=1000 per pass, on the draws of their default seed and the next "
        "one; one op is one sampled term, its steps those of probe_eq "
        "included. Thousands of "
        "normalizations of terms of at most 12 nodes, so per-call and per-node "
        "costs show here even when they pay off on church."),
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("steps_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# IQR over median of each timing metric across ten seeds, in two sets of
# ten runs per workload at run_seconds 28 on a 2-vCPU virtual machine
# shared with other tenants, whose speed moves by up to a third between
# runs: (workload, metric) -> (first set, second set).  peak_rss_mb spread
# at most 0.014.  No spread reached its bound, so UNRESOLVED is empty;
# none was below a third of it either, so a claimed gain needs paired runs.
SPREADS = {
    ("catalog", "ops_per_s"): (0.080, 0.124),
    ("catalog", "steps_per_s"): (0.080, 0.124),
    ("catalog", "latency_p50_ms"): (0.101, 0.134),
    ("catalog", "latency_p90_ms"): (0.085, 0.116),
    ("catalog", "setup_s"): (0.173, 0.194),
    ("church", "ops_per_s"): (0.198, 0.069),
    ("church", "steps_per_s"): (0.198, 0.069),
    ("church", "latency_p50_ms"): (0.086, 0.059),
    ("church", "latency_p90_ms"): (0.156, 0.082),
    ("church", "setup_s"): (0.173, 0.076),
    ("trace", "ops_per_s"): (0.119, 0.088),
    ("trace", "steps_per_s"): (0.119, 0.088),
    ("trace", "latency_p50_ms"): (0.104, 0.064),
    ("trace", "latency_p90_ms"): (0.139, 0.205),
    ("trace", "setup_s"): (0.120, 0.055),
    ("sampled", "ops_per_s"): (0.134, 0.176),
    ("sampled", "steps_per_s"): (0.134, 0.176),
    ("sampled", "latency_p50_ms"): (0.160, 0.215),
    ("sampled", "latency_p90_ms"): (0.132, 0.154),
    ("sampled", "setup_s"): (0.150, 0.040),
}

# (workload, metric) pairs whose spread reached the metric's bound: a
# comparison on them cannot tell a regression from noise and is reported
# as unresolved.
UNRESOLVED = tuple(
    pair for pair, spreads in SPREADS.items()
    if max(spreads) >= {n: b for n, _, _, b in END_TO_END}[pair[1]])

# Layers whose calls carry a span in the traced run.  Each reports .calls
# and .self_s per pass; the counters below ride on the same spans.
SPANS = (
    "syntax.parse",
    "syntax.format_term",
    "disassemble.compile_term",
    "disassemble.expand_derived",
    "rewrite.normalize",
    "rewrite.normalize_fast.lo",
    "rewrite.normalize_fast.ri",
    "lam.beta_normalize_fast",
    "terms.alpha_eq",
    "checks.load_catalog",
    "checks.run_check",
    "randterms.probe_eq",
)

# span -> work it counts; each also gets a .<work>_per_s rate over self time
# except out_nodes, a size that must not change.
COUNTERS = {
    "syntax.parse": "chars",
    "syntax.format_term": "chars",
    "disassemble.compile_term": "out_nodes",
    "rewrite.normalize": "steps",
    "rewrite.normalize_fast.lo": "steps",
    "rewrite.normalize_fast.ri": "steps",
    "lam.beta_normalize_fast": "steps",
}

MICRO = (
    "rewrite.match_at.hit_ns",
    "rewrite.match_at.miss_ns",
    "rewrite.instantiate.ns",
    "terms.term_size.fresh_ns_per_node",
    "terms.alpha_eq.ns_per_node",
)

TRACE_WALL = (
    ("trace.wall_untraced_s", "s", "lower"),
    ("trace.wall_traced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for span in SPANS:
        out.append((f"{span}.calls", "count", "higher"))
        out.append((f"{span}.self_s", "s", "lower"))
        work = COUNTERS.get(span)
        if work:
            out.append((f"{span}.{work}", "count", "higher"))
            if work != "out_nodes":
                out.append((f"{span}.{work}_per_s", "1/s", "higher"))
    out.extend((name, "ns", "lower") for name in MICRO)
    out.extend(TRACE_WALL)
    return out


# Which end-to-end metric each per-layer metric should move, on which
# workload.  A change to one layer claims a gain only where this says so.
PREDICTIONS = (
    ("syntax.parse", "trace ops_per_s, catalog ops_per_s"),
    ("syntax.format_term", "trace ops_per_s, catalog ops_per_s"),
    ("disassemble.compile_term", "sampled latency_p50_ms"),
    ("disassemble.expand_derived", "sampled latency_p50_ms"),
    ("rewrite.normalize", "catalog latency_p90_ms, trace ops_per_s"),
    ("rewrite.normalize_fast.lo", "church steps_per_s, sampled ops_per_s"),
    ("rewrite.normalize_fast.ri", "church steps_per_s, sampled ops_per_s"),
    ("lam.beta_normalize_fast", "sampled ops_per_s"),
    ("terms.alpha_eq", "catalog and sampled ops_per_s"),
    ("checks.load_catalog", "catalog ops_per_s"),
    ("checks.run_check", "catalog latency_p50_ms, latency_p90_ms"),
    ("randterms.probe_eq", "sampled ops_per_s"),
    ("microbenchmarks", "church steps_per_s; trace must not move"),
)
