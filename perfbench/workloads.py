"""The four workloads: inputs made from the seed, and one pass of ops each.

Every op drives clsh through the public functions the CLI and the
experiments call, in the order they call them, and parses or generates its
terms afresh: term_size and free_vars cache results on nodes and the
machines memoize by id, so reusing a term would time cache hits a CLI user
never sees.  The church and trace ops run clsh.cli.main itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import random
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import resources
from time import perf_counter

MODULES = ("terms", "syntax", "rewrite", "disassemble", "lam", "checks",
           "randterms", "cli")

# Budget for church reductions: exp 3 7 fires 45914 lo steps, above the
# CLI default, so these ops are `clsh reduce --max-steps 100000`.
CHURCH_MAX_STEPS = 100_000
SAMPLED_N = 1000
SAMPLED_DRAWS = 2
SMOKE_SAMPLED_N = 30

MUL = r"(\m n f. m (n f))"
EXP = r"(\m n. n m)"

# (op, m, n): the Church terms, applied to the free variables s and z.
# Besides the long reductions each set holds enough sizes in between that
# the ops' latencies have no wide gap for a percentile to jump across.
CHURCH = (("mul", 5, 5), ("mul", 8, 8), ("mul", 10, 10), ("mul", 15, 15),
          ("mul", 20, 20), ("exp", 2, 5), ("exp", 2, 6), ("exp", 2, 7),
          ("exp", 2, 8), ("exp", 2, 10), ("exp", 3, 3), ("exp", 3, 4),
          ("exp", 3, 5), ("exp", 3, 7), ("exp", 4, 3), ("exp", 5, 3))
TRACE = (("mul", 3, 4), ("mul", 4, 4), ("mul", 4, 5), ("exp", 2, 4))
SMOKE_CHURCH = (("mul", 3, 3), ("exp", 2, 3))
SMOKE_TRACE = (("mul", 2, 2),)


def church_numeral(n: int) -> str:
    return r"(\f x. " + "f (" * n + "x" + ")" * n + ")"


def church_source(op: str, m: int, n: int) -> str:
    fn = MUL if op == "mul" else EXP
    return f"{fn} {church_numeral(m)} {church_numeral(n)} s z"


def church_value(op: str, m: int, n: int) -> int:
    return m * n if op == "mul" else m ** n


def numeral_text(k: int) -> str:
    """How format_term prints s^k z, built without clsh: the oracle for
    the church workload."""
    if k == 0:
        return "z"
    return "s (" * (k - 1) + "s z" + ")" * (k - 1)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def import_clsh() -> dict:
    """Import every clsh module afresh and return them by short name."""
    for name in [m for m in sys.modules if m == "clsh" or m.startswith("clsh.")]:
        del sys.modules[name]
    importlib.import_module("clsh")
    return {m: importlib.import_module(f"clsh.{m}") for m in MODULES}


class Fired:
    """Steps fired through the engine names that clsh.cli and
    clsh.randterms call: `clsh reduce` prints no step count and probe_eq
    keeps none, so the benchmark wraps those names to count them."""

    COUNTED = (("cli", "normalize", lambda r: r.nsteps),
               ("cli", "normalize_fast", lambda r: r[1]),
               ("randterms", "normalize_fast", lambda r: r[1]),
               ("randterms", "beta_normalize_fast", lambda r: r[1]))

    def __init__(self, mods: dict):
        self.steps = 0
        for mod, attr, steps_of in self.COUNTED:
            setattr(mods[mod], attr,
                    self._counting(getattr(mods[mod], attr), steps_of))

    def _counting(self, fn, steps_of):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.steps += steps_of(result)
            return result
        return counted


class Lib:
    """The clsh functions the ops call.  The traced run swaps attributes
    for wrappers that record a span around each call."""

    def __init__(self, mods: dict):
        self.mods = mods
        self.fired = Fired(mods)
        syntax, rewrite, dis, lam = (mods["syntax"], mods["rewrite"],
                                     mods["disassemble"], mods["lam"])
        checks, rt, terms = mods["checks"], mods["randterms"], mods["terms"]
        self.parse = syntax.parse
        self.format_term = syntax.format_term
        self.compile_term = dis.compile_term
        self.expand_derived = dis.expand_derived
        self.normalize = rewrite.normalize
        self.normalize_fast = rewrite.normalize_fast
        self.beta_normalize_fast = lam.beta_normalize_fast
        self.alpha_eq = terms.alpha_eq
        self.load_catalog = checks.load_catalog
        self.run_check = checks.run_check
        self.expand_check = checks.expand_check
        self.probe_eq = rt.probe_eq
        self.FULL, self.CL_BASE = rewrite.FULL, rewrite.CL_BASE
        self.NORMAL_FORM = rewrite.NORMAL_FORM
        self.DEFAULT_MAX_STEPS = rewrite.DEFAULT_MAX_STEPS

    def cli(self, argv: list) -> tuple:
        """`clsh ARGV`, its standard output captured: returns (exit code,
        output, steps fired)."""
        buf, before = io.StringIO(), self.fired.steps
        with contextlib.redirect_stdout(buf):
            code = self.mods["cli"].main(argv)
        return code, buf.getvalue(), self.fired.steps - before


def warm_caches(lib: Lib) -> None:
    """Fill the @cache'd derived-combinator definitions, as the first
    expanded check of a CLI run would."""
    dis = lib.mods["disassemble"]
    for name in sorted(dis.DERIVED_NAMES):
        dis.define_as_ski(name)


# ---------------------------------------------------------------------------
# recording ops


@dataclass
class Recorder:
    """Outcomes and timings of the ops of one run.

    check(out) returns (outcome, steps, oracle_ok).  An op fails when it
    raises, when its oracle rejects it, or when its outcome (steps, status
    and a hash of what it prints) differs from the one recorded in
    expected.json, or, for a key not recorded there, from its first
    repetition in the run.  Outcomes seen first are kept in `recorded`.
    Every op that passes counts in `done` and `steps`, and its wall time
    is kept under its key in `times`.
    """
    expected: dict | None = None
    tracer: object = None
    times: dict = field(default_factory=lambda: defaultdict(list))
    done: int = 0
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    nonconverged: int = 0
    recorded: dict = field(default_factory=dict)

    def op(self, key: str, run, check) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(self.attempted)
        try:
            t0 = perf_counter()
            out = run()
            t1 = perf_counter()
            if self.tracer is not None:
                self.tracer.end_op()
            outcome, steps, ok = check(out)
        except Exception as e:  # an op failing must not stop the run
            if self.tracer is not None and self.tracer.op is not None:
                self.tracer.end_op()
            self.failed += 1
            self.failures.append(f"{key}: {type(e).__name__}: {e}")
            return
        want = None
        if self.expected is not None:
            want = self.expected.get(key)
        if want is None:  # first sight: later repetitions must agree
            want = self.recorded.setdefault(key, outcome)
        if not (ok and outcome == want):
            self.failed += 1
            self.failures.append(f"{key}: got {outcome!r}, expected {want!r}")
            return
        self.done += 1
        self.steps += steps
        self.times[key].append(t1 - t0)


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass `index`: it shuffles the pass's ops."""
    return seed * 1_000_003 + index


# ---------------------------------------------------------------------------
# catalog


def catalog_inputs(lib: Lib, seed: int, smoke: bool) -> dict:
    text = resources.files("clsh").joinpath("catalogs/core.eqs").read_text()
    return {"seed": seed, "text": text}


def catalog_outcome(fmt, report) -> list:
    """[lhs steps, rhs steps, verdict, hash of detail and normal forms]."""
    if report.mode == "chain":
        ls, rs = len(report.steps), 0
    else:
        ls, rs = report.lhs_trace.nsteps, report.rhs_trace.nsteps
    shown = "\n".join([report.detail] + [fmt(t) for t in (report.lhs_nf,
                                                         report.rhs_nf)
                                          if t is not None])
    return [ls, rs, report.verdict, digest(shown)]


def catalog_pass(lib: Lib, inputs: dict, index: int, rec: Recorder) -> None:
    """`clsh check` then `clsh check --expanded` on one load of the
    built-in catalog; a verdict must meet the check's own expectation."""
    rng = random.Random(pass_seed(inputs["seed"], index))
    fmt = lib.mods["syntax"].format_term
    checks = lib.load_catalog(inputs["text"])
    phases = [("plain", lib.FULL, list(checks))]
    expanded = [e for c in checks if (e := lib.expand_check(c)) is not None]
    phases.append(("expanded", lib.CL_BASE, expanded))

    def check(report):
        got = catalog_outcome(fmt, report)
        return got, got[0] + got[1], report.ok

    for phase, rules, batch in phases:
        rng.shuffle(batch)
        for c in batch:
            rec.op(f"{phase}|{c.name}",
                   lambda c=c, rules=rules:
                   lib.run_check(c, rules, lib.DEFAULT_MAX_STEPS),
                   check)


# ---------------------------------------------------------------------------
# church


def church_inputs(lib: Lib, seed: int, smoke: bool) -> dict:
    terms = SMOKE_CHURCH if smoke else CHURCH
    return {"seed": seed,
            "ops": [(f"{op} {m} {n}", church_source(op, m, n),
                     numeral_text(church_value(op, m, n)), engine)
                    for op, m, n in terms for engine in ("lo", "ri", "beta")]}


def church_op(lib: Lib, src: str, engine: str) -> tuple:
    """`clsh reduce --strategy ENGINE --max-steps 100000 SRC`, or the beta
    machine on SRC: returns (exit code or status, printed normal form,
    steps)."""
    if engine == "beta":
        nf, n, status = lib.beta_normalize_fast(lib.parse(src),
                                                CHURCH_MAX_STEPS)
        return status, lib.format_term(nf) + "\n", n
    return lib.cli(["reduce", "--strategy", engine,
                    "--max-steps", str(CHURCH_MAX_STEPS), src])


def church_pass(lib: Lib, inputs: dict, index: int, rec: Recorder) -> None:
    """Every (term, engine) once; the normal form must be the numeral of
    the arithmetic result."""
    rng = random.Random(pass_seed(inputs["seed"], index))
    order = list(inputs["ops"])
    rng.shuffle(order)
    for label, src, numeral, engine in order:
        def check(out, numeral=numeral):
            status, text, n = out
            return [n, status, digest(text)], n, text == numeral + "\n"

        rec.op(f"{label}|{engine}",
               lambda src=src, engine=engine: church_op(lib, src, engine),
               check)


# ---------------------------------------------------------------------------
# trace


def trace_inputs(lib: Lib, seed: int, smoke: bool) -> dict:
    terms = SMOKE_TRACE if smoke else TRACE
    return {"seed": seed,
            "ops": [(f"{op} {m} {n}",
                     ["reduce", "--trace" if mode == "text" else "--json",
                      "--strategy", strategy,
                      "--max-steps", str(lib.DEFAULT_MAX_STEPS),
                      church_source(op, m, n)], f"{strategy}|{mode}")
                    for op, m, n in terms for strategy in ("lo", "ri")
                    for mode in ("text", "json")]}


def trace_pass(lib: Lib, inputs: dict, index: int, rec: Recorder) -> None:
    """Every (term, strategy, --trace or --json) once; the printed bytes
    must hash as recorded."""
    rng = random.Random(pass_seed(inputs["seed"], index))
    order = list(inputs["ops"])
    rng.shuffle(order)

    def check(out):
        code, text, n = out
        return [n, code, digest(text)], n, True

    for label, argv, variant in order:
        rec.op(f"{label}|{variant}", lambda argv=argv: lib.cli(argv), check)


# ---------------------------------------------------------------------------
# sampled


@dataclass
class SampledTotals:
    """The counts the two experiments report, for comparing with them."""
    checked: int = 0
    nonconverged: list = field(default_factory=list)
    mismatches: int = 0
    compared: int = 0
    skipped: list = field(default_factory=list)
    counterexamples: int = 0


def sampled_inputs(lib: Lib, seed: int, smoke: bool) -> dict:
    """The draws are the experiments' default seed and the ones after it,
    so every seed runs the same terms and differs only in their order:
    which rare heavy terms a draw holds would otherwise move ops_per_s
    more than any change to clsh."""
    first = lib.mods["randterms"].DEFAULT_SEED
    return {"seed": seed, "n": SMOKE_SAMPLED_N if smoke else SAMPLED_N,
            "draws": [first + k for k in range(SAMPLED_DRAWS)]}


def oracle_op(lib: Lib, t, totals: SampledTotals,
              budget: int = 50_000) -> tuple:
    """One iteration of oracle_agreement_experiment's loop on its drawn
    term t: returns (steps fired, probe_eq's included, mismatches found,
    whether both engines converged, their normal forms)."""
    terms = lib.mods["terms"]
    src = lib.format_term(t)
    bt, bn, bstat = lib.beta_normalize_fast(t, budget)
    ct, cn, cstat = lib.normalize_fast(lib.compile_term(t), lib.CL_BASE,
                                       budget)
    steps = bn + cn
    if bstat != lib.NORMAL_FORM or cstat != lib.NORMAL_FORM:
        totals.nonconverged.append(src)
        return steps, 0, False, (ct, bt)
    totals.checked += 1
    bad = 0
    for k in (1, 2, 3):
        args = [terms.Var(f"z{i}") for i in range(1, k + 1)]
        ckt, ckn, cks = lib.normalize_fast(terms.app(ct, *args), lib.CL_BASE,
                                           budget)
        bkt, bkn, bks = lib.beta_normalize_fast(terms.app(bt, *args), budget)
        steps += ckn + bkn
        if cks != lib.NORMAL_FORM or bks != lib.NORMAL_FORM:
            bad += 1
            continue
        before = lib.fired.steps
        bad += not lib.probe_eq(ckt, bkt, budget=budget)
        steps += lib.fired.steps - before
    totals.mismatches += bad
    return steps, bad, True, (ct, bt)


def confluence_op(lib: Lib, t, totals: SampledTotals,
                  budget: int = 10_000) -> tuple:
    """One iteration of confluence_experiment's loop on its drawn term t."""
    lo, ln, ls = lib.normalize_fast(t, lib.FULL, budget, "lo")
    ri, rn, rs = lib.normalize_fast(t, lib.FULL, budget, "ri")
    if ls != lib.NORMAL_FORM or rs != lib.NORMAL_FORM:
        totals.skipped.append(lib.format_term(t))
        return ln + rn, 0, False, (lo, ri)
    totals.compared += 1
    bad = 0 if lib.alpha_eq(lo, ri) else 1
    totals.counterexamples += bad
    return ln + rn, bad, True, (lo, ri)


def sampled_run(lib: Lib, seed: int, n: int, rec: Recorder,
                order: random.Random | None = None) -> SampledTotals:
    """Both experiment bodies at one seed.  The terms are drawn as the
    experiment draws them, then each is one op, in the order `order`
    shuffles them into, or in the experiment's.  A mismatch or a
    counterexample fails its op; nonconvergence is counted, and recorded
    in the op's outcome."""
    rt = lib.mods["randterms"]
    fmt = lib.mods["syntax"].format_term
    totals = SampledTotals()

    def check(out):
        steps, bad, converged, (a, b) = out
        rec.nonconverged += not converged
        outcome = [steps, converged, digest(fmt(a) + "\n" + fmt(b))]
        return outcome, steps, bad == 0

    for name, gen, max_size, body in (
            ("oracle", rt.gen_closed_lambda, 12, oracle_op),
            ("confluence", rt.gen_cl_term, 10, confluence_op)):
        rng = random.Random(seed)
        drawn = [gen(rng, max_size) for _ in range(n)]
        index = list(range(n))
        if order is not None:
            order.shuffle(index)
        for i in index:
            rec.op(f"{name}|{seed}|{i}",
                   lambda t=drawn[i], body=body: body(lib, t, totals), check)
    return totals


def sampled_pass(lib: Lib, inputs: dict, index: int, rec: Recorder) -> None:
    """Both experiments on every draw, each draw's terms shuffled."""
    order = random.Random(pass_seed(inputs["seed"], index))
    for draw in inputs["draws"]:
        sampled_run(lib, draw, inputs["n"], rec, order)


INPUTS = {"catalog": catalog_inputs, "church": church_inputs,
          "trace": trace_inputs, "sampled": sampled_inputs}
PASSES = {"catalog": catalog_pass, "church": church_pass,
          "trace": trace_pass, "sampled": sampled_pass}
