"""Acceptance gate: the externally checkable claims this package makes.

Run with `pytest -s tests/test_acceptance.py` to see one verdict line per
criterion:

  1. the built-in equation suite passes in full, quickly;
  2. compiled terms agree with the beta oracle on a large seeded sample;
  3. the two reduction strategies reach the same normal forms;
  4. every derived combinator rule agrees with its definition, both under
     weak reduction of the unfoldings and under an independent beta engine;
  5. printing and reparsing is the identity on a large seeded sample;
  6. a deliberately false equation is reported as a failure with exit 1.
"""

import random
import time

from clsh.checks import builtin_catalog, checks_and_rules, run_checks
from clsh.cli import EXIT_CHECK_FAILED, main
from clsh.disassemble import DERIVED_NAMES, lambda_definition
from clsh.lam import beta_normalize_fast
from clsh.randterms import (
    DEFAULT_SEED,
    confluence_experiment,
    gen_cl_term,
    gen_closed_lambda,
    oracle_agreement_experiment,
)
from clsh.rewrite import CL_BASE, DERIVED, NORMAL_FORM, normalize_fast
from clsh.syntax import format_term, parse
from clsh.terms import App, Atom, Lam, Term, Var, alpha_eq, app, fresh_var


def report(num: int, slug: str, ok: bool, extra: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"criterion {num} ({slug}): {verdict}{tail}")
    assert ok, f"criterion {num} ({slug}) failed{tail}"


def test_criterion_1_builtin_suite():
    t0 = time.perf_counter()
    reports = run_checks(*checks_and_rules(builtin_catalog(), False), 10_000)
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in reports if not r.ok]
    names = {c.name for c in builtin_catalog()}
    required = {
        "curry-vs-cb2d",
        "curry-eps-is-identity",
        "pair-projections-identity",
        "curry-roundtrip-on-pairs",
        "curry-roundtrip-on-applications",
        "quotation-at-solution",
        "constant-criterion-at-solution",
    }
    nchains = sum(r.mode == "chain" for r in reports)
    ok = (len(reports) >= 12 and not failed and required <= names
          and nchains >= 3 and elapsed < 5.0)
    report(1, "built-in equation suite", ok,
           f"{len(reports)} checks, {nchains} chains, {elapsed:.2f}s"
           + (f", failed: {failed}" if failed else ""))


def test_criterion_2_compiler_vs_beta_oracle():
    res = oracle_agreement_experiment(n=1000, seed=DEFAULT_SEED,
                                      max_size=12, budget=50_000)
    frac = res.nonconverged_fraction
    ok = (res.checked + len(res.nonconverged) == 1000
          and not res.mismatches and frac <= 0.05)
    report(2, "compile and normalize vs beta oracle", ok,
           f"{res.checked} agree, {len(res.mismatches)} mismatches, "
           f"{len(res.nonconverged)} nonconvergent ({frac:.1%})")


def test_criterion_3_strategy_confluence():
    res = confluence_experiment(n=1000, seed=DEFAULT_SEED,
                                max_size=10, budget=10_000)
    ok = res.compared + len(res.skipped) == 1000 and not res.counterexamples
    report(3, "leftmost-outermost vs rightmost-innermost", ok,
           f"{res.compared} compared, {len(res.skipped)} skipped, "
           f"{len(res.counterexamples)} counterexamples")


# criterion 4 helpers: an independent beta-world reading of every atom

_LAM_BASIS = {
    "I": parse(r"\a. a"),
    "K": parse(r"\a b. a"),
    "S": parse(r"\a b c. a c (b c)"),
}


def _to_lambda(t: Term) -> Term:
    match t:
        case Atom(n) if n in _LAM_BASIS:
            return _LAM_BASIS[n]
        case Atom(n) if n in DERIVED_NAMES:
            return _to_lambda(lambda_definition(n))
        case App(f, a):
            return App(_to_lambda(f), _to_lambda(a))
        case Lam(x, b):
            return Lam(x, _to_lambda(b))
        case _:
            return t


def _binder_count(t: Term) -> int:
    n = 0
    while isinstance(t, Lam):
        n += 1
        t = t.body
    return n


def test_criterion_4_derived_rules_match_definitions():
    from clsh.disassemble import expand_derived

    mismatches = []
    for rule in DERIVED:
        # saturate the spine: a definition may bind more arguments than the
        # rule pattern consumes (Fork binds a fourth), so pad with fresh vars
        extra = _binder_count(lambda_definition(rule.head)) - rule.arity
        avoid = set(rule.metavars)
        pads = []
        for _ in range(max(0, extra)):
            v = fresh_var(avoid, hint="w")
            avoid.add(v)
            pads.append(Var(v))
        lhs = app(rule.lhs, *pads)
        rhs = app(rule.rhs, *pads)

        a, _, sa = normalize_fast(expand_derived(lhs), CL_BASE, 10_000)
        b, _, sb = normalize_fast(expand_derived(rhs), CL_BASE, 10_000)
        if not (sa == sb == NORMAL_FORM and alpha_eq(a, b)):
            mismatches.append(f"{rule.name} (weak)")

        la, _, ea = beta_normalize_fast(_to_lambda(lhs), 10_000)
        lb, _, eb = beta_normalize_fast(_to_lambda(rhs), 10_000)
        if not (ea == eb == NORMAL_FORM and alpha_eq(la, lb)):
            mismatches.append(f"{rule.name} (beta)")

    report(4, "derived rules vs definitions", not mismatches,
           f"{len(DERIVED)} rules, two routes each"
           + (f", mismatches: {mismatches}" if mismatches else ""))


def test_criterion_5_print_parse_round_trip():
    rng = random.Random(DEFAULT_SEED)
    bad = 0
    for i in range(1000):
        t = gen_cl_term(rng) if i % 2 else gen_closed_lambda(rng)
        back = parse(format_term(t))
        if back != t or not alpha_eq(back, t):
            bad += 1
    report(5, "print then parse is the identity", bad == 0,
           f"1000 terms, {bad} failures")


def test_criterion_6_negative_control(tmp_path, capsys):
    f = tmp_path / "false.eqs"
    f.write_text("check k-equals-s\nmode extensional 2\nlhs K\nrhs S\n")
    code = main(["check", "--catalog", str(f)])
    out = capsys.readouterr().out
    with capsys.disabled():
        ok = code == EXIT_CHECK_FAILED and "FAIL" in out
        report(6, "false equation is caught", ok,
               f"exit {code}")
