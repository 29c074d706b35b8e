"""Randomized cross-checks between the engines.

Two experiments, both seeded and reproducible:

  oracle_agreement_experiment: random closed pure lambda terms are compiled
  to I/K/S and run under the weak rewriter; plain beta reduction of the
  original term is the oracle.  Because a weak combinator normal form can
  hide structure that beta reduction exposes under a binder, results are
  compared observationally: apply both sides to fresh variables, normalize
  again, and only compare syntactically once the beta side is free of
  binders.  Stuck heads must agree in name and argument count, pointwise.

  confluence_experiment: random applicative terms over the full atom
  catalog are normalized leftmost-outermost and rightmost-innermost; since
  the rules are left-linear and non-overlapping, both strategies must land
  on the same normal form whenever both converge.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from .disassemble import compile_term
from .lam import beta_normalize_fast
from .rewrite import CL_BASE, FULL, NORMAL_FORM, RuleSet, normalize_fast
from .syntax import format_term
from .terms import (App, Atom, Lam, Term, Var, alpha_eq, app, free_vars,
                    fresh_var, positions, spine)

DEFAULT_SEED = 20260814


# ---------------------------------------------------------------------------
# generators

def gen_closed_lambda(rng: random.Random, max_size: int = 12) -> Term:
    """A closed lambda term over variables only: no atoms, so beta reduction
    is the whole story."""
    target = rng.randint(4, max(4, max_size))

    def go(env: list[str], budget: int) -> Term:
        if not env:
            binder = f"x{len(env) + 1}"
            return Lam(binder, go(env + [binder], max(1, budget - 1)))
        if budget >= 3:
            r = rng.random()
            if r < 0.55:
                left = rng.randint(1, budget - 2)
                return App(go(env, left), go(env, budget - 1 - left))
            if r < 0.80:
                binder = f"x{len(env) + 1}"
                return Lam(binder, go(env + [binder], budget - 1))
            return Var(rng.choice(env))
        if budget == 2 and rng.random() < 0.5:
            binder = f"x{len(env) + 1}"
            return Lam(binder, Var(rng.choice(env + [binder])))
        return Var(rng.choice(env))

    return go([], target)


_CL_ATOMS = tuple(Atom(n) for n in
                  ("I", "K", "S", "B", "C", "D", "Phi", "Psi", "C2",
                   "Curry", "p", "q", "eps", "Fork", "Comp"))
_CL_VARS = (Var("a"), Var("b"), Var("c"))


def gen_cl_term(rng: random.Random, max_size: int = 10) -> Term:
    """A lambda-free applicative term over the whole atom catalog plus a
    few free variables."""
    target = rng.randint(1, max(1, max_size))

    def go(budget: int) -> Term:
        if budget <= 1:
            if rng.random() < 0.25:
                return rng.choice(_CL_VARS)
            return rng.choice(_CL_ATOMS)
        left = rng.randint(1, budget - 1)
        return App(go(left), go(budget - left))

    return go(target)


# ---------------------------------------------------------------------------
# observational comparison

def _has_lam(t: Term) -> bool:
    return any(type(s) is Lam for _, s in positions(t))


def probe_eq(cl_nf: Term, beta_nf: Term, depth: int = 8,
             budget: int = 50_000) -> bool:
    """Bounded observational equality between a weak combinator normal form
    and a beta normal form.  Once the beta side has no binders left the
    comparison is syntactic; otherwise matching stuck heads are compared
    argument by argument, and anything else is fed a fresh variable and
    renormalized.  Runs that do not settle count as disagreement."""
    if not _has_lam(beta_nf):
        return alpha_eq(cl_nf, beta_nf)
    if depth <= 0:
        return True  # no disagreement found within the observation bound
    bh, bargs = spine(beta_nf)
    if type(bh) in (Var, Atom):
        ch, cargs = spine(cl_nf)
        if type(ch) is not type(bh) or ch.name != bh.name or len(cargs) != len(bargs):
            return False
        return all(probe_eq(c, b, depth - 1, budget)
                   for c, b in zip(cargs, bargs))
    z = Var(fresh_var(free_vars(cl_nf) | free_vars(beta_nf), "w"))
    c2, _, cs = normalize_fast(App(cl_nf, z), CL_BASE, budget)
    b2, _, bs = beta_normalize_fast(App(beta_nf, z), budget)
    if cs != NORMAL_FORM or bs != NORMAL_FORM:
        return False
    return probe_eq(c2, b2, depth - 1, budget)


# ---------------------------------------------------------------------------
# experiment 1: compiled combinators against beta reduction

@dataclass(frozen=True)
class Mismatch:
    term: str
    arity: int
    cl_side: str
    beta_side: str
    reason: str


@dataclass(frozen=True)
class OracleAgreement:
    seed: int
    n: int
    max_size: int
    budget: int
    checked: int
    mismatches: tuple[Mismatch, ...]
    nonconverged: tuple[str, ...]

    @property
    def nonconverged_fraction(self) -> float:
        return len(self.nonconverged) / self.n if self.n else 0.0

    def to_json(self) -> dict:
        return {**asdict(self),
                "nonconverged_fraction": self.nonconverged_fraction}


def oracle_agreement_experiment(n: int = 1000, seed: int = DEFAULT_SEED,
                                max_size: int = 12,
                                budget: int = 50_000) -> OracleAgreement:
    """Compile n random closed lambda terms and test, at 1, 2 and 3 extra
    arguments, that weak reduction of the compiled term agrees with beta
    reduction of the original.  Terms where either engine runs out of budget
    are reported as nonconverged rather than as disagreements."""
    rng = random.Random(seed)
    mismatches: list[Mismatch] = []
    nonconverged: list[str] = []
    checked = 0
    for _ in range(n):
        t = gen_closed_lambda(rng, max_size)
        src = format_term(t)
        bt, _, bstat = beta_normalize_fast(t, budget)
        ct, _, cstat = normalize_fast(compile_term(t), CL_BASE, budget)
        if bstat != NORMAL_FORM or cstat != NORMAL_FORM:
            nonconverged.append(src)
            continue
        checked += 1
        for k in (1, 2, 3):
            args = [Var(f"z{i}") for i in range(1, k + 1)]
            ckt, _, cks = normalize_fast(app(ct, *args), CL_BASE, budget)
            bkt, _, bks = beta_normalize_fast(app(bt, *args), budget)
            if cks != NORMAL_FORM or bks != NORMAL_FORM:
                mismatches.append(Mismatch(src, k, format_term(ckt),
                                           format_term(bkt),
                                           "probe ran out of budget"))
                continue
            if not probe_eq(ckt, bkt, budget=budget):
                mismatches.append(Mismatch(src, k, format_term(ckt),
                                           format_term(bkt),
                                           "observational disagreement"))
    return OracleAgreement(seed, n, max_size, budget, checked,
                           tuple(mismatches), tuple(nonconverged))


# ---------------------------------------------------------------------------
# experiment 2: strategy independence of normal forms

@dataclass(frozen=True)
class Counterexample:
    term: str
    lo_nf: str
    ri_nf: str


@dataclass(frozen=True)
class ConfluenceResult:
    seed: int
    n: int
    max_size: int
    budget: int
    compared: int
    skipped: tuple[str, ...]
    counterexamples: tuple[Counterexample, ...]

    def to_json(self) -> dict:
        return asdict(self)


def confluence_experiment(n: int = 1000, seed: int = DEFAULT_SEED,
                          max_size: int = 10, budget: int = 10_000,
                          rules: RuleSet = FULL) -> ConfluenceResult:
    """Normalize n random applicative terms under both strategies and compare
    the normal forms whenever both runs converge."""
    rng = random.Random(seed)
    skipped: list[str] = []
    bad: list[Counterexample] = []
    compared = 0
    for _ in range(n):
        t = gen_cl_term(rng, max_size)
        lo, _, ls = normalize_fast(t, rules, budget, "lo")
        ri, _, rs = normalize_fast(t, rules, budget, "ri")
        if ls != NORMAL_FORM or rs != NORMAL_FORM:
            skipped.append(format_term(t))
            continue
        compared += 1
        if not alpha_eq(lo, ri):
            bad.append(Counterexample(format_term(t), format_term(lo),
                                      format_term(ri)))
    return ConfluenceResult(seed, n, max_size, budget, compared,
                            tuple(skipped), tuple(bad))
