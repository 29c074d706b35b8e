"""Machine-checked equation catalogs.

A catalog file holds named checks in three modes:

  extensional N   apply both sides to N fresh variables (N at most
                  DEFAULT_MAX_SIZE), normalize, compare
  instance        substitute the `let` bindings into both sides, normalize,
                  compare; a binding that would take a side over
                  DEFAULT_MAX_SIZE nodes gives a budget verdict instead
  chain           replay an explicit derivation: each step names a rule, a
                  position, a direction, and the resulting term; backward
                  steps are verified by running the rule forward from the
                  step's term

Checks may carry local hypothesis rules (`hyp name: LHS => RHS`), equations
assumed for the scope of that check only, on top of the engine catalog.  A
check may also declare `expect distinct`: the two sides are recorded as
genuinely different, which is itself worth pinning down when a naive
identification of them would be tempting.

The optional `expanded` directive says what becomes of the check when every
derived atom is unfolded into I/K/S and only the base rules run.  `same` is
the default; `distinct` records that the sides then normalize to different
weak normal forms (pair projections are the canonical case: the unfolded
sides are closures still waiting for an argument, equal only extensionally);
`skip` leaves the check out of the expanded run entirely.

Syntax of a catalog:

    check NAME
    title free text
    mode extensional 2 | instance | chain
    hyp name: LHS => RHS
    let var = TERM
    lhs TERM
    rhs TERM
    expect equal | distinct
    expanded same | distinct | skip
    step RULE @ POS -> TERM
    step RULE @ POS <- TERM

Positions are dotted fun/arg paths, `root` for the whole term.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace as dc_replace
from importlib import resources
from typing import Optional

from .disassemble import expand_derived
from .rewrite import (
    BUDGET_EXHAUSTED,
    DEFAULT_MAX_SIZE,
    DEFAULT_MAX_STEPS,
    FULL,
    CL_BASE,
    RewriteRule,
    RuleSet,
    Trace,
    TraceStep,
    normalize,
    parse_rule,
)
from .syntax import format_term, parse
from .terms import (
    Term,
    Var,
    alpha_eq,
    app,
    free_vars,
    occurrences,
    pos_from_str,
    replace_at,
    substitute,
    subterm_at,
)


class CatalogError(ValueError):
    """A catalog file that does not follow the format above."""


@dataclass(frozen=True)
class EquationCheck:
    name: str
    mode: str  # "extensional" | "instance" | "chain"
    lhs: Term
    rhs: Term
    arity: int = 0
    bindings: tuple[tuple[str, Term], ...] = ()
    script: tuple[TraceStep, ...] = ()
    hypotheses: tuple[RewriteRule, ...] = ()
    expect: str = "equal"  # or "distinct"
    expanded: str = "same"  # or "distinct" or "skip"
    title: str = ""


@dataclass(frozen=True)
class CheckReport:
    name: str
    mode: str
    verdict: str  # "pass" | "fail" | "budget"
    expect: str
    detail: str = ""
    title: str = ""
    lhs_nf: Optional[Term] = None
    rhs_nf: Optional[Term] = None
    lhs_trace: Optional[Trace] = None
    rhs_trace: Optional[Trace] = None
    steps: tuple[TraceStep, ...] = ()

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "mode": self.mode,
            "verdict": self.verdict,
            "expect": self.expect,
            "detail": self.detail,
        }
        if self.title:
            out["title"] = self.title
        if self.lhs_nf is not None:
            out["lhs_nf"] = format_term(self.lhs_nf)
        if self.rhs_nf is not None:
            out["rhs_nf"] = format_term(self.rhs_nf)
        if self.lhs_trace is not None:
            out["lhs_steps"] = self.lhs_trace.nsteps
            out["rhs_steps"] = self.rhs_trace.nsteps
        if self.steps:
            out["steps"] = [s.to_json() for s in self.steps]
        return out


# ---------------------------------------------------------------------------
# catalog parsing

_STEP_RE = re.compile(r"(\w+)\s*@\s*([\w.]+)\s*(->|<-)\s*(.+)")
_LET_RE = re.compile(r"(\w+)\s*=\s*(.+)")


def load_catalog(text: str) -> list[EquationCheck]:
    checks: list[EquationCheck] = []
    cur: Optional[dict] = None

    def flush(lineno):
        nonlocal cur
        if cur is None:
            return
        if cur["mode"] is None:
            raise CatalogError(f"check {cur['name']}: no mode (line {lineno})")
        if cur["lhs"] is None or cur["rhs"] is None:
            raise CatalogError(f"check {cur['name']}: lhs and rhs are required "
                               f"(line {lineno})")
        if cur["mode"] == "chain" and not cur["steps"]:
            raise CatalogError(f"check {cur['name']}: a chain needs steps "
                               f"(line {lineno})")
        if cur["mode"] != "chain" and cur["steps"]:
            raise CatalogError(f"check {cur['name']}: steps only belong in "
                               f"chain mode (line {lineno})")
        checks.append(EquationCheck(
            name=cur["name"], mode=cur["mode"], lhs=cur["lhs"], rhs=cur["rhs"],
            arity=cur["arity"], bindings=tuple(cur["lets"]),
            script=tuple(cur["steps"]), hypotheses=tuple(cur["hyps"]),
            expect=cur["expect"], expanded=cur["expanded"], title=cur["title"]))
        cur = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "check":
            flush(lineno)  # its errors name their line already
        try:
            match word:
                case "check":
                    if not rest.replace("-", "_").isidentifier():
                        raise CatalogError(f"bad check name {rest!r}")
                    cur = {"name": rest, "title": "", "mode": None, "arity": 0,
                           "lhs": None, "rhs": None, "expect": "equal",
                           "expanded": "same", "lets": [], "steps": [],
                           "hyps": []}
                case _ if cur is None:
                    raise CatalogError(f"{word!r} outside a check block")
                case "title":
                    cur["title"] = rest
                case "mode":
                    kind, _, ar = rest.partition(" ")
                    if kind == "extensional":
                        if not ar.strip().isdecimal() or int(ar) > DEFAULT_MAX_SIZE:
                            raise ValueError(f"bad arity {ar!r}: want 0 to "
                                             f"{DEFAULT_MAX_SIZE}")
                        cur["mode"] = kind
                        cur["arity"] = int(ar)
                    elif kind in ("instance", "chain") and not ar:
                        cur["mode"] = kind
                    else:
                        raise CatalogError(f"bad mode {rest!r}")
                case "hyp":
                    cur["hyps"].append(parse_rule(rest))
                case "let":
                    m = _LET_RE.fullmatch(rest)
                    if not m:
                        raise CatalogError("expected 'let var = TERM'")
                    cur["lets"].append((m.group(1), parse(m.group(2))))
                case "lhs":
                    cur["lhs"] = parse(rest)
                case "rhs":
                    cur["rhs"] = parse(rest)
                case "expect":
                    if rest not in ("equal", "distinct"):
                        raise CatalogError(f"bad expect {rest!r}")
                    cur["expect"] = rest
                case "expanded":
                    if rest not in ("same", "distinct", "skip"):
                        raise CatalogError(f"bad expanded {rest!r}")
                    cur["expanded"] = rest
                case "step":
                    m = _STEP_RE.fullmatch(rest)
                    if not m:
                        raise CatalogError("expected 'step RULE @ POS -> TERM'")
                    cur["steps"].append(TraceStep(
                        m.group(1), pos_from_str(m.group(2)), m.group(3),
                        parse(m.group(4))))
                case _:
                    raise CatalogError(f"unknown directive {word!r}")
        except ValueError as e:
            raise CatalogError(f"line {lineno}: {e}") from e
    flush("end")
    return checks


# ---------------------------------------------------------------------------
# running checks

def _fresh_args(n: int, avoid: frozenset[str]) -> list[Term]:
    out = []
    i = 1
    while len(out) < n:
        name = f"v{i}"
        i += 1
        if name not in avoid:
            out.append(Var(name))
    return out


def replay_chain(check: EquationCheck, rules: RuleSet) -> CheckReport:
    """Verify a derivation step by step.  A forward step must rewrite the
    current term into the recorded one; a backward step must rewrite the
    recorded term into the current one.  The last term must be the rhs."""
    by_name = {r.name: r for r in rules}
    base = dict(name=check.name, mode=check.mode, expect=check.expect,
                title=check.title)

    def failure(i: int, why: str, done: list[TraceStep]) -> CheckReport:
        return CheckReport(verdict="fail", steps=tuple(done),
                           detail=f"step {i}: {why}", **base)

    cur = check.lhs
    done: list[TraceStep] = []
    for i, step in enumerate(check.script, start=1):
        rule = by_name.get(step.rule)
        if rule is None:
            return failure(i, f"unknown rule {step.rule!r}", done)
        src = cur if step.dir == "->" else step.result
        dst = step.result if step.dir == "->" else cur
        try:
            sub = subterm_at(src, step.pos)
        except ValueError:
            return failure(i, f"no such position in {format_term(src)}", done)
        hit = rule.fire(sub)
        if hit is None:
            return failure(
                i, f"rule {step.rule} does not match at {format_term(sub)}", done)
        got = replace_at(src, step.pos, hit)
        if not alpha_eq(got, dst):
            return failure(
                i, f"rule {step.rule} gives {format_term(got)}, "
                   f"the script says {format_term(dst)}", done)
        cur = step.result
        done.append(step)
    if not alpha_eq(cur, check.rhs):
        return failure(len(check.script),
                       f"chain ends at {format_term(cur)}, not the rhs", done)
    return CheckReport(verdict="pass", steps=tuple(done),
                       lhs_nf=check.lhs, rhs_nf=check.rhs,
                       detail=f"{len(done)} steps replayed", **base)


def run_check(check: EquationCheck, rules: RuleSet = FULL,
              max_steps: int = DEFAULT_MAX_STEPS) -> CheckReport:
    rules = rules.extend(*check.hypotheses)
    base = dict(name=check.name, mode=check.mode, expect=check.expect,
                title=check.title)
    lhs, rhs = check.lhs, check.rhs
    match check.mode:
        case "chain":
            return replay_chain(check, rules)
        case "extensional":
            args = _fresh_args(check.arity, free_vars(lhs) | free_vars(rhs))
            lhs, rhs = app(lhs, *args), app(rhs, *args)
        case "instance":
            for name, value in check.bindings:
                # each free occurrence of name becomes |value| nodes
                size = max(s._size + occurrences(name, s) * (value._size - 1)
                           for s in (lhs, rhs))
                if size > DEFAULT_MAX_SIZE:
                    return CheckReport(
                        verdict="budget", **base,
                        detail=f"let {name} would take a side to {size} "
                               f"nodes, over the size guard of "
                               f"{DEFAULT_MAX_SIZE}")
                lhs = substitute(lhs, name, value)
                rhs = substitute(rhs, name, value)
        case _:
            raise CatalogError(f"check {check.name}: unknown mode {check.mode!r}")
    lt = normalize(lhs, rules, max_steps)
    rt = normalize(rhs, rules, max_steps)
    base.update(lhs_nf=lt.final, rhs_nf=rt.final, lhs_trace=lt, rhs_trace=rt)
    if lt.status == BUDGET_EXHAUSTED or rt.status == BUDGET_EXHAUSTED:
        side = "lhs" if lt.status == BUDGET_EXHAUSTED else "rhs"
        return CheckReport(verdict="budget",
                           detail=f"{side} ran out of budget", **base)
    equal = alpha_eq(lt.final, rt.final)
    want_equal = check.expect == "equal"
    if equal == want_equal:
        detail = ("both sides reach " + format_term(lt.final) if equal else
                  "sides stay apart, as recorded")
        return CheckReport(verdict="pass", detail=detail, **base)
    detail = (f"normal forms differ: {format_term(lt.final)} vs "
              f"{format_term(rt.final)}" if not equal else
              "sides unexpectedly meet at " + format_term(lt.final))
    return CheckReport(verdict="fail", detail=detail, **base)


def run_checks(checks: list[EquationCheck], rules: RuleSet = FULL,
               max_steps: int = DEFAULT_MAX_STEPS) -> list[CheckReport]:
    return [run_check(c, rules, max_steps) for c in checks]


# ---------------------------------------------------------------------------
# the built-in catalog

def expand_check(check: EquationCheck) -> Optional[EquationCheck]:
    """Restate a check over the bare basis: every derived atom is unfolded
    into I/K/S and the engine runs on the three base rules alone.  A chain
    becomes a joinability test of its endpoints.  Checks with hypothesis
    rules are out of scope, since their hypotheses pattern-match on the very
    atoms being unfolded; checks marked `expanded skip` are left out, and
    `expanded distinct` flips the expectation, recording that the unfolded
    sides are merely extensionally equal closures."""
    if check.hypotheses or check.expanded == "skip":
        return None
    c = dc_replace(
        check,
        lhs=expand_derived(check.lhs),
        rhs=expand_derived(check.rhs),
        bindings=tuple((n, expand_derived(v)) for n, v in check.bindings),
    )
    if check.expanded == "distinct":
        c = dc_replace(c, expect="distinct")
    if check.mode == "chain":
        c = dc_replace(c, mode="extensional", arity=0, script=())
    return c


def builtin_catalog() -> list[EquationCheck]:
    text = resources.files("clsh").joinpath("catalogs/core.eqs").read_text()
    return load_catalog(text)


def checks_and_rules(checks: list[EquationCheck],
                     expanded: bool) -> tuple[list[EquationCheck], RuleSet]:
    """All the checks under FULL or, if expanded, the hypothesis-free ones
    with derived atoms unfolded, under the base rules only."""
    if not expanded:
        return list(checks), FULL
    return [e for c in checks if (e := expand_check(c)) is not None], CL_BASE
