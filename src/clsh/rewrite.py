"""First-order rewriting over applicative terms.

Rules are atom-headed, left-linear patterns with variables as metavariables,
written `name: LHS => RHS`.  Reduction is weak: lambda bodies are never
rewritten, a Lam node is simply a value.  Two strategies are provided:

  lo  leftmost-outermost: preorder scan (node, then function subtree, then
      argument subtree), first match fires, rules tried in catalog order
  ri  rightmost-innermost: postorder scan, argument subtree first

Each strategy runs on a machine that never rescans from the root; both, and
lam.py's beta machine, move on one frame zipper (see "the zipper machines").
normalize() records the machine's fires as a Trace: at each fire it keeps
the rule's name, a copy of the frame stack and the contractum.  The CLI
prints each step's text from those moves (Trace.step_texts); Trace.steps
builds each step's whole term, on first read, for library users and tests.
normalize_fast() runs the same machine without recording.  The
rescanning reducer that defines both strategies lives in the test suite,
which checks on random terms that the machines fire exactly its steps
(rule, position, result).

The machines do not interpret patterns.  Each rule compiles, on its first
use, into a generated function (RewriteRule.fire) that tests the left
side's nodes by field access and builds the right side straight from the
matched fields, returning the contractum; the size guard reads the sizes
nodes carry from construction.  match_at(), match() and instantiate() stay
as the reference the compiled rules are tested against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import CodeType
from typing import Callable, Iterator, Optional, Sequence

from .syntax import format_term, parse
from .terms import (
    App,
    Atom,
    Lam,
    Position,
    Term,
    Var,
    fold,
    pos_to_str,
    spine,
)

DEFAULT_MAX_STEPS = 10_000
DEFAULT_MAX_SIZE = 1_000_000

NORMAL_FORM = "normal_form"
BUDGET_EXHAUSTED = "budget_exhausted"


class IllFormedRuleError(ValueError):
    """Raised for rules the engine cannot run: variable-headed or nonlinear
    left sides, right sides with unbound variables, lambdas on either side."""


@dataclass(frozen=True)
class RewriteRule:
    name: str
    lhs: Term
    rhs: Term
    head: str
    arity: int
    metavars: frozenset[str]
    depth: int  # App nesting of lhs: how far above a changed node it can match

    def __str__(self):
        return f"{self.name}: {format_term(self.lhs)} => {format_term(self.rhs)}"

    @cached_property
    def fire(self) -> Callable[[Term], Optional[Term]]:
        """fire(node) -> the contractum if the left side matches at node,
        else None; generated on first use."""
        return _compile(self)


def _side(t: Term, name: str) -> tuple[list[str], int]:
    """Variable occurrences of rule name's side t (left to right) and its
    App depth; a lambda is an error."""
    occs: list[str] = []

    def leaf(n: Term) -> int:
        if type(n) is Var:
            occs.append(n.name)
        return 0

    def lam(n: Lam, b: int) -> int:
        raise IllFormedRuleError(f"rule {name}: lambdas are not allowed in rules")

    return occs, fold(t, leaf, lambda n, f, a: 1 + max(f, a), lam)


def make_rule(name: str, lhs: Term, rhs: Term) -> RewriteRule:
    occs, depth = _side(lhs, name)
    rvars, _ = _side(rhs, name)
    head, args = spine(lhs)
    if type(head) is not Atom:
        raise IllFormedRuleError(f"rule {name}: left side must be headed by an atom")
    if len(occs) != len(set(occs)):
        dup = sorted(v for v, k in Counter(occs).items() if k > 1)
        raise IllFormedRuleError(
            f"rule {name}: left side is not linear, {', '.join(dup)} repeats")
    loose = sorted(set(rvars) - set(occs))
    if loose:
        raise IllFormedRuleError(
            f"rule {name}: right side uses unbound {', '.join(loose)}")
    return RewriteRule(name, lhs, rhs, head.name, len(args), frozenset(occs),
                       depth)


def _compile(rule: RewriteRule) -> Callable[[Term], Optional[Term]]:
    """Generate and exec the source of rule.fire.

    One flat statement per pattern node and per built App, since nested
    expressions overflow the parser for rules with thousands of arguments.
    Nothing from the rule's text reaches the source except atom names, as
    repr() literals; right-side atoms are bound as constants, so the
    contractum shares the rule's own Atom objects, as instantiate() does.
    """
    lines: list[str] = []
    env: dict[str, object] = {"App": App, "Atom": Atom}
    bound: dict[str, str] = {}
    stack = [(rule.lhs, "node")]
    while stack:
        p, x = stack.pop()
        if type(p) is Var:
            bound[p.name] = x
            continue
        if type(p) is Atom:
            lines.append(f"if type({x}) is not Atom or {x}.name != {p.name!r}:"
                         " return None")
            continue
        f, a = f"_m{len(lines)}f", f"_m{len(lines)}a"
        lines.append(f"if type({x}) is not App: return None")
        lines.append(f"{f} = {x}.fun; {a} = {x}.arg")
        stack.append((p.arg, a))
        stack.append((p.fun, f))
    out: list[str] = []
    work: list[tuple[Term, bool]] = [(rule.rhs, False)]
    while work:
        t, built = work.pop()
        if type(t) is Var:
            out.append(bound[t.name])
            continue
        if not built and type(t) is App:
            work.append((t, True))
            work.append((t.arg, False))
            work.append((t.fun, False))
            continue
        if type(t) is Atom:
            name = f"_c{len(env)}"
            env[name] = t
        else:
            a = out.pop()
            name = f"_b{len(lines)}"
            lines.append(f"{name} = App({out.pop()}, {a})")
        out.append(name)
    lines.append(f"return {out[0]}")
    src = "def fire(node):\n" + "".join(f"    {line}\n" for line in lines)
    exec(_code(src), env)
    return env["fire"]


@lru_cache(maxsize=128)
def _code(src: str) -> CodeType:
    """Rules of one shape share one code object, so a catalog loaded again,
    whose `hyp` rules are new objects, does not compile them again."""
    return compile(src, "<rewrite rule>", "exec")


def parse_rule(line: str, lineno: int = 0) -> RewriteRule:
    where = f" on line {lineno}" if lineno else ""
    name, colon, rest = line.partition(":")
    name = name.strip()
    if not colon or not name.isidentifier():
        raise IllFormedRuleError(f"expected 'name: LHS => RHS'{where}")
    lhs_src, arrow, rhs_src = rest.partition("=>")
    if not arrow:
        raise IllFormedRuleError(f"rule {name}{where}: missing '=>'")
    return make_rule(name, parse(lhs_src), parse(rhs_src))


def parse_rules(text: str) -> list[RewriteRule]:
    """Parse a rule catalog: one rule per line, # starts a comment."""
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rules.append(parse_rule(line, lineno))
    return rules


@dataclass(frozen=True)
class RuleSet:
    """An ordered rule catalog with the derived indexes the machines need.

    Earlier rules win when several match at the same position.  At any one
    node at most one (head, arity) bucket can apply, since the head atom sits
    at the bottom of the application spine.
    """
    rules: tuple[RewriteRule, ...]
    _by_head_arity: dict = field(init=False, repr=False, compare=False)
    _max_arity: int = field(init=False, repr=False, compare=False)
    window: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [r.name for r in self.rules]
        if len(names) != len(set(names)):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise IllFormedRuleError(f"duplicate rule names: {', '.join(dup)}")
        index: dict[tuple[str, int], list[RewriteRule]] = {}
        for r in self.rules:
            index.setdefault((r.head, r.arity), []).append(r)
        object.__setattr__(self, "_by_head_arity",
                           {k: tuple(v) for k, v in index.items()})
        object.__setattr__(self, "_max_arity",
                           max((r.arity for r in self.rules), default=0))
        object.__setattr__(self, "window",
                           max((r.depth for r in self.rules), default=0))

    def __iter__(self) -> Iterator[RewriteRule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def extend(self, *more: RewriteRule) -> "RuleSet":
        """This set with more rules after it; the set itself when there are
        none, since it is frozen."""
        return RuleSet(self.rules + more) if more else self

    def _bucket(self, node: Term) -> tuple[RewriteRule, ...]:
        """The rules whose head and arity fit node, in catalog order: walk
        down the application spine to the head atom."""
        cur = node
        d = 0
        while type(cur) is App and d < self._max_arity:
            cur = cur.fun
            d += 1
        if type(cur) is Atom:
            return self._by_head_arity.get((cur.name, d), ())
        return ()

    def match_at(self, node: Term) -> Optional[tuple[RewriteRule, dict[str, Term]]]:
        """First rule (catalog order) whose left side matches at this node,
        with its substitution, or None.  The reference for fire_at."""
        for rule in self._bucket(node):
            sigma = match(rule.lhs, node)
            if sigma is not None:
                return rule, sigma
        return None

    def fire_at(self, node: Term) -> Optional[tuple[RewriteRule, Term]]:
        """First rule (catalog order) that fires at this node, with the
        contractum, or None."""
        for rule in self._bucket(node):
            hit = rule.fire(node)
            if hit is not None:
                return rule, hit
        return None


def match(pattern: Term, term: Term) -> Optional[dict[str, Term]]:
    """Match an atom-headed, lambda-free, linear pattern (as make_rule
    ensures) against a term; returns the substitution or None."""
    sigma: dict[str, Term] = {}
    stack = [(pattern, term)]
    while stack:
        p, s = stack.pop()
        match p:
            case Var(n):
                sigma[n] = s
            case Atom(n):
                if type(s) is not Atom or s.name != n:
                    return None
            case App(pf, pa):
                if type(s) is not App:
                    return None
                stack.append((pf, s.fun))
                stack.append((pa, s.arg))
            case _:
                return None
    return sigma


def instantiate(template: Term, sigma: dict[str, Term]) -> Term:
    """template with each variable replaced by its binding in sigma; the
    template's atoms are shared."""
    return fold(template, lambda n: sigma[n.name] if type(n) is Var else n,
                lambda n, f, a: App(f, a), _lam_in_template)


def _lam_in_template(n: Lam, b: Term) -> Term:
    raise IllFormedRuleError("lambda in rule template")


# ---------------------------------------------------------------------------
# built-in catalogs

_BASE_SRC = """
I: I a => a
K: K a b => a
S: S a b c => a c (b c)
"""

# Delta rules for the derived combinators, one per definition.  B2 has no
# rule of its own: the parser expands the token to B B B.
_DERIVED_SRC = """
B: B x y z => x (y z)
C: C x y z => x z y
D: D x y r => r x y
Phi: Phi x y z w => x (y w) (z w)
Psi: Psi x y z w => x (y z) (y w)
C2: C2 x y z w => x w y z
Curry: Curry h x y => h (D x y)
p: p (D x y) => x
q: q (D x y) => y
eps: eps z => z I
Fork: Fork f g t => D (f t) (g t)
Comp: Comp f g x => f (g x)
"""

CL_BASE = RuleSet(tuple(parse_rules(_BASE_SRC)))
DERIVED = RuleSet(tuple(parse_rules(_DERIVED_SRC)))
FULL = CL_BASE.extend(*DERIVED.rules)


# ---------------------------------------------------------------------------
# traces

@dataclass(frozen=True)
class TraceStep:
    rule: str
    pos: Position
    dir: str  # "->" forward, "<-" when replaying a derivation backwards
    result: Term

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "pos": pos_to_str(self.pos),
            "dir": self.dir,
            "result": format_term(self.result),
        }


# One fire as the machines record it: (rule name, the frames from the root
# down to the fired node, the contractum).
_Move = tuple[str, tuple[tuple[str, object], ...], Term]


@dataclass(frozen=True)
class Trace:
    """A normalization as normalize() records it.  moves holds one
    (rule name, frames, contractum) per fire; step_texts() prints them for
    `clsh reduce --trace`/`--json`, building no term.  steps turns each into
    a TraceStep, for library users and tests, once, on first read."""
    initial: Term
    moves: tuple[_Move, ...] = field(repr=False)
    status: str  # NORMAL_FORM or BUDGET_EXHAUSTED
    final: Term

    @property
    def nsteps(self) -> int:
        return len(self.moves)

    @cached_property
    def steps(self) -> tuple[TraceStep, ...]:
        return tuple([TraceStep(name, _path(frames), "->", _zip(frames, focus))
                      for name, frames, focus in self.moves])

    def step_texts(self) -> Iterator[tuple[str, str, str]]:
        """(rule name, position as pos_to_str spells it, text of the whole
        term) for each move, printed from the moves without building any
        term: a step's text is the last step's with the part under the
        frames that changed printed again."""
        # The memo is keyed only with frame siblings and contracta, which
        # self.moves holds while this runs, so no key can be the id of a
        # freed node that a new node reuses and print the wrong text.
        memo: dict[int, str] = {}

        def text(t: Term) -> str:
            s = memo.get(id(t))
            if s is None:
                s = memo[id(t)] = format_term(t, memo)
            return s

        def piece(kind: str, sib: Term, below: type) -> tuple[str, str]:
            """The text left and right of the node under one frame, whose
            type is below; weak reduction leaves no BODY frame."""
            s = text(sib)
            if kind is FUN:
                s = f" ({s})" if type(sib) in (App, Lam) else " " + s
                return ("(", ")" + s) if below is Lam else ("", s)
            s = f"({s}) " if type(sib) is Lam else s + " "
            return (s + "(", ")") if below in (App, Lam) else (s, "")

        left: list[str] = []  # one piece per frame above the fired node,
        right: list[str] = []  # each over an App
        last: tuple = ()
        for name, frames, focus in self.moves:
            k, n = 0, min(len(left), len(frames) - 1)
            while (k < n and frames[k][1] is last[k][1]
                   and frames[k][0] is last[k][0]):
                k += 1
            del left[k:], right[k:]
            for kind, sib in frames[k:-1]:
                lt, rt = piece(kind, sib, App)
                left.append(lt)
                right.append(rt)
            lt, rt = piece(*frames[-1], type(focus)) if frames else ("", "")
            yield name, pos_to_str(_path(frames)), "".join(
                [*left, lt, text(focus), rt, *reversed(right)])
            last = frames

    def to_json(self) -> dict:
        return {
            "initial": format_term(self.initial),
            "steps": [{"rule": rule, "pos": pos, "dir": "->", "result": text}
                      for rule, pos, text in self.step_texts()],
            "status": self.status,
            "final": format_term(self.final),
        }


# ---------------------------------------------------------------------------
# the zipper machines
#
# lo, ri and lam.py's beta machine share one zipper (Huet, "The Zipper",
# 1997): a focus, and frames (kind, sibling) from the root down to it.  FUN:
# the focus is an App's function, the sibling its argument; ARG: the focus is
# the argument, the sibling the function; BODY: the focus is a Lam's body, the
# sibling its binder.  A kind is its position step, so _path(frames) is the
# focus's position; _zip(frames, focus) rebuilds the whole term.  lo and ri
# end in one fire block (budget stop, count, record, size stop) and then scan
# down again: ri from the contractum, lo from rules.window frames up.  The
# optional recorder gets one _Move per fire, (rule name, tuple(frames),
# contractum): a copy of the frame list, not the whole term, which only
# Trace.steps builds.

FUN, ARG, BODY = "fun", "arg", "body"
_Recorder = Callable[[_Move], None]


def _zip(frames: Sequence[tuple[str, object]], focus: Term) -> Term:
    """The whole term: focus plugged into frames, innermost frame first."""
    for kind, sib in reversed(frames):
        if kind is FUN:
            focus = App(focus, sib)
        elif kind is ARG:
            focus = App(sib, focus)
        else:
            focus = Lam(sib, focus)
    return focus


def _path(frames: Sequence[tuple[str, object]]) -> Position:
    return tuple([kind for kind, _ in frames])


def _machine_lo(t: Term, rules: RuleSet, max_steps: int, max_size: int,
                record: Optional[_Recorder] = None) -> tuple[Term, int, str]:
    """Leftmost-outermost without rescans.

    A fire can only enable new redexes inside the contractum or at ancestors
    whose pattern window reaches the changed node, so after each fire the
    machine zips up rules.window frames and scans down again from there.
    Redex-free subtrees, such as the finished function an ARG frame holds,
    are kept by identity in seen and never rescanned; that is sound because
    having a redex is a property of the subtree alone.
    """
    seen: dict[int, Term] = {}
    frames: list[tuple[str, Term]] = []
    focus = t
    down = True
    nsteps = 0
    total = t._size
    window = rules.window
    fire_at = rules.fire_at

    while True:
        if down:
            if id(focus) in seen:
                down = False
                continue
            m = fire_at(focus)
            if m is None:
                if type(focus) is App:
                    frames.append((FUN, focus.arg))
                    focus = focus.fun
                else:
                    seen[id(focus)] = focus
                    down = False
                continue
        else:
            if not frames:
                return focus, nsteps, NORMAL_FORM
            kind, sib = frames.pop()
            if kind is FUN:
                frames.append((ARG, focus))
                focus = sib
                down = True
            else:
                focus = App(sib, focus)
                seen[id(focus)] = focus
            continue
        if nsteps >= max_steps:
            return _zip(frames, focus), nsteps, BUDGET_EXHAUSTED
        nsteps += 1
        total += m[1]._size - focus._size
        rule, focus = m
        if record is not None:
            record((rule.name, tuple(frames), focus))
        if total > max_size:
            return _zip(frames, focus), nsteps, BUDGET_EXHAUSTED
        for _ in range(min(window, len(frames))):
            kind, sib = frames.pop()
            focus = App(focus, sib) if kind is FUN else App(sib, focus)


def _machine_ri(t: Term, rules: RuleSet, max_steps: int, max_size: int,
                record: Optional[_Recorder] = None) -> tuple[Term, int, str]:
    """Rightmost-innermost: evaluate the argument (under an ARG frame), then
    the function (under a FUN frame holding the argument's value), then fire
    at the node.  Finished subtrees are remembered by identity, so the
    already-normal pieces a contractum reuses are not rescanned."""
    seen: dict[int, Term] = {}
    frames: list[tuple[str, Term]] = []
    focus = t
    down = True
    nsteps = 0
    total = t._size
    fire_at = rules.fire_at

    while True:
        if down:
            if id(focus) in seen or type(focus) is Lam:
                down = False
                continue
            if type(focus) is App:
                frames.append((ARG, focus.fun))
                focus = focus.arg
                continue
        else:
            if not frames:
                return focus, nsteps, NORMAL_FORM
            kind, sib = frames.pop()
            if kind is ARG:
                frames.append((FUN, focus))
                focus = sib
                down = True
                continue
            focus = App(focus, sib)
        # an unseen leaf going down, or an App whose children are finished
        m = fire_at(focus)
        if m is None:
            seen[id(focus)] = focus
            down = False
            continue
        if nsteps >= max_steps:
            return _zip(frames, focus), nsteps, BUDGET_EXHAUSTED
        nsteps += 1
        total += m[1]._size - focus._size
        rule, focus = m
        if record is not None:
            record((rule.name, tuple(frames), focus))
        if total > max_size:
            return _zip(frames, focus), nsteps, BUDGET_EXHAUSTED
        down = True


def _machine(strategy: str):
    if strategy == "lo":
        return _machine_lo
    if strategy == "ri":
        return _machine_ri
    raise ValueError(f"unknown strategy {strategy!r}")


def normalize(t: Term, rules: RuleSet, max_steps: int = DEFAULT_MAX_STEPS,
              strategy: str = "lo", max_size: int = DEFAULT_MAX_SIZE) -> Trace:
    """Normalize with the strategy's machine, recording every fire as a
    move of the Trace; its steps are built from the moves when first read.
    Stops with BUDGET_EXHAUSTED when max_steps reductions have fired and a
    redex is still present, or when the term outgrows max_size nodes; the
    step that outgrew it is recorded."""
    moves: list[_Move] = []
    final, _, status = _machine(strategy)(t, rules, max_steps, max_size,
                                          moves.append)
    return Trace(initial=t, moves=tuple(moves), status=status, final=final)


def normalize_fast(t: Term, rules: RuleSet, max_steps: int = DEFAULT_MAX_STEPS,
                   strategy: str = "lo",
                   max_size: int = DEFAULT_MAX_SIZE) -> tuple[Term, int, str]:
    """normalize() without the trace: (final term, steps fired, status)."""
    return _machine(strategy)(t, rules, max_steps, max_size)
