"""Rescanning reducers, the specs clsh's machines are tested against.

Each step scans the whole term from the root in strategy order and fires
the first redex it meets, so the reduction sequence can be read straight
off the scan order.  clsh.rewrite.normalize and clsh.lam.beta_normalize_fast
must fire exactly the steps these fire, with the same budget semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from clsh.rewrite import (
    BUDGET_EXHAUSTED,
    DEFAULT_MAX_SIZE,
    DEFAULT_MAX_STEPS,
    NORMAL_FORM,
    RuleSet,
    Trace,
    TraceStep,
    instantiate,
)
from clsh.syntax import format_term
from clsh.terms import (
    App,
    Lam,
    Position,
    Term,
    positions,
    replace_at,
    substitute,
    term_size,
)


@dataclass(frozen=True, eq=False)
class SpecTrace:
    """The specs' record, built eagerly: the surface of clsh's Trace
    (initial, steps, status, final, nsteps, to_json) spelled out directly,
    so that the Trace a machine records is checked against it."""
    initial: Term
    steps: tuple[TraceStep, ...]
    status: str
    final: Term

    def __eq__(self, other):
        """Equal to a SpecTrace or a machine's Trace with the same initial
        term, steps, status and final term."""
        if not isinstance(other, (SpecTrace, Trace)):
            return NotImplemented
        return (self.initial, self.steps, self.status, self.final) == (
            other.initial, other.steps, other.status, other.final)

    @property
    def nsteps(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        return {
            "initial": format_term(self.initial),
            "steps": [s.to_json() for s in self.steps],
            "status": self.status,
            "final": format_term(self.final),
        }


def _ri_positions(t: Term) -> Iterator[tuple[Position, Term]]:
    """Postorder, argument subtree before function subtree; lambda bodies
    are skipped."""
    stack: list[tuple[Position, Term, bool]] = [((), t, False)]
    while stack:
        pos, node, expanded = stack.pop()
        if expanded or type(node) is not App:
            yield pos, node
        else:
            stack.append((pos, node, True))
            stack.append((pos + ("fun",), node.fun, False))
            stack.append((pos + ("arg",), node.arg, False))


def reduce_step(t: Term, rules: RuleSet,
                strategy: str = "lo") -> Optional[tuple[str, Position, Term]]:
    """One step: (rule name, position, whole rewritten term), or None if t
    is in normal form."""
    if strategy == "lo":
        scan = positions(t, into_lam=False)
    elif strategy == "ri":
        scan = _ri_positions(t)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    for pos, sub in scan:
        m = rules.match_at(sub)
        if m is not None:
            rule, sigma = m
            return rule.name, pos, replace_at(t, pos, instantiate(rule.rhs, sigma))
    return None


def normalize(t: Term, rules: RuleSet, max_steps: int = DEFAULT_MAX_STEPS,
              strategy: str = "lo",
              max_size: int = DEFAULT_MAX_SIZE) -> SpecTrace:
    """Normalize by iterated reduce_step, recording every step.  Stops with
    BUDGET_EXHAUSTED when max_steps reductions have fired and a redex is
    still present, or when the term outgrows max_size nodes."""
    steps: list[TraceStep] = []
    cur = t
    while True:
        m = reduce_step(cur, rules, strategy)
        if m is None:
            status = NORMAL_FORM
            break
        if len(steps) >= max_steps:
            status = BUDGET_EXHAUSTED
            break
        name, pos, cur = m
        steps.append(TraceStep(name, pos, "->", cur))
        if term_size(cur) > max_size:
            status = BUDGET_EXHAUSTED
            break
    return SpecTrace(initial=t, steps=tuple(steps), status=status, final=cur)


def beta_step(t: Term) -> Optional[tuple[Position, Term]]:
    """Contract the leftmost-outermost beta redex, or None in normal form."""
    for pos, sub in positions(t, into_lam=True):
        if type(sub) is App and type(sub.fun) is Lam:
            new = substitute(sub.fun.body, sub.fun.binder, sub.arg)
            return pos, replace_at(t, pos, new)
    return None


def beta_normalize(t: Term, max_steps: int = DEFAULT_MAX_STEPS,
                   max_size: int = DEFAULT_MAX_SIZE) -> SpecTrace:
    """Normal order normalization with a full trace."""
    steps: list[TraceStep] = []
    cur = t
    while True:
        m = beta_step(cur)
        if m is None:
            status = NORMAL_FORM
            break
        if len(steps) >= max_steps:
            status = BUDGET_EXHAUSTED
            break
        pos, cur = m
        steps.append(TraceStep("beta", pos, "->", cur))
        if term_size(cur) > max_size:
            status = BUDGET_EXHAUSTED
            break
    return SpecTrace(initial=t, steps=tuple(steps), status=status, final=cur)
