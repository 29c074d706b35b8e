"""Beta reduction, used as an independent oracle for the disassembler.

Reduction is normal order (leftmost-outermost, going under binders), with
atoms treated as inert constants: no delta rules fire here.  Optionally a
final eta pass contracts \\x.M x to M; eta contraction of a beta normal form
cannot create new beta redexes, since the lambda being removed was not in
function position and M cannot be a lambda.

beta_normalize_fast() runs a spine machine that never rescans from the
root.  The rescanning reducer that defines normal order lives in the test
suite, which checks that the machine fires the same number of steps with
the same outcome.
"""

from __future__ import annotations

from typing import Optional

from .rewrite import (
    BUDGET_EXHAUSTED,
    DEFAULT_MAX_SIZE,
    DEFAULT_MAX_STEPS,
    NORMAL_FORM,
)
from .terms import (
    App,
    Lam,
    Position,
    Term,
    Var,
    free_vars,
    positions,
    replace_at,
    substitute,
    term_size,
)


def eta_step(t: Term) -> Optional[tuple[Position, Term]]:
    """Contract the leftmost-outermost eta redex, or None if there is none."""
    for pos, sub in positions(t, into_lam=True):
        match sub:
            case Lam(x, App(f, Var(y))) if y == x and x not in free_vars(f):
                return pos, replace_at(t, pos, f)
    return None


def _beta_machine(t: Term, max_steps: int,
                  max_size: int) -> tuple[Term, int, str]:
    """Spine machine for normal order.

    Descend the function spine; a lambda meeting a pending argument frame is
    the leftmost-outermost redex, so fire there and keep going.  A stuck head
    hands control back up, normalizing arguments left to right.  Subtrees
    already in normal form are remembered by identity, which matters because
    substitution duplicates arguments as shared subterms.
    """
    seen: dict[int, Term] = {}
    frames: list[tuple[str, object]] = []  # ("arg", a) | ("funNF", f) | ("body", x)
    focus = t
    down = True
    nsteps = 0
    total = term_size(t)

    def zip_all(f: Term) -> Term:
        for kind, x in reversed(frames):
            if kind == "arg":
                f = App(f, x)
            elif kind == "funNF":
                f = App(x, f)
            else:
                f = Lam(x, f)
        return f

    while True:
        if down:
            if id(focus) in seen:
                down = False
                continue
            ty = type(focus)
            if ty is App:
                frames.append(("arg", focus.arg))
                focus = focus.fun
            elif ty is Lam:
                if frames and frames[-1][0] == "arg":
                    if nsteps >= max_steps:
                        return zip_all(focus), nsteps, BUDGET_EXHAUSTED
                    _, a = frames.pop()
                    redex_size = 1 + term_size(focus) + term_size(a)
                    focus = substitute(focus.body, focus.binder, a)
                    nsteps += 1
                    total += term_size(focus) - redex_size
                    if total > max_size:
                        return zip_all(focus), nsteps, BUDGET_EXHAUSTED
                else:
                    frames.append(("body", focus.binder))
                    focus = focus.body
            else:
                seen[id(focus)] = focus
                down = False
        else:
            if not frames:
                return focus, nsteps, NORMAL_FORM
            kind, x = frames.pop()
            if kind == "arg":
                frames.append(("funNF", focus))
                focus = x
                down = True
            elif kind == "funNF":
                node = App(x, focus)
                seen[id(node)] = node
                focus = node
            else:
                node = Lam(x, focus)
                seen[id(node)] = node
                focus = node


def beta_normalize_fast(t: Term, max_steps: int = DEFAULT_MAX_STEPS,
                        use_eta: bool = False,
                        max_size: int = DEFAULT_MAX_SIZE) -> tuple[Term, int, str]:
    """Normal order normalization, (final term, steps fired, status); eta
    steps, when asked for, run after the beta phase and share the step
    budget."""
    cur, nsteps, status = _beta_machine(t, max_steps, max_size)
    if use_eta and status == NORMAL_FORM:
        while True:
            m = eta_step(cur)
            if m is None:
                break
            if nsteps >= max_steps:
                status = BUDGET_EXHAUSTED
                break
            _, cur = m
            nsteps += 1
    return cur, nsteps, status
