"""Beta reduction, used as an independent oracle for the disassembler.

Reduction is normal order (leftmost-outermost, going under binders), with
atoms treated as inert constants: no delta rules fire here.

beta_normalize_fast() runs a spine machine, on rewrite.py's frame zipper,
that never rescans from the root.  The rescanning reducer that defines normal
order lives in the test suite, which checks that the machine fires the same
number of steps with the same outcome.
"""

from __future__ import annotations

from .rewrite import (
    ARG,
    BODY,
    BUDGET_EXHAUSTED,
    DEFAULT_MAX_SIZE,
    DEFAULT_MAX_STEPS,
    FUN,
    NORMAL_FORM,
    _zip,
)
from .terms import App, Lam, Term, substitute, term_size


def beta_normalize_fast(t: Term, max_steps: int = DEFAULT_MAX_STEPS,
                        max_size: int = DEFAULT_MAX_SIZE) -> tuple[Term, int, str]:
    """Normal order normalization, (final term, steps fired, status), on a
    spine machine.

    Descend the function spine; a lambda meeting a pending FUN frame is the
    leftmost-outermost redex, so fire there and keep going.  A stuck head
    hands control back up, normalizing arguments left to right.  Subtrees
    already in normal form are remembered by identity, which matters because
    substitution duplicates arguments as shared subterms.
    """
    seen: dict[int, Term] = {}
    frames: list[tuple[str, object]] = []
    focus = t
    down = True
    nsteps = 0
    total = term_size(t)

    while True:
        if down:
            if id(focus) in seen:
                down = False
                continue
            ty = type(focus)
            if ty is App:
                frames.append((FUN, focus.arg))
                focus = focus.fun
            elif ty is Lam:
                if frames and frames[-1][0] is FUN:
                    if nsteps >= max_steps:
                        return _zip(frames, focus), nsteps, BUDGET_EXHAUSTED
                    _, a = frames.pop()
                    redex_size = 1 + term_size(focus) + term_size(a)
                    focus = substitute(focus.body, focus.binder, a)
                    nsteps += 1
                    total += term_size(focus) - redex_size
                    if total > max_size:
                        return _zip(frames, focus), nsteps, BUDGET_EXHAUSTED
                else:
                    frames.append((BODY, focus.binder))
                    focus = focus.body
            else:
                seen[id(focus)] = focus
                down = False
        else:
            if not frames:
                return focus, nsteps, NORMAL_FORM
            kind, x = frames.pop()
            if kind is FUN:
                frames.append((ARG, focus))
                focus = x
                down = True
            elif kind is ARG:
                node = App(x, focus)
                seen[id(node)] = node
                focus = node
            else:
                node = Lam(x, focus)
                seen[id(node)] = node
                focus = node
