"""Applicative terms with optional lambda binders.

Four node kinds: Atom (a named combinator or other opaque constant), Var,
App, Lam.  Atoms and variables live in separate namespaces; an Atom never
binds and is never substituted for.  Terms are immutable and compare
structurally; use alpha_eq for comparison up to bound-variable renaming.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

# The built-in atom inventory.  I/K/S are the basis; the rest are the derived
# combinators the rewrite engine knows about, plus the opaque valuation head V
# and the quotation constant.  Uppercase single letters outside this set also
# parse as atoms (user indeterminants); see syntax.py.
ATOM_CATALOG = frozenset({
    "I", "K", "S",
    "B", "C", "D", "Phi", "Psi", "B2", "C2", "Curry",
    "p", "q", "eps", "Fork", "Comp",
    "V", "quote",
})


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    fun: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Lam:
    binder: str
    body: "Term"


Term = Union[Atom, Var, App, Lam]

# A position is a path from the root: "fun"/"arg" through App, "body" through
# Lam.  () is the root.
Position = tuple[str, ...]


class InvalidPositionError(ValueError):
    """Raised when a position does not exist in the given term."""


# ---------------------------------------------------------------------------
# basic queries

def term_size(t: Term) -> int:
    """Number of nodes.  Cached on the node, since the rewrite machines ask
    for sizes of shared subterms constantly."""
    cached = getattr(t, "_size", None)
    if cached is not None:
        return cached
    # iterative to survive very deep terms
    stack = [t]
    order = []
    while stack:
        n = stack.pop()
        if getattr(n, "_size", None) is not None:
            continue
        order.append(n)
        if type(n) is App:
            stack.append(n.fun)
            stack.append(n.arg)
        elif type(n) is Lam:
            stack.append(n.body)
    for n in reversed(order):
        if type(n) is App:
            s = 1 + term_size(n.fun) + term_size(n.arg)
        elif type(n) is Lam:
            s = 1 + term_size(n.body)
        else:
            s = 1
        object.__setattr__(n, "_size", s)
    return getattr(t, "_size")


def free_vars(t: Term) -> frozenset[str]:
    """Free variable names of t.  Atoms contribute nothing.  Cached on the
    node, like term_size, and iterative for the same reason."""
    cached = getattr(t, "_fv", None)
    if cached is not None:
        return cached
    stack = [t]
    while stack:  # post-order: a node is done once its children are
        n = stack[-1]
        ty = type(n)
        if ty is App:
            f, a = n.fun, n.arg
            ff, fa = getattr(f, "_fv", None), getattr(a, "_fv", None)
            if ff is None or fa is None:
                if ff is None:
                    stack.append(f)
                if fa is None:
                    stack.append(a)
                continue
            fv = ff | fa
        elif ty is Lam:
            fb = getattr(n.body, "_fv", None)
            if fb is None:
                stack.append(n.body)
                continue
            fv = fb - {n.binder}
        elif ty is Var:
            fv = frozenset((n.name,))
        elif ty is Atom:
            fv = frozenset()
        else:
            raise TypeError(f"not a term: {n!r}")
        object.__setattr__(n, "_fv", fv)
        stack.pop()
    return t._fv


def fresh_var(avoid: set[str] | frozenset[str], hint: str = "v") -> str:
    """Deterministic fresh name: hint, hint1, hint2, ... first not in avoid."""
    if hint not in avoid:
        return hint
    i = 1
    while f"{hint}{i}" in avoid:
        i += 1
    return f"{hint}{i}"


def alpha_eq(a: Term, b: Term) -> bool:
    """Equality up to renaming of bound variables."""
    # pairs of (term, term, binder-env-a, binder-env-b); envs map names to
    # the nesting depth of the Lam that bound them
    stack: list[tuple[Term, Term, dict, dict, int]] = [(a, b, {}, {}, 0)]
    while stack:
        a, b, ea, eb, d = stack.pop()
        if type(a) is not type(b):
            return False
        match a:
            case Atom(n):
                if n != b.name:
                    return False
            case Var(n):
                la, lb = ea.get(n), eb.get(b.name)
                if la != lb:
                    return False
                if la is None and n != b.name:
                    return False
            case App(f, x):
                stack.append((f, b.fun, ea, eb, d))
                stack.append((x, b.arg, ea, eb, d))
            case Lam(v, body):
                stack.append((body, b.body, ea | {v: d}, eb | {b.binder: d}, d + 1))
    return True


# ---------------------------------------------------------------------------
# substitution

def substitute(t: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution [replacement/name]t.

    Binders that would capture a free variable of the replacement are renamed
    with fresh_var; untouched subterms are shared.
    """
    return _subst_env(t, {name: replacement})


def _subst_env(t: Term, env: dict[str, Term]) -> Term:
    """Simultaneous substitution; iterative so deep terms don't blow the
    recursion limit (the beta machine substitutes into large bodies)."""
    if not env:
        return t
    APPMARK, LAMMARK = 0, 1
    work: list = [(t, env)]
    out: list[Term] = []
    while work:
        item = work.pop()
        if type(item) is tuple and len(item) == 2 and not isinstance(item[0], int):
            node, env = item
            match node:
                case Var(n):
                    out.append(env.get(n, node))
                case Atom(_):
                    out.append(node)
                case App(f, a):
                    if not (free_vars(node) & env.keys()):
                        out.append(node)
                        continue
                    work.append((APPMARK, None))
                    work.append((a, env))
                    work.append((f, env))
                case Lam(b, body):
                    env2 = {k: v for k, v in env.items() if k != b and k in free_vars(body)}
                    if not env2:
                        out.append(node)
                        continue
                    clash = set()
                    for v in env2.values():
                        clash |= free_vars(v)
                    nb = b
                    if b in clash:
                        nb = fresh_var(clash | free_vars(body) | set(env2), b)
                        env2[b] = Var(nb)
                    work.append((LAMMARK, nb))
                    work.append((body, env2))
        else:
            mark, extra = item
            if mark == APPMARK:
                a = out.pop()
                f = out.pop()
                out.append(App(f, a))
            else:
                body = out.pop()
                out.append(Lam(extra, body))
    assert len(out) == 1
    return out[0]


# ---------------------------------------------------------------------------
# positions

def subterm_at(t: Term, pos: Position) -> Term:
    cur = t
    for i, step in enumerate(pos):
        match cur, step:
            case App(f, _), "fun":
                cur = f
            case App(_, a), "arg":
                cur = a
            case Lam(_, body), "body":
                cur = body
            case _:
                raise InvalidPositionError(f"no {step!r} child at {pos[:i]} in term")
    return cur


def replace_at(t: Term, pos: Position, s: Term) -> Term:
    path: list[tuple[Term, str]] = []
    cur = t
    for i, step in enumerate(pos):
        path.append((cur, step))
        match cur, step:
            case App(f, _), "fun":
                cur = f
            case App(_, a), "arg":
                cur = a
            case Lam(_, body), "body":
                cur = body
            case _:
                raise InvalidPositionError(f"no {step!r} child at {pos[:i]} in term")
    new = s
    for node, step in reversed(path):
        match step:
            case "fun":
                new = App(new, node.arg)
            case "arg":
                new = App(node.fun, new)
            case "body":
                new = Lam(node.binder, new)
    return new


def pos_to_str(pos: Position) -> str:
    return ".".join(pos) if pos else "root"


def pos_from_str(s: str) -> Position:
    s = s.strip()
    if s in ("", "root"):
        return ()
    parts = tuple(s.split("."))
    for part in parts:
        if part not in ("fun", "arg", "body"):
            raise InvalidPositionError(f"bad position step {part!r}")
    return parts


def positions(t: Term, into_lam: bool = True) -> Iterator[tuple[Position, Term]]:
    """All positions, preorder (node, then fun subtree, then arg subtree)."""
    stack: list[tuple[Position, Term]] = [((), t)]
    while stack:
        pos, cur = stack.pop()
        yield pos, cur
        match cur:
            case App(f, a):
                stack.append((pos + ("arg",), a))
                stack.append((pos + ("fun",), f))
            case Lam(_, body) if into_lam:
                stack.append((pos + ("body",), body))


# ---------------------------------------------------------------------------
# spine helpers

def spine(t: Term) -> tuple[Term, list[Term]]:
    """Split t into its application head and argument list:
    spine(f a b) == (f, [a, b])."""
    args: list[Term] = []
    while type(t) is App:
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def app(head: Term, *args: Term) -> Term:
    """Left-nested application: app(f, a, b) == App(App(f, a), b)."""
    t = head
    for a in args:
        t = App(t, a)
    return t
