"""Applicative terms with optional lambda binders.

Four node kinds: Atom (a named combinator or other opaque constant), Var,
App, Lam.  Atoms and variables live in separate namespaces; an Atom never
binds and is never substituted for.  Terms are immutable and compare
structurally; use alpha_eq for comparison up to bound-variable renaming.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

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


@dataclass(frozen=True, repr=False)
class Atom:
    name: str


@dataclass(frozen=True, repr=False)
class Var:
    name: str


@dataclass(frozen=True, repr=False)
class App:
    fun: "Term"
    arg: "Term"


@dataclass(frozen=True, repr=False)
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
# the fold

# Work-stack markers: the results for an App's (a Lam's) children are on top
# of the result stack.
_APP_DONE, _LAM_DONE = object(), object()


def fold(t: Term, leaf: Callable, app: Callable, lam: Callable,
         cache: Optional[str] = None):
    """Fold t bottom-up on an explicit stack, so any depth works.

    leaf(n) is called at each Atom or Var, left to right; app(n, f, a) and
    lam(n, b) get the node and the results for its children.  Any other
    node raises TypeError.  Given cache, each node's result is stored in
    that attribute, and a subtree whose root already holds one is not
    walked again; results must then never be None.
    """
    if cache is not None:
        r = getattr(t, cache, None)
        if r is not None:
            return r
    out: list = []
    work: list = [t]
    while work:
        n = work.pop()
        if n is _APP_DONE:
            n = work.pop()
            a = out.pop()
            r = app(n, out.pop(), a)
        elif n is _LAM_DONE:
            n = work.pop()
            r = lam(n, out.pop())
        else:
            if cache is not None:
                r = getattr(n, cache, None)
                if r is not None:
                    out.append(r)
                    continue
            ty = type(n)
            if ty is App:
                work += (n, _APP_DONE, n.arg, n.fun)
                continue
            if ty is Lam:
                work += (n, _LAM_DONE, n.body)
                continue
            if ty is not Atom and ty is not Var:
                raise TypeError(f"not a term: {n!r}")
            r = leaf(n)
        if cache is not None:
            object.__setattr__(n, cache, r)
        out.append(r)
    return out[0]


# ---------------------------------------------------------------------------
# rendering

_APP_SEP = object()  # a work-stack marker: between an App's children

# _render's spelling of a leaf, an App (open, sep, close) and a Lam.
_REPR = ({Atom: "Atom(name={})", Var: "Var(name={})"}, "App(fun=", ", arg=",
         ")", "Lam(binder={}, body=", ")")


def _render(t: Term, forms: tuple, name=str) -> str:
    """t spelled in forms, name spelling each name, on an explicit stack so
    any depth works; a node that is not a term is spelled by repr()."""
    leaf, app_open, sep, app_close, lam_open, lam_close = forms
    marks = {_APP_SEP: sep, _APP_DONE: app_close, _LAM_DONE: lam_close}
    out: list[str] = []
    stack: list = [t]
    while stack:
        node = stack.pop()
        ty = type(node)
        if ty is App:
            out.append(app_open)
            stack += (_APP_DONE, node.arg, _APP_SEP, node.fun)
        elif ty is Lam:
            out.append(lam_open.format(name(node.binder)))
            stack += (_LAM_DONE, node.body)
        elif ty is Atom or ty is Var:
            out.append(leaf[ty].format(name(node.name)))
        elif ty is object:
            out.append(marks[node])
        else:
            out.append(repr(node))
    return "".join(out)


def _repr(t: Term) -> str:
    """The generated dataclass repr, without its recursion."""
    return _render(t, _REPR, repr)


Atom.__repr__ = Var.__repr__ = App.__repr__ = Lam.__repr__ = _repr


# ---------------------------------------------------------------------------
# basic queries

def term_size(t: Term) -> int:
    """Number of nodes.  Cached on the node, since the rewrite machines ask
    for sizes of shared subterms constantly."""
    # not a fold: this is the machines' hot path, and a fold's callbacks
    # cost about a third more per fresh node
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
        if type(n) is App:  # children come first in this order
            s = 1 + n.fun._size + n.arg._size
        elif type(n) is Lam:
            s = 1 + n.body._size
        else:
            s = 1
        object.__setattr__(n, "_size", s)
    return getattr(t, "_size")


def free_vars(t: Term) -> frozenset[str]:
    """Free variable names of t.  Atoms contribute nothing.  Cached on the
    node, like term_size."""
    return fold(t, _leaf_vars, _union_vars, _bind_var, "_fv")


def _leaf_vars(n: Term) -> frozenset[str]:
    return frozenset((n.name,)) if type(n) is Var else frozenset()


def _union_vars(n: App, f: frozenset[str], a: frozenset[str]) -> frozenset[str]:
    return f | a


def _bind_var(n: Lam, b: frozenset[str]) -> frozenset[str]:
    return b - {n.binder}


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
    work: list = [env, t]  # a node sits above its env; a Lam's marker above its binder
    out: list[Term] = []
    while work:
        node = work.pop()
        if node is _APP_DONE:
            a = out.pop()
            out.append(App(out.pop(), a))
        elif node is _LAM_DONE:
            out.append(Lam(work.pop(), out.pop()))
        else:
            env = work.pop()
            match node:
                case Var(n):
                    out.append(env.get(n, node))
                case Atom(_):
                    out.append(node)
                case App(f, a):
                    if not (free_vars(node) & env.keys()):
                        out.append(node)
                        continue
                    work += (_APP_DONE, env, a, env, f)
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
                    work += (nb, _LAM_DONE, env2, body)
    assert len(out) == 1
    return out[0]


# ---------------------------------------------------------------------------
# positions

def _walk(t: Term, pos: Position) -> list[Term]:
    """The nodes on the path pos, from t down to the subterm at pos."""
    path = [t]
    for i, step in enumerate(pos):
        match path[-1], step:
            case App(f, _), "fun":
                path.append(f)
            case App(_, a), "arg":
                path.append(a)
            case Lam(_, body), "body":
                path.append(body)
            case _:
                raise InvalidPositionError(f"no {step!r} child at {pos[:i]} in term")
    return path


def subterm_at(t: Term, pos: Position) -> Term:
    return _walk(t, pos)[-1]


def replace_at(t: Term, pos: Position, s: Term) -> Term:
    new = s
    for node, step in reversed(list(zip(_walk(t, pos), pos))):
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
