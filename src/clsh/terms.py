"""Applicative terms with optional lambda binders.

Four node kinds: Atom (a named combinator or other opaque constant), Var,
App, Lam.  Atoms and variables live in separate namespaces; an Atom never
binds and is never substituted for.  Terms are immutable and compare
structurally; use alpha_eq for comparison up to bound-variable renaming.

The nodes are slotted classes under one base, _Node, which also reserves
the two cache slots that term_size and free_vars fill (_size and _fv).
Assigning or deleting an attribute raises AttributeError.  ==, hash and
pickle walk the terms on an explicit stack, and a copy is the node itself,
so all of them work at any depth.  The machines build a node for every
contraction and every rebuilt ancestor, so __init__ stores the fields
through the slot descriptors, bound once at import: that costs about 60%
of the object.__setattr__ per field of a frozen dataclass.  __init__
validates nothing.
"""

from __future__ import annotations

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


class _Node:
    """The base of the four node kinds: immutable, compared and hashed
    structurally on an explicit stack."""

    __slots__ = ("_size", "_fv")  # the caches of term_size and free_vars

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        stack = [self, other]
        while stack:
            b = stack.pop()
            a = stack.pop()
            if a is b:
                continue
            ty = type(a)
            if ty is not type(b):
                return False
            if ty is App:
                stack += (a.fun, b.fun, a.arg, b.arg)
            elif ty is Lam:
                if a.binder != b.binder:
                    return False
                stack += (a.body, b.body)
            elif ty is Atom or ty is Var:
                if a.name != b.name:
                    return False
            elif not a == b:  # a malformed node's child that is not a term
                return False
        return True

    def _spelling(self) -> tuple:
        """The flat preorder spelling, which equal terms share: 0 or 1 and
        the name for an Atom or Var, 2 for an App, 3 and the binder for a
        Lam, and 4 and the child itself for a malformed node's child that
        is not a term.  Kinds are tagged, not named by class, whose hash
        changes between processes."""
        out: list = []
        stack = [self]
        while stack:
            n = stack.pop()
            ty = type(n)
            if ty is App:
                out.append(2)
                stack += (n.arg, n.fun)
            elif ty is Lam:
                out += (3, n.binder)
                stack.append(n.body)
            elif ty is Atom:
                out += (0, n.name)
            elif ty is Var:
                out += (1, n.name)
            else:
                out += (4, n)
        return tuple(out)

    def __hash__(self):
        return hash(self._spelling())

    # Nodes are immutable, so a copy is the node itself; pickle stores the
    # flat spelling, so neither recurses per level of the term.
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return _rebuild, (self._spelling(),)


class Atom(_Node):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        _set_atom_name(self, name)


class Var(_Node):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        _set_var_name(self, name)


class App(_Node):
    __slots__ = __match_args__ = ("fun", "arg")

    def __init__(self, fun: Term, arg: Term):
        _set_fun(self, fun)
        _set_arg(self, arg)


class Lam(_Node):
    __slots__ = __match_args__ = ("binder", "body")

    def __init__(self, binder: str, body: Term):
        _set_binder(self, binder)
        _set_body(self, body)


_set_atom_name, _set_var_name = Atom.name.__set__, Var.name.__set__
_set_fun, _set_arg = App.fun.__set__, App.arg.__set__
_set_binder, _set_body = Lam.binder.__set__, Lam.body.__set__


Term = Union[Atom, Var, App, Lam]


def _rebuild(spelling: tuple) -> Term:
    """The term whose _spelling is spelling, built bottom-up by reading the
    spelling's items from the last one back."""
    starts = []
    i = 0
    while i < len(spelling):
        starts.append(i)
        i += 1 if spelling[i] == 2 else 2
    out: list = []
    for i in reversed(starts):
        tag = spelling[i]
        if tag == 2:
            f = out.pop()
            out.append(App(f, out.pop()))
        elif tag == 3:
            out.append(Lam(spelling[i + 1], out.pop()))
        elif tag == 0:
            out.append(Atom(spelling[i + 1]))
        elif tag == 1:
            out.append(Var(spelling[i + 1]))
        else:
            out.append(spelling[i + 1])
    return out[0]


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
    node raises TypeError.  Given cache, the name of one of the slots
    _Node reserves, each node's result is stored there, and a subtree
    whose root already holds one is not walked again; results must then
    never be None.
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
    """The repr a dataclass would generate, without its recursion."""
    return _render(t, _REPR, repr)


_Node.__repr__ = _repr


# ---------------------------------------------------------------------------
# basic queries

def term_size(t: Term) -> int:
    """Number of nodes.  Cached on the node, since the rewrite machines ask
    for sizes of shared subterms constantly."""
    # not a fold: this is the machines' hot path, and a fold's callbacks
    # cost about a third more per fresh node.  Leaves are never probed:
    # reading an unset slot raises inside getattr, which costs about four
    # times a hit, so a leaf's size is stored (or returned) unasked.
    ty = type(t)
    if ty is not App and ty is not Lam:
        return 1
    cached = getattr(t, "_size", None)
    if cached is not None:
        return cached
    # iterative to survive very deep terms
    order = [t]
    stack = [t.fun, t.arg] if ty is App else [t.body]
    while stack:
        n = stack.pop()
        ty = type(n)
        if ty is App:
            if getattr(n, "_size", None) is None:
                order.append(n)
                stack += (n.fun, n.arg)
        elif ty is Lam:
            if getattr(n, "_size", None) is None:
                order.append(n)
                stack.append(n.body)
        else:
            object.__setattr__(n, "_size", 1)
    for n in reversed(order):
        if type(n) is App:  # children come first in this order
            s = 1 + n.fun._size + n.arg._size
        else:
            s = 1 + n.body._size
        object.__setattr__(n, "_size", s)
    return t._size


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
