"""Compiling lambda abstractions into the I/K/S basis.

The translation is the classic three-case one, applied to the innermost
binder first:

    \\x.x        => I
    \\x.c        => K c          for a leaf c other than x
    \\x.M N      => S (\\x.M) (\\x.N)

No smarter clauses are used: an application is always split with S, even
when x occurs in only one side.  The one optional refinement is an eta
contraction (\\x.M x => M when x is not free in M), applied after the body
has been compiled and before the S split.

The same translation backs the derived combinator catalog: every derived
atom carries a lambda definition here, and define_as_ski() compiles it to a
pure I/K/S term, so the delta rules in rewrite.py can be cross-checked
against the basis instead of being trusted.
"""

from __future__ import annotations

from functools import cache

from .rewrite import DEFAULT_MAX_SIZE
from .syntax import parse
from .terms import App, Atom, Lam, Term, Var, fold, free_vars


class NestedLambdaError(ValueError):
    """compile_abstraction() got a body that still contains a lambda."""


class NoDefinitionError(KeyError):
    """The atom has no lambda definition to unfold."""


class TermTooLargeError(Exception):
    """A term outgrew the DEFAULT_MAX_SIZE-node size guard; compile_term()
    raises it before building a disassembly that would."""


def compile_abstraction(x: str, body: Term) -> Term:
    """Eliminate one binder from a lambda-free body."""
    def leaf(n: Term) -> Term:
        return Atom("I") if type(n) is Var and n.name == x else App(Atom("K"), n)

    return fold(body, leaf, _s_split, _nested_lambda)


def _s_split(n: App, f: Term, a: Term) -> Term:
    return App(App(Atom("S"), f), a)


def _nested_lambda(n: Lam, b: Term) -> Term:
    raise NestedLambdaError(
        "body still contains a lambda; eliminate inner binders first")


def compile_term(t: Term, use_eta: bool = False) -> Term:
    """Replace every lambda in t by its I/K/S disassembly, innermost first.
    The result has no Lam nodes; variables that were free stay free.
    Each binder can triple the term, so a disassembly of more than
    DEFAULT_MAX_SIZE nodes raises TermTooLargeError before it is built."""
    def lam(n: Lam, b: Term) -> Term:
        x = n.binder
        if (use_eta and type(b) is App and type(b.arg) is Var
                and b.arg.name == x and x not in free_vars(b.fun)):
            return b.fun
        if 3 * b._size > DEFAULT_MAX_SIZE:  # \x.b has 3|b| - 2 occ(x, b) nodes
            occ = fold(b, lambda v: int(type(v) is Var and v.name == x),
                       lambda n, f, a: f + a, _nested_lambda)
            size = 3 * b._size - 2 * occ
            if size > DEFAULT_MAX_SIZE:
                raise TermTooLargeError(
                    f"compiling \\{x} would build {size} nodes, over the "
                    f"size guard of {DEFAULT_MAX_SIZE}")
        return compile_abstraction(x, b)

    return fold(t, _same, _rebuild_app, lam)


def _same(n: Term) -> Term:
    return n


def _rebuild_app(n: App, f: Term, a: Term) -> Term:
    return App(f, a)


# ---------------------------------------------------------------------------
# lambda definitions of the derived combinators

# D is inlined as \r.r x y inside Curry and Fork so their compiled forms stay
# inside the pure basis.
_DEFS = {
    "B": r"\x y z. x (y z)",
    "C": r"\x y z. x z y",
    "D": r"\x y r. r x y",
    "Phi": r"\x y z w. x (y w) (z w)",
    "Psi": r"\x y z w. x (y z) (y w)",
    "C2": r"\x y z w. x w y z",
    "Curry": r"\h x y. h (\r. r x y)",
    "p": r"\z. z K",
    "q": r"\z. z (K I)",
    "eps": r"\z. z I",
    "Fork": r"\f g t r. r (f t) (g t)",
    "Comp": r"\f g x. f (g x)",
}

DERIVED_NAMES = frozenset(_DEFS) | {"B2"}

_BASIS = frozenset({"I", "K", "S"})


@cache
def lambda_definition(name: str) -> Term:
    """The defining term of a derived combinator, binders intact.  B2 is the
    one entry defined by an applicative expression (B B B) rather than an
    abstraction."""
    if name == "B2":
        return parse("B B B")
    src = _DEFS.get(name)
    if src is None:
        if name in _BASIS:
            raise NoDefinitionError(f"{name} is a basis combinator, not a derived one")
        raise NoDefinitionError(f"no lambda definition for atom {name!r}")
    return parse(src)


@cache
def define_as_ski(name: str) -> Term:
    """The I/K/S unfolding of a derived combinator.  B2 unfolds to B B B,
    everything else compiles straight from its lambda definition."""
    return compile_term(lambda_definition(name))


def expand_derived(t: Term) -> Term:
    """Replace every derived atom by its basis unfolding, so only I, K, S,
    and atoms without definitions remain."""
    return fold(t, _unfold, _rebuild_app, lambda n, b: Lam(n.binder, b))


def _unfold(n: Term) -> Term:
    """A derived atom's basis unfolding, any other leaf itself.  B2's
    definition, B B B, is the only one that holds derived atoms."""
    if type(n) is not Atom or n.name not in DERIVED_NAMES:
        return n
    if n.name == "B2":
        b = define_as_ski("B")
        return App(App(b, b), b)
    return define_as_ski(n.name)
