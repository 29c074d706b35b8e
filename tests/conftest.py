"""Shared hypothesis strategies for term generation, and deep terms.

Variable names are drawn from a fixed pool that avoids every name the parser
reserves (catalog atoms, single capitals, the lambda keyword), so any
generated term survives a print/parse round trip unchanged.  B2 is excluded
from the atom pool because the parser expands that spelling on sight.
"""

from hypothesis import strategies as st

from clsh.terms import ATOM_CATALOG, App, Atom, Lam, Var

VAR_POOL = ("a", "b", "c", "f", "g", "h", "x", "y", "z", "u", "w", "rho", "foo")
ATOM_POOL = tuple(sorted(ATOM_CATALOG - {"B2"})) + ("A", "M", "N")
BASIS_POOL = ("I", "K", "S")

variables = st.sampled_from(VAR_POOL).map(Var)
atoms = st.sampled_from(ATOM_POOL).map(Atom)
basis_atoms = st.sampled_from(BASIS_POOL).map(Atom)


def _apps(children):
    return st.builds(App, children, children)


def _lams(children):
    return st.builds(Lam, st.sampled_from(VAR_POOL), children)


# Lam-free applicative terms over the full atom catalog.
cl_terms = st.recursive(atoms | variables, _apps, max_leaves=25)

# Lam-free terms over I/K/S and variables only: safe under CL_BASE.
basis_terms = st.recursive(basis_atoms | variables, _apps, max_leaves=20)

# Terms with binders mixed in, for syntax and substitution tests.
lam_terms = st.recursive(
    atoms | variables,
    lambda c: st.one_of(_apps(c), _lams(c)),
    max_leaves=20,
)


@st.composite
def closed_lambdas(draw, max_depth: int = 5):
    """Closed pure lambda terms: variables and binders only, no atoms."""

    def go(env: tuple[str, ...], depth: int):
        options = []
        if env:
            options.append("var")
        if depth > 0:
            options.extend(["lam", "lam"])
            if env:
                options.append("app")
        choice = draw(st.sampled_from(options))
        if choice == "var":
            return Var(draw(st.sampled_from(env)))
        if choice == "lam":
            binder = f"x{len(env) + 1}"
            return Lam(binder, go(env + (binder,), depth - 1))
        return App(go(env, depth - 1), go(env, depth - 1))

    return go((), draw(st.integers(min_value=1, max_value=max_depth)))


# Depth 10^5, far past the recursion limit.
DEEP = 100_000


def right_nested(n):
    t = Var("z")
    for _ in range(n):
        t = App(Var("s"), t)
    return t


def left_spine(n):
    t = Var("f")
    for _ in range(n):
        t = App(t, Var("x"))
    return t


def lambda_run(n):
    t = Var("x")
    for _ in range(n):
        t = Lam("x", t)
    return t
