"""The I/K/S compiler: frozen outputs, the substitution simulation property,
and the derived combinator definitions."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from clsh.disassemble import (
    DERIVED_NAMES,
    NestedLambdaError,
    NoDefinitionError,
    compile_abstraction,
    compile_term,
    define_as_ski,
    expand_derived,
    lambda_definition,
)
from clsh.rewrite import CL_BASE, DERIVED, NORMAL_FORM, normalize_fast
from clsh.syntax import parse
from clsh.terms import (App, Atom, Lam, Term, Var, free_vars, positions,
                        substitute, term_size)

from conftest import basis_terms


def _lam_free(t: Term) -> bool:
    match t:
        case Lam(_, _):
            return False
        case App(f, a):
            return _lam_free(f) and _lam_free(a)
        case _:
            return True


def _only_basis_atoms(t: Term) -> bool:
    match t:
        case Atom(n):
            return n in ("I", "K", "S")
        case Var(_):
            return True
        case App(f, a):
            return _only_basis_atoms(f) and _only_basis_atoms(a)
        case _:
            return False


class TestCompileAbstraction:
    def test_identity_case(self):
        assert compile_abstraction("x", Var("x")) == Atom("I")

    def test_constant_leaf_case(self):
        assert compile_abstraction("x", Var("y")) == App(Atom("K"), Var("y"))
        assert compile_abstraction("x", Atom("K")) == App(Atom("K"), Atom("K"))

    def test_application_always_splits(self):
        # even an x-free application splits with S, there is no K shortcut
        got = compile_abstraction("x", App(Var("f"), Var("g")))
        assert got == parse("S (K f) (K g)")

    def test_rejects_inner_lambda(self):
        with pytest.raises(NestedLambdaError):
            compile_abstraction("x", Lam("y", Var("x")))

    @given(basis_terms, st.sampled_from(("x", "y", "a")))
    def test_size_is_predicted(self, body, x):
        # the count compile_term checks against the size guard
        occ = sum(1 for _, s in positions(body) if s == Var(x))
        assert (term_size(compile_abstraction(x, body))
                == 3 * term_size(body) - 2 * occ)


class TestCompileTerm:
    def test_frozen_k_combinator(self):
        assert compile_term(parse(r"\x y. x")) == parse("S (K K) I")

    def test_frozen_identity(self):
        assert compile_term(parse(r"\x. x")) == Atom("I")

    def test_innermost_first(self):
        # \x.\y.y: inner binder compiles to I first, then \x.I gives K I
        assert compile_term(parse(r"\x y. y")) == parse("K I")

    def test_leaves_applicative_structure(self):
        t = parse("S (K x) y")
        assert compile_term(t) == t

    def test_compiles_under_application(self):
        t = parse(r"(\x. x) (\y. y)")
        assert compile_term(t) == parse("I I")

    @given(basis_terms, st.sampled_from(("x", "y", "a")))
    def test_result_lam_free_and_var_gone(self, body, x):
        got = compile_term(Lam(x, body))
        assert _lam_free(got)
        assert x not in free_vars(got)
        assert free_vars(got) == free_vars(Lam(x, body))

    @given(basis_terms, st.sampled_from(("x", "y")), basis_terms)
    def test_simulates_substitution(self, body, x, arg):
        """(\\x.body) arg and body[x := arg] share a CL normal form."""
        lhs, _, st1 = normalize_fast(App(compile_term(Lam(x, body)), arg),
                                     CL_BASE, max_steps=2000)
        rhs, _, st2 = normalize_fast(substitute(body, x, arg),
                                     CL_BASE, max_steps=2000)
        assume(st1 == NORMAL_FORM and st2 == NORMAL_FORM)
        assert lhs == rhs

    def test_eta_contraction_flag(self):
        t = parse(r"\x. f x")
        assert compile_term(t, use_eta=True) == Var("f")
        assert compile_term(t) == parse("S (K f) I")

    def test_eta_skipped_when_var_occurs_in_fun(self):
        t = parse(r"\x. x x")
        assert compile_term(t, use_eta=True) == parse("S I I")

    def test_eta_inner_binder(self):
        # the eta check runs on the compiled body of each binder in turn
        t = parse(r"\x. \y. x y")
        assert compile_term(t, use_eta=True) == Atom("I")


class TestDefinitions:
    def test_catalog_membership(self):
        assert "B2" in DERIVED_NAMES
        for name in ("B", "C", "D", "Phi", "Psi", "C2", "Curry",
                     "p", "q", "eps", "Fork", "Comp"):
            assert name in DERIVED_NAMES

    def test_every_rule_head_has_a_definition(self):
        for rule in DERIVED:
            define_as_ski(rule.head)  # must not raise

    def test_frozen_unfoldings(self):
        assert define_as_ski("eps") == parse("S I (K I)")
        assert define_as_ski("p") == parse("S I (K K)")
        # the body K I is an application, so it S-splits; no K shortcut
        assert define_as_ski("q") == parse("S I (S (K K) (K I))")
        assert define_as_ski("B2") == parse("B B B")

    def test_unfoldings_stay_in_basis(self):
        for name in DERIVED_NAMES - {"B2"}:
            assert _only_basis_atoms(define_as_ski(name))
            assert free_vars(define_as_ski(name)) == frozenset()

    def test_lambda_definition_shape(self):
        assert lambda_definition("B") == parse(r"\x y z. x (y z)")
        assert lambda_definition("B2") == parse("B B B")
        assert compile_term(lambda_definition("Comp")) == define_as_ski("Comp")

    def test_no_definition_for_basis(self):
        for name in ("I", "K", "S"):
            with pytest.raises(NoDefinitionError):
                define_as_ski(name)

    def test_no_definition_for_opaque_atoms(self):
        with pytest.raises(NoDefinitionError):
            define_as_ski("V")
        with pytest.raises(NoDefinitionError):
            lambda_definition("nosuch")


class TestExpandDerived:
    def test_expands_to_basis(self):
        t = parse("Curry (eps . <k . p, q>)")
        assert _only_basis_atoms(expand_derived(t))

    def test_leaves_opaque_atoms(self):
        t = parse("V (B x) rho")
        got = expand_derived(t)
        assert got.fun.fun == Atom("V")
        assert _lam_free(got)

    def test_single_atom(self):
        assert expand_derived(Atom("B")) == define_as_ski("B")
        assert expand_derived(Atom("I")) == Atom("I")

    def test_b2_unfolds_to_basis(self):
        b = define_as_ski("B")
        assert expand_derived(Atom("B2")) == App(App(b, b), b)

    def test_deep_right_nested(self):
        # B (B (… (B x))), 10^5 deep; == stays shallow here, since each
        # level is compared on its own
        n = 100_000
        t = Var("x")
        for _ in range(n):
            t = App(Atom("B"), t)
        got = expand_derived(t)
        b = define_as_ski("B")
        for _ in range(n):
            assert type(got) is App and got.fun == b
            got = got.arg
        assert got == Var("x")
