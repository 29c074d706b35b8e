"""Parser and printer: round trips, sugar, configuration, error reporting."""

import json

import pytest
from hypothesis import given

from clsh.syntax import (
    DEFAULT_SYNTAX,
    SyntaxConfig,
    TermSyntaxError,
    format_term,
    json_text,
    parse,
)
from clsh.terms import App, Atom, Lam, Var, alpha_eq

from conftest import DEEP, lam_terms, lambda_run, left_spine, right_nested
from spec_printer import from_json, reference_format_term, to_json

PLAIN = SyntaxConfig(expand_sugar=False)


def A(*names):
    t = Atom(names[0]) if names[0][0].isupper() or names[0] in (
        "p", "q", "eps") else Var(names[0])
    for n in names[1:]:
        nxt = Atom(n) if n[0].isupper() or n in ("p", "q", "eps") else Var(n)
        t = App(t, nxt)
    return t


class TestParsing:
    def test_application_associates_left(self):
        assert parse("S K K x") == App(A("S", "K", "K"), Var("x"))

    def test_parentheses(self):
        assert parse("S (K K) x") == App(App(Atom("S"), A("K", "K")), Var("x"))

    def test_classification(self):
        assert parse("x") == Var("x")
        assert parse("M") == Atom("M")       # single capitals are atoms
        assert parse("p") == Atom("p")       # reserved lowercase atom
        assert parse("q") == Atom("q")
        assert parse("eps") == Atom("eps")
        assert parse("pq") == Var("pq")      # only the exact names
        assert parse("rho") == Var("rho")

    def test_lambda_forms(self):
        want = Lam("x", Lam("y", Var("x")))
        assert parse(r"\x y. x") == want
        assert parse(r"\x. \y. x") == want
        assert parse("lambda x y. x") == want

    def test_unicode_aliases(self):
        assert parse("λx.x") == Lam("x", Var("x"))
        assert parse("ε") == Atom("eps")
        assert parse("Φ x") == App(Atom("Phi"), Var("x"))
        assert parse("Ψ") == Atom("Psi")
        assert parse("ρ") == Var("rho")

    def test_b2_expands(self):
        assert parse("B2") == A("B", "B", "B")
        assert parse("B2 x") == App(A("B", "B", "B"), Var("x"))

    def test_lambda_body_extends_right(self):
        assert parse(r"\x. x y") == Lam("x", App(Var("x"), Var("y")))
        assert parse(r"(\x. x) y") == App(Lam("x", Var("x")), Var("y"))


class TestSugar:
    def test_pair_brackets(self):
        assert parse("[x, y]") == A("D", "x", "y")

    def test_fork_angles(self):
        assert parse("<f, g>") == A("Fork", "f", "g")

    def test_quote(self):
        assert parse("'x") == A("K", "x")
        assert parse("'(f x)") == App(Atom("K"), App(Var("f"), Var("x")))

    def test_composition_dot(self):
        assert parse("f . g") == A("Comp", "f", "g")
        # right associative, binds looser than application
        assert parse("f . g . h") == App(App(Atom("Comp"), Var("f")),
                                         A("Comp", "g", "h"))
        assert parse("f x . g") == App(App(Atom("Comp"), App(Var("f"), Var("x"))),
                                       Var("g"))

    def test_lambda_dot_not_composition(self):
        assert parse(r"\x. f . g") == Lam("x", A("Comp", "f", "g"))

    def test_nested_sugar(self):
        assert parse("[p . x, 'y]") == App(
            App(Atom("D"), A("Comp", "p", "x")), A("K", "y"))

    def test_sugar_off(self):
        for bad in ("[x, y]", "<f, g>", "'x", "f . g"):
            with pytest.raises(TermSyntaxError):
                parse(bad, PLAIN)
        # the lambda binder dot is still fine without sugar
        assert parse(r"\x. x", PLAIN) == Lam("x", Var("x"))


class TestErrors:
    def test_unclosed_paren(self):
        with pytest.raises(TermSyntaxError) as e:
            parse("K (S x")
        assert "line 1" in str(e.value)

    def test_empty_input(self):
        with pytest.raises(TermSyntaxError):
            parse("")

    def test_trailing_junk(self):
        with pytest.raises(TermSyntaxError):
            parse("x )")

    def test_binder_must_be_variable(self):
        with pytest.raises(TermSyntaxError) as e:
            parse(r"\K. x")
        assert "binder" in str(e.value)

    def test_column_reported(self):
        with pytest.raises(TermSyntaxError) as e:
            parse("x ]")
        assert e.value.line == 1
        assert e.value.col == 3

    def test_multiline_position(self):
        with pytest.raises(TermSyntaxError) as e:
            parse("f x\n  )")
        assert e.value.line == 2

    def test_stray_character(self):
        with pytest.raises(TermSyntaxError):
            parse("x ? y")

    # One input per kind of error, with its exact message and position.
    @pytest.mark.parametrize("text, cfg, msg, line, col", [
        ("x ? y", DEFAULT_SYNTAX, "unexpected character '?'", 1, 3),
        ("x\u3000?", DEFAULT_SYNTAX, "unexpected character '?'", 1, 3),
        ("( )", DEFAULT_SYNTAX, "expected term, found ')'", 1, 3),
        ("'\\x. x", DEFAULT_SYNTAX, "expected term, found '\\\\'", 1, 2),
        ("[x, y]", PLAIN, "expected term, found '['", 1, 1),
        ("'x", PLAIN, "expected term, found \"'\"", 1, 1),
        ("", DEFAULT_SYNTAX, "expected term, found end of input", 1, 1),
        ("f (", DEFAULT_SYNTAX, "expected term, found end of input", 1, 4),
        ("K (S x", DEFAULT_SYNTAX,
         "unexpected token end of input, expected ')'", 1, 7),
        ("(x, y)", DEFAULT_SYNTAX, "unexpected token ',', expected ')'", 1, 3),
        ("[x y]", DEFAULT_SYNTAX, "unexpected token ']', expected ','", 1, 5),
        ("[x, y>", DEFAULT_SYNTAX, "unexpected token '>', expected ']'", 1, 6),
        ("<f, g]", DEFAULT_SYNTAX, "unexpected token ']', expected '>'", 1, 6),
        ("\\. x", DEFAULT_SYNTAX, "unexpected token '.', expected binder", 1, 2),
        ("\\x y z", DEFAULT_SYNTAX,
         "unexpected token end of input, expected '.'", 1, 7),
        ("\\x K. x", DEFAULT_SYNTAX, "binder must be a variable, got 'K'", 1, 4),
        ("x )", DEFAULT_SYNTAX, "unexpected token ')' after term", 1, 3),
        ("f . g", PLAIN, "unexpected token '.' after term", 1, 3),
        ("f x\n  )", DEFAULT_SYNTAX, "unexpected token ')' after term", 2, 3),
        ("f\r\n<g, h\n\n>)", DEFAULT_SYNTAX,
         "unexpected token ')' after term", 4, 2),
        ("(f\n\tx\n", DEFAULT_SYNTAX,
         "unexpected token end of input, expected ')'", 3, 1),
        ("λ\n ε. x", DEFAULT_SYNTAX, "binder must be a variable, got 'eps'", 2, 2),
    ])
    def test_message_and_position(self, text, cfg, msg, line, col):
        with pytest.raises(TermSyntaxError) as e:
            parse(text, cfg)
        assert (e.value.msg, e.value.line, e.value.col) == (msg, line, col)
        assert str(e.value) == f"{msg} at line {line}, column {col}"


class TestPrinting:
    def test_application_contexts(self):
        assert format_term(parse("K (I I) S")) == "K (I I) S"
        assert format_term(parse("S K K x")) == "S K K x"

    def test_lambda_run_collapses(self):
        assert format_term(parse(r"\x. \y. x (y y)")) == r"\x y.x (y y)"

    def test_lambda_parenthesized_in_argument(self):
        t = App(Var("f"), Lam("x", Var("x")))
        assert parse(format_term(t)) == t

    def test_lambda_parenthesized_in_function_position(self):
        t = App(Lam("x", Var("x")), Lam("y", App(Var("y"), Var("y"))))
        assert format_term(t) == r"(\x.x) (\y.y y)"

    @given(lam_terms)
    def test_matches_reference_printer(self, t):
        assert format_term(t) == reference_format_term(t)

    @given(lam_terms)
    def test_round_trip(self, t):
        assert parse(format_term(t)) == t

    @given(lam_terms)
    def test_round_trip_is_alpha_identity(self, t):
        assert alpha_eq(parse(format_term(t)), t)


class TestJson:
    @given(lam_terms)
    def test_round_trip(self, t):
        blob = json.dumps(to_json(t))
        assert from_json(json.loads(blob)) == t

    @given(lam_terms)
    def test_json_text_is_json_dumps(self, t):
        assert json_text(t) == json.dumps(to_json(t))

    def test_shape(self):
        assert to_json(parse("K x")) == {"app": [{"atom": "K"}, {"var": "x"}]}
        assert to_json(parse(r"\x.x")) == {"lam": ["x", {"var": "x"}]}

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            from_json({"nope": 1})
        with pytest.raises(ValueError):
            from_json({"app": [{"atom": "K"}, {"app": [{"var": "x"}]}]})
        with pytest.raises(TypeError):
            to_json(App(Atom("K"), "x"))


# Expected strings are built without clsh.
class TestDeepTerms:
    def test_right_nested(self):
        want = "s (" * (DEEP - 1) + "s z" + ")" * (DEEP - 1)
        assert format_term(right_nested(DEEP)) == want

    def test_left_spine(self):
        assert format_term(left_spine(DEEP)) == "f" + " x" * DEEP

    def test_lambda_run(self):
        want = "\\" + " ".join(["x"] * DEEP) + ".x"
        assert format_term(lambda_run(DEEP)) == want

    @pytest.mark.parametrize("build", [right_nested, left_spine, lambda_run])
    def test_round_trip(self, build):
        t = build(DEEP)
        assert parse(format_term(t)) == t

    @pytest.mark.parametrize("build", [right_nested, left_spine, lambda_run])
    def test_json_round_trip(self, build):
        t = build(DEEP)
        assert format_term(from_json(to_json(t))) == format_term(t)

    def test_json_shape(self):
        blob = to_json(left_spine(DEEP))
        for _ in range(DEEP):
            blob, arg = blob["app"]
            assert arg == {"var": "x"}
        assert blob == {"var": "f"}
