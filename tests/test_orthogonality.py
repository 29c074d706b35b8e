"""The built-in rule sets are orthogonal: no left side overlaps another.

make_rule checks that left sides are atom-headed and linear.  Nothing in
src/ checks overlaps, yet the confluence experiment in randterms.py, and
the promise that --strategy never changes a normal form, rest on them
being absent.  This is the critical-pair test (Knuth & Bendix 1970; Huet,
"Confluent reductions", JACM 27(4), 1980) cut down to what orthogonality
needs: whether any overlap exists, not what its pair reduces to.
"""

import pytest

from clsh.rewrite import CL_BASE, FULL, RuleSet, parse_rule
from clsh.terms import App, Atom, Position, Term, Var, positions


def unifies(p: Term, q: Term) -> bool:
    """Whether the left sides p and q, renamed apart, unify.

    Renamed apart, the two share no variable, and each is linear, so every
    variable is met exactly once and binds whatever it meets: no binding
    is ever checked against another, and no occurs check is needed.  The
    walk only looks for a clash below the variables, so it never compares
    variable names, which renames the sides apart for free.
    """
    stack = [(p, q)]
    while stack:
        a, b = stack.pop()
        if type(a) is Var or type(b) is Var:
            continue
        if type(a) is not type(b):
            return False
        if type(a) is Atom:
            if a.name != b.name:
                return False
        else:
            stack += ((a.fun, b.fun), (a.arg, b.arg))
    return True


def overlaps(rules: RuleSet) -> list[tuple[str, str, Position]]:
    """(outer rule, inner rule, position in the outer left side) wherever
    the inner left side unifies with a non-variable subterm of the outer
    one; a rule meeting itself at the root is not an overlap."""
    return [(outer.name, inner.name, pos)
            for outer in rules
            for pos, sub in positions(outer.lhs) if type(sub) is not Var
            for inner in rules
            if not (inner is outer and pos == ()) and unifies(inner.lhs, sub)]


class TestUnifies:
    @pytest.mark.parametrize("p, q, expected", [
        (Atom("K"), Atom("K"), True),
        (Atom("K"), Atom("S"), False),
        (Atom("K"), App(Atom("K"), Var("x")), False),
        (App(Atom("K"), Var("x")), App(Atom("K"), App(Atom("S"), Var("y"))),
         True),
        # the same name on both sides is two variables, not one
        (App(App(Atom("D"), Var("x")), Atom("K")),
         App(App(Atom("D"), Atom("S")), Var("x")), True),
    ])
    def test_cases(self, p, q, expected):
        assert unifies(p, q) is expected
        assert unifies(q, p) is expected


class TestBuiltinRuleSets:
    @pytest.mark.parametrize("rules", [CL_BASE, FULL], ids=["CL_BASE", "FULL"])
    def test_no_overlaps(self, rules):
        assert overlaps(rules) == []

    def test_finds_a_rule_inside_longer_ones(self):
        # D x y is a subterm of D's own left side and of p's and q's
        got = overlaps(FULL.extend(parse_rule("Dx: D x y => x")))
        assert sorted(got) == [("D", "Dx", ("fun",)), ("p", "Dx", ("arg",)),
                               ("q", "Dx", ("arg",))]

    def test_finds_two_rules_at_one_root(self):
        got = overlaps(CL_BASE.extend(parse_rule("k2: K (K a) b => b")))
        assert sorted(got) == [("K", "k2", ()), ("k2", "K", ())]
