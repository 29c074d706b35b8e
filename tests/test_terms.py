"""Term structure: the node classes, size, free variables, substitution,
alpha equivalence, positions."""

import copy
import pickle
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from clsh.terms import (
    App,
    Atom,
    InvalidPositionError,
    Lam,
    Var,
    alpha_eq,
    app,
    fold,
    free_vars,
    fresh_var,
    occurrences,
    pos_from_str,
    pos_to_str,
    positions,
    replace_at,
    spine,
    subterm_at,
    substitute,
    term_size,
)
from clsh.terms import _subst_env

from conftest import (DEEP, VAR_POOL, cl_terms, lam_terms, lambda_run,
                      left_spine, right_nested)
from spec_engines import alpha_eq as spec_alpha_eq


class TestNodes:
    @pytest.mark.parametrize("build, step", [
        (left_spine, "fun"), (right_nested, "arg"), (lambda_run, "body"),
    ], ids=["left_spine", "right_nested", "lambda_run"])
    def test_eq_and_hash_deep(self, build, step):
        a, b = build(DEEP), build(DEEP)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        c = replace_at(b, (step,) * DEEP, Var("other"))
        assert a != c and not a == c

    def test_kinds_differ(self):
        assert Atom("x") != Var("x")
        assert App(Atom("x"), Var("y")) != App(Var("x"), Var("y"))

    def test_not_equal_to_non_terms(self):
        assert Atom("K").__eq__("K") is NotImplemented
        assert Atom("K") != "K"

    @pytest.mark.parametrize("node, field", [
        (Atom("K"), "name"), (Var("x"), "name"),
        (App(Var("f"), Var("x")), "fun"), (App(Var("f"), Var("x")), "arg"),
        (Lam("x", Var("x")), "binder"), (Lam("x", Var("x")), "body"),
    ])
    def test_fields_are_read_only(self, node, field):
        with pytest.raises(AttributeError):
            setattr(node, field, Var("y"))
        with pytest.raises(AttributeError):
            delattr(node, field)
        with pytest.raises(AttributeError):
            node.extra = 1

    @given(lam_terms)
    def test_copy_and_pickle(self, t):
        for c in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert c == t and type(c) is type(t) and hash(c) == hash(t)

    @pytest.mark.parametrize("build", [left_spine, right_nested, lambda_run],
                             ids=["left_spine", "right_nested", "lambda_run"])
    def test_copy_and_pickle_deep(self, build):
        t = build(DEEP)
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        c = pickle.loads(pickle.dumps(t))
        assert c is not t and c == t and type(c) is type(t)

    # children that are not terms, some of them spelled like the kind tags
    @pytest.mark.parametrize("build", [
        lambda: App(Var("f"), "x"), lambda: App(Var("f"), 2),
        lambda: App(0, App(3, Atom("K"))), lambda: Lam("x", 1),
        lambda: Lam("x", App(4, None)), lambda: Lam("x", None),
        lambda: App(App(Var("f"), 2), Var("y")),
    ], ids=["str-arg", "int-arg", "int-fun", "int-body", "app-body",
            "none-body", "inner-app"])
    def test_non_term_child_fails_at_construction(self, build):
        with pytest.raises(AttributeError):
            build()


class TestBasics:
    def test_term_size(self):
        assert term_size(Atom("K")) == 1
        assert term_size(App(Atom("K"), Var("x"))) == 3
        assert term_size(Lam("x", App(Var("x"), Var("x")))) == 4

    @given(st.one_of(lam_terms, cl_terms))
    def test_sizes_set_at_construction(self, t):
        # read straight after construction: nothing may fill a size later
        for _, n in positions(t):
            assert n._size == _size(n)

    def test_free_vars(self):
        t = Lam("x", App(Var("x"), Var("y")))
        assert free_vars(t) == frozenset({"y"})
        assert free_vars(Atom("S")) == frozenset()

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_free_vars_deep_spine(self, n):
        t = app(Var("f"), *[Var("x")] * n, Var("y"))
        assert free_vars(t) == frozenset({"f", "x", "y"})

    def test_free_vars_under_many_binders(self):
        t = Var("y")
        for i in range(10_000):
            t = Lam(f"v{i}", App(t, Var(f"v{i}")))
        assert free_vars(t) == frozenset({"y"})

    def test_fresh_var(self):
        assert fresh_var(frozenset()) == "v"
        assert fresh_var(frozenset({"v", "v1"})) == "v2"
        assert fresh_var(frozenset({"v"}), hint="w") == "w"

    def test_spine_and_app(self):
        h = Atom("S")
        args = [Var("a"), Var("b"), Var("c")]
        t = app(h, *args)
        assert t == App(App(App(h, args[0]), args[1]), args[2])
        assert spine(t) == (h, args)
        assert spine(h) == (h, [])


def _size(t, cache=None):
    return fold(t, lambda n: 1, lambda n, f, a: 1 + f + a,
                lambda n, b: 1 + b, cache)


class TestFold:
    def test_leaves_left_to_right(self):
        seen = []

        def leaf(n):
            seen.append(n.name)
            return n.name

        # f (g x) (\y. y (K z))
        t = App(App(Var("f"), App(Var("g"), Var("x"))),
                Lam("y", App(Var("y"), App(Atom("K"), Var("z")))))
        got = fold(t, leaf, lambda n, f, a: f"({f} {a})",
                   lambda n, b: f"(\\{n.binder}.{b})")
        assert seen == ["f", "g", "x", "y", "K", "z"]
        assert got == "((f (g x)) (\\y.(y (K z))))"

    def test_not_a_term(self):
        with pytest.raises(TypeError, match="not a term"):
            _size("x")
        with pytest.raises(TypeError, match="not a term"):
            _size(None)

    def test_cache_stores_and_skips(self):
        inner = App(Var("g"), Var("x"))
        t = App(Var("f"), inner)
        assert _size(inner, "_fv") == 3
        calls = []

        def leaf(n):
            calls.append(n.name)
            return 1

        # inner holds a result already, so its leaves are not visited
        assert fold(t, leaf, lambda n, f, a: 1 + f + a, None, "_fv") == 5
        assert calls == ["f"]
        assert t._fv == 5 and t.fun._fv == 1
        # a root that holds a result is returned as it is
        assert fold(t, None, None, None, "_fv") == 5

    @pytest.mark.parametrize("build, size", [
        (left_spine, 2 * DEEP + 1),
        (right_nested, 2 * DEEP + 1),
        (lambda_run, DEEP + 1),
    ])
    def test_deep(self, build, size):
        assert _size(build(DEEP)) == size
        depth = fold(build(DEEP), lambda n: 0, lambda n, f, a: 1 + max(f, a),
                     lambda n, b: 1 + b)
        assert depth == DEEP


class TestRepr:
    def test_forms(self):
        assert repr(Atom("K")) == "Atom(name='K')"
        assert repr(App(Var("f"), Lam("x", Var("x")))) == (
            "App(fun=Var(name='f'), arg=Lam(binder='x', body=Var(name='x')))")
        # names are spelled by repr(), quotes included
        assert repr(Lam("it's", Atom('a"b'))) == (
            "Lam(binder=\"it's\", body=Atom(name='a\"b'))")

    @pytest.mark.parametrize("build, head, leaf, tail", [
        (left_spine, "App(fun=", "f", ", arg=Var(name='x'))"),
        (right_nested, "App(fun=Var(name='s'), arg=", "z", ")"),
        (lambda_run, "Lam(binder='x', body=", "x", ")"),
    ], ids=["left_spine", "right_nested", "lambda_run"])
    def test_deep(self, build, head, leaf, tail):
        assert repr(build(DEEP)) == (
            head * DEEP + f"Var(name='{leaf}')" + tail * DEEP)


# names from a pool of three, so binders often shadow x or capture a free
# variable of the replacement
_FEW = st.sampled_from(("x", "y", "z"))
_few_terms = st.recursive(
    _FEW.map(Var) | st.just(Atom("K")),
    lambda c: st.builds(App, c, c) | st.builds(Lam, _FEW, c),
    max_leaves=20,
)


class TestSubstitute:
    def test_plain(self):
        t = App(Var("x"), Var("y"))
        assert substitute(t, "x", Atom("K")) == App(Atom("K"), Var("y"))

    def test_bound_occurrence_shielded(self):
        t = Lam("x", Var("x"))
        assert substitute(t, "x", Atom("K")) == t

    def test_capture_avoided(self):
        # [x := y] under a binder named y must rename the binder
        t = Lam("y", App(Var("x"), Var("y")))
        r = substitute(t, "x", Var("y"))
        assert alpha_eq(r, Lam("z", App(Var("y"), Var("z"))))
        assert not alpha_eq(r, Lam("y", App(Var("y"), Var("y"))))

    def test_simultaneous(self):
        # the underlying env form swaps x and y in one pass
        t = App(Var("x"), Var("y"))
        r = _subst_env(t, {"x": Var("y"), "y": Var("x")})
        assert r == App(Var("y"), Var("x"))

    @given(lam_terms, st.sampled_from(VAR_POOL), cl_terms)
    def test_free_vars_after_substitution(self, t, x, s):
        before = free_vars(t)
        after = free_vars(substitute(t, x, s))
        if x in before:
            assert after == (before - {x}) | free_vars(s)
        else:
            assert after == before

    # the size checks.run_check predicts before substituting a `let`
    @given(_few_terms, _few_terms)
    @example(Lam("x", App(Var("x"), Var("x"))), App(Var("y"), Var("y")))
    @example(Lam("y", App(Var("x"), Var("y"))), App(Var("y"), Var("y")))
    def test_size_after_substitution(self, t, v):
        # x under a binder of x is not counted; renaming a binder to avoid
        # capture keeps the size
        assert substitute(t, "x", v)._size == (
            t._size + occurrences("x", t) * (v._size - 1))


class TestAlphaEq:
    def test_binder_names_ignored(self):
        assert alpha_eq(Lam("x", Var("x")), Lam("y", Var("y")))
        a = Lam("x", Lam("y", App(Var("x"), Var("y"))))
        b = Lam("u", Lam("w", App(Var("u"), Var("w"))))
        assert alpha_eq(a, b)

    def test_distinguishes_binders(self):
        a = Lam("x", Lam("y", Var("x")))
        b = Lam("x", Lam("y", Var("y")))
        assert not alpha_eq(a, b)

    def test_free_names_matter(self):
        assert not alpha_eq(Var("x"), Var("y"))
        assert alpha_eq(Var("x"), Var("x"))

    def test_mixed_kind(self):
        assert not alpha_eq(Atom("K"), Var("K"))

    @given(lam_terms)
    def test_reflexive(self, t):
        assert alpha_eq(t, t)

    @given(lam_terms, lam_terms, st.data())
    def test_agrees_with_spec(self, t, u, data):
        renamed = _rename(t, lambda: data.draw(st.sampled_from(VAR_POOL)), {})
        for a, b in ((t, u), (t, renamed), (renamed, t)):
            assert alpha_eq(a, b) == spec_alpha_eq(a, b)

    def test_deep_binder_runs(self):
        # \x0 … x(n-1). x0 x(n-1), binders all distinct, on each side
        def run(prefix, first, last):
            t = App(Var(f"{prefix}{first}"), Var(f"{prefix}{last}"))
            for i in reversed(range(DEEP)):
                t = Lam(f"{prefix}{i}", t)
            return t

        a, b, c = run("x", 0, DEEP - 1), run("y", 0, DEEP - 1), run("y", 1, 0)
        start = time.perf_counter()
        assert alpha_eq(a, b)
        assert not alpha_eq(a, c)
        assert time.perf_counter() - start < 20


def _rename(t, pick, env):
    """t with each binder renamed to pick(), its bound occurrences with it;
    a capture is allowed, so the result need not be alpha-equal to t."""
    if type(t) is Var:
        return Var(env.get(t.name, t.name))
    if type(t) is App:
        return App(_rename(t.fun, pick, env), _rename(t.arg, pick, env))
    if type(t) is Lam:
        w = pick()
        return Lam(w, _rename(t.body, pick, {**env, t.binder: w}))
    return t


class TestPositions:
    @given(lam_terms)
    def test_subterm_at_agrees_with_positions(self, t):
        for pos, sub in positions(t, into_lam=True):
            assert subterm_at(t, pos) == sub

    @given(lam_terms)
    def test_replace_with_self_is_identity(self, t):
        for pos, sub in positions(t, into_lam=True):
            assert replace_at(t, pos, sub) == t

    @given(lam_terms)
    def test_replace_then_subterm(self, t):
        marker = Atom("V")
        for pos, _ in positions(t, into_lam=True):
            assert subterm_at(replace_at(t, pos, marker), pos) == marker

    @given(lam_terms)
    def test_pos_string_round_trip(self, t):
        for pos, _ in positions(t, into_lam=True):
            assert pos_from_str(pos_to_str(pos)) == pos

    def test_root_spelling(self):
        assert pos_to_str(()) == "root"
        assert pos_from_str("root") == ()
        assert pos_from_str("") == ()
        assert pos_to_str(("fun", "arg")) == "fun.arg"

    def test_positions_skip_lam_bodies_by_default(self):
        t = App(Lam("x", App(Var("x"), Var("x"))), Atom("K"))
        seen = [pos for pos, _ in positions(t, into_lam=False)]
        assert ("fun", "body") not in seen
        assert ("arg",) in seen

    def test_positions_preorder_fun_before_arg(self):
        t = App(App(Atom("S"), Atom("K")), Atom("I"))
        seen = [pos for pos, _ in positions(t)]
        assert seen.index(("fun",)) < seen.index(("arg",))
        assert seen[0] == ()

    def test_invalid_position(self):
        with pytest.raises(InvalidPositionError):
            subterm_at(Atom("K"), ("fun",))
        with pytest.raises(InvalidPositionError):
            replace_at(Lam("x", Var("x")), ("arg",), Atom("K"))
        with pytest.raises(InvalidPositionError):
            pos_from_str("fun.nope")
