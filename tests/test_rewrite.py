"""Rewrite engine: rule validation, matching, strategies, traces, budgets,
and step-for-step agreement between the zipper machines and the rescanning
spec reducer."""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clsh
from clsh.rewrite import (
    BUDGET_EXHAUSTED,
    CL_BASE,
    DERIVED,
    FULL,
    IllFormedRuleError,
    NORMAL_FORM,
    RuleSet,
    instantiate,
    make_rule,
    match,
    normalize,
    normalize_fast,
    parse_rule,
    parse_rules,
)
from clsh.disassemble import compile_term
from clsh.syntax import format_term, parse
from clsh.terms import (App, Atom, Var, app, pos_to_str, positions, replace_at,
                        subterm_at, term_size)

from conftest import cl_terms
from spec_engines import normalize as spec_normalize, reduce_step


def nf(src: str, rules=FULL, strategy: str = "lo") -> str:
    from clsh.syntax import format_term
    return format_term(normalize(parse(src), rules, strategy=strategy).final)


class TestBaseRules:
    def test_i(self):
        assert nf("I a") == "a"

    def test_k(self):
        assert nf("K a b") == "a"

    def test_s(self):
        assert nf("S a b c", CL_BASE) == "a c (b c)"

    def test_undersaturated_heads_are_normal(self):
        for src in ("S a b", "K a", "S", "I"):
            assert normalize(parse(src), FULL).nsteps == 0

    def test_base_set_ignores_derived_atoms(self):
        assert normalize(parse("B a b c"), CL_BASE).nsteps == 0


class TestDerivedRules:
    CASES = {
        "B a b c": "a (b c)",
        "C a b c": "a c b",
        "D a b r": "r a b",
        "Phi a b c w": "a (b w) (c w)",
        "Psi a b c w": "a (b c) (b w)",
        "C2 a b c w": "a w b c",
        "Curry h a b": "h (D a b)",
        "p (D a b)": "a",
        "q (D a b)": "b",
        "eps a": "a I",
        "Fork f g a": "D (f a) (g a)",
        "Comp f g a": "f (g a)",
    }

    def test_one_step_results(self):
        for src, want in self.CASES.items():
            m = reduce_step(parse(src), FULL)
            assert m is not None, src
            _, pos, got = m
            assert pos == (), src
            assert got == parse(want), src

    def test_rule_count_and_order(self):
        names = [r.name for r in DERIVED]
        assert names == ["B", "C", "D", "Phi", "Psi", "C2", "Curry",
                         "p", "q", "eps", "Fork", "Comp"]
        assert len(FULL) == len(CL_BASE) + len(DERIVED)

    def test_projections_need_a_pair(self):
        # p/q have a nested pattern: a non-pair argument is no redex
        assert normalize(parse("p a"), FULL).nsteps == 0
        assert normalize(parse("q (I a)"), CL_BASE.extend(*DERIVED.rules)).nsteps > 0


class TestRuleValidation:
    def test_head_must_be_atom(self):
        with pytest.raises(IllFormedRuleError):
            make_rule("bad", parse("x y"), parse("y"))

    def test_left_linear(self):
        with pytest.raises(IllFormedRuleError):
            make_rule("bad", parse("W x x"), parse("x"))

    def test_rhs_vars_bound(self):
        with pytest.raises(IllFormedRuleError):
            make_rule("bad", parse("W x"), parse("x y"))

    def test_no_lambda(self):
        with pytest.raises(IllFormedRuleError):
            make_rule("bad", parse(r"W (\x. x)"), parse("W"))
        with pytest.raises(IllFormedRuleError):
            make_rule("bad", parse("W x"), parse(r"\y. x"))

    def test_bare_atom_lhs_rewrites_every_occurrence(self):
        # arity 0 is legal: a definitional rule fires on the atom itself
        rs = RuleSet((make_rule("unfold", parse("W"), parse("K I")),))
        assert normalize(parse("a W"), rs).final == parse("a (K I)")
        fast, n, status = normalize_fast(parse("W W"), rs)
        assert fast == parse("(K I) (K I)")
        assert (n, status) == (2, NORMAL_FORM)

    def test_deep_sides(self):
        # F (G (G … (G x))) => H (H … (H x)), 10^4 deep, built without the
        # parser (nested parentheses make it recurse)
        n = 10_000
        lhs, rhs, t = Var("x"), Var("x"), Atom("a")
        for _ in range(n):
            lhs, rhs, t = (App(Atom("G"), lhs), App(Atom("H"), rhs),
                           App(Atom("G"), t))
        r = make_rule("deep", App(Atom("F"), lhs), rhs)
        assert (r.arity, r.depth, r.metavars) == (1, n + 1, frozenset("x"))
        node = App(Atom("F"), t)
        contractum = r.fire(node)
        assert format_term(contractum) == "H (" * (n - 1) + "H a" + ")" * (n - 1)
        assert term_size(contractum) - term_size(node) == -2
        assert r.fire(App(Atom("F"), App(Atom("G"), Atom("a")))) is None

    def test_duplicate_names_rejected(self):
        r = make_rule("W", parse("W x"), parse("x"))
        with pytest.raises(IllFormedRuleError):
            RuleSet((r, r))

    def test_parse_rule(self):
        r = parse_rule("twist: W x y => y x")
        assert r.name == "twist"
        assert r.head == "W"
        assert r.arity == 2
        assert str(r) == "twist: W x y => y x"

    def test_parse_rule_rejects_junk(self):
        with pytest.raises(IllFormedRuleError):
            parse_rule("no arrow here")
        with pytest.raises(IllFormedRuleError):
            parse_rule("W x => x")  # missing name

    def test_parse_rules_text(self):
        rs = parse_rules("""
            # a comment
            one: W x => x

            two: U x y => y
        """)
        assert [r.name for r in rs] == ["one", "two"]


class TestMatching:
    def test_match_binds_variables(self):
        sigma = match(parse("S a b c"), parse("S K (K I) x"))
        assert sigma == {"a": Atom("K"), "b": parse("K I"), "c": Var("x")}

    def test_match_requires_atom_equality(self):
        assert match(parse("K a b"), parse("S x y")) is None

    def test_match_nested_pattern(self):
        sigma = match(parse("p (D x y)"), parse("p (D (K a) b)"))
        assert sigma == {"x": parse("K a"), "y": Var("b")}
        assert match(parse("p (D x y)"), parse("p (K a)")) is None

    def test_instantiate_round_trip(self):
        pat = parse("Phi a b c w")
        sigma = {"a": parse("K I"), "b": Var("u"), "c": Atom("S"), "w": parse("x y")}
        assert match(pat, instantiate(pat, sigma)) == sigma

    def test_instantiate_deep(self):
        # G (G (… (G x))) and its mirror, 10^5 deep, built without the parser
        n = 100_000
        right, left = Var("x"), Var("x")
        for _ in range(n):
            right, left = App(Atom("G"), right), App(left, Atom("G"))
        sigma = {"x": Atom("a")}
        assert (format_term(instantiate(right, sigma))
                == "G (" * (n - 1) + "G a" + ")" * (n - 1))
        assert format_term(instantiate(left, sigma)) == "a" + " G" * n

    def test_instantiate_rejects_lambda(self):
        with pytest.raises(IllFormedRuleError):
            instantiate(parse(r"K (\y. a)"), {"a": Atom("I")})

    def test_match_at_respects_arity(self):
        assert FULL.match_at(parse("S a b")) is None
        m = FULL.match_at(parse("S a b c"))
        assert m is not None and m[0].name == "S"
        # an oversaturated head is matched at the inner node, not the root
        assert FULL.match_at(parse("I a b")) is None


# Random rule sets: atom-headed, linear left sides with nested atom-headed
# patterns (like p (D x y)), and right sides that erase and duplicate
# variables.  Three heads and arities up to 3 make shared buckets common.
RULE_HEADS = ("F", "G", "V")
PATTERN_ATOMS = ("D", "K", "M")


@st.composite
def _pattern(draw, fresh, depth):
    kind = draw(st.sampled_from(("var", "var", "atom", "app")[:4 if depth else 3]))
    if kind == "var":
        return Var(next(fresh))
    head = Atom(draw(st.sampled_from(PATTERN_ATOMS)))
    if kind == "atom":
        return head
    n = draw(st.integers(1, 2))
    return app(head, *(draw(_pattern(fresh, depth - 1)) for _ in range(n)))


@st.composite
def random_rules(draw):
    rules = []
    for i in range(draw(st.integers(1, 6))):
        fresh = (f"x{k}" for k in itertools.count())
        head = Atom(draw(st.sampled_from(RULE_HEADS)))
        args = [draw(_pattern(fresh, 2)) for _ in range(draw(st.integers(0, 3)))]
        lhs = app(head, *args)
        names = sorted({v.name for _, v in positions(lhs) if type(v) is Var})
        leaves = st.sampled_from(RULE_HEADS + PATTERN_ATOMS).map(Atom)
        if names:
            leaves = leaves | st.sampled_from(names).map(Var)
        rhs = draw(st.recursive(leaves, lambda c: st.builds(App, c, c),
                                max_leaves=8))
        rules.append(make_rule(f"r{i}", lhs, rhs))
    return RuleSet(tuple(rules))


# terms over the random rules' atoms; instances of their left sides are
# drawn as well, so that most rules fire somewhere
_rule_atoms = st.sampled_from(RULE_HEADS + PATTERN_ATOMS + ("I",)).map(Atom)
rule_terms = st.recursive(_rule_atoms | st.sampled_from(("a", "b")).map(Var),
                          lambda c: st.builds(App, c, c), max_leaves=12)


def _instance(rule, draw_term):
    """rule.lhs with each variable replaced by a drawn term."""
    return instantiate(rule.lhs, {v: draw_term() for v in rule.metavars})


def _count(t):
    """Nodes of t, counted without reading the sizes they carry."""
    return len(list(positions(t)))


def _fire_agrees(rules, t):
    """fire_at and each rule's fire against match_at/match + instantiate,
    at every node of t; the contractum's size against a count of its
    nodes."""
    for _, sub in positions(t):
        ref = rules.match_at(sub)
        got = rules.fire_at(sub)
        if ref is None:
            assert got is None
        else:
            rule, sigma = ref
            contractum = instantiate(rule.rhs, sigma)
            assert got[0] is rule
            assert got[1] == contractum
            assert (term_size(got[1]) - term_size(sub)
                    == _count(contractum) - _count(sub))
        for rule in rules:
            sigma = match(rule.lhs, sub)
            hit = rule.fire(sub)
            if sigma is None:
                assert hit is None
            else:
                contractum = instantiate(rule.rhs, sigma)
                assert hit == contractum
                assert (term_size(hit) - term_size(sub)
                        == _count(contractum) - _count(sub))


class TestCompiledRules:
    """The generated matchers fire exactly where match_at/match and
    instantiate say, build the same contractum and measure its size."""

    @settings(max_examples=150, deadline=None)
    @given(cl_terms, st.sampled_from((FULL, CL_BASE)))
    def test_builtin_rules(self, t, rules):
        _fire_agrees(rules, t)

    @settings(max_examples=150, deadline=None)
    @given(random_rules(), st.data())
    def test_random_rules(self, rules, data):
        def draw_term():
            return data.draw(rule_terms)

        _fire_agrees(rules, draw_term())
        for rule in rules:
            _fire_agrees(rules, _instance(rule, draw_term))

    def test_catalog_order_in_a_shared_bucket(self):
        # the catalog's hyp appval and pairval share the bucket (V, 2);
        # V (D a b) r matches both, and the earlier one wins
        appval = parse_rule("appval: V (m n) r => V m r (V n r)")
        pairval = parse_rule("pairval: V (D a b) r => D (V a r) (V b r)")
        for first, second in ((appval, pairval), (pairval, appval)):
            rules = FULL.extend(first, second)
            for src in ("V (D a b) r", "V (f x) r", "V f r", "p (V (D a b) r)"):
                _fire_agrees(rules, parse(src))
            assert rules.fire_at(parse("V (D a b) r"))[0] is first

    def test_contractum_shares_bindings_and_rule_atoms(self):
        eps = next(r for r in FULL if r.name == "eps")
        node = parse("eps (f x)")
        contractum = eps.fire(node)
        assert contractum.fun is node.arg
        assert contractum.arg is eps.rhs.arg

    def test_rules_compile_on_first_use(self):
        r = parse_rule("twist: W x y => y x")
        assert "fire" not in vars(r)
        rules = FULL.extend(r)
        assert rules.fire_at(parse("W a b"))[1] == parse("b a")
        assert "fire" in vars(r)
        # extending a set keeps its rule objects, and with them their
        # compiled matchers
        assert all(a is b for a, b in zip(rules, FULL))
        # a rule read again (a reloaded catalog's hyp) is not compiled again
        again = parse_rule("twist: W x y => y x")
        assert again.fire is not r.fire
        assert again.fire.__code__ is r.fire.__code__
        # importing clsh compiles nothing
        code = ("import clsh.rewrite as r; "
                "print(sum('fire' in vars(x) for x in r.FULL))")
        src = os.path.dirname(os.path.dirname(clsh.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out == "0\n"

    def test_extend_with_nothing_is_the_same_set(self):
        assert FULL.extend() is FULL


class TestStrategies:
    def test_lo_picks_outermost(self):
        # K (I a) b: the K redex at the root wins over the inner I redex
        name, pos, res = reduce_step(parse("K (I a) b"), CL_BASE)
        assert (name, pos) == ("K", ())
        assert res == parse("I a")

    def test_ri_picks_innermost(self):
        name, pos, res = reduce_step(parse("K (I a) b"), CL_BASE, strategy="ri")
        assert name == "I"
        assert res == parse("K a b")

    def test_lo_is_leftmost(self):
        # two disjoint I redexes: the one in function position fires first
        _, pos, _ = reduce_step(parse("(I f) (I a)"), CL_BASE)
        assert pos == ("fun",)

    def test_ri_is_rightmost(self):
        _, pos, _ = reduce_step(parse("(I f) (I a)"), CL_BASE, strategy="ri")
        assert pos == ("arg",)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            reduce_step(parse("I a"), CL_BASE, strategy="xx")
        with pytest.raises(ValueError):
            normalize_fast(parse("I a"), CL_BASE, strategy="xx")
        with pytest.raises(ValueError):
            normalize(parse("I a"), CL_BASE, strategy="xx")

    def test_weak_reduction_leaves_lambda_bodies(self):
        t = parse(r"K (\x. I x) y")
        final = normalize(t, CL_BASE).final
        assert final == parse(r"\x. I x")  # the inner I redex is untouched


class TestTraces:
    def test_trace_replays(self):
        tr = normalize(parse("S K K x"), CL_BASE)
        assert tr.status == NORMAL_FORM
        assert tr.final == Var("x")
        cur = tr.initial
        by_name = {r.name: r for r in CL_BASE}
        for step in tr.steps:
            rule = by_name[step.rule]
            sigma = match(rule.lhs, subterm_at(cur, step.pos))
            assert sigma is not None
            cur = replace_at(cur, step.pos, instantiate(rule.rhs, sigma))
            assert cur == step.result
        assert cur == tr.final

    def test_trace_json_shape(self):
        tr = normalize(parse("I x"), CL_BASE)
        blob = tr.to_json()
        assert blob["status"] == "normal_form"
        assert blob["final"] == "x"
        assert blob["steps"][0]["rule"] == "I"
        assert blob["steps"][0]["pos"] == "root"

    def test_budget_stops_before_firing(self):
        # I (I (I x)) needs three root steps; a budget of two leaves a redex
        t = parse("I (I (I x))")
        tr = normalize(t, CL_BASE, max_steps=2)
        assert tr.status == BUDGET_EXHAUSTED
        assert tr.nsteps == 2
        assert tr.final == parse("I x")
        full = normalize(t, CL_BASE, max_steps=3)
        assert full.status == NORMAL_FORM
        assert full.nsteps == 3

    def test_zero_budget(self):
        tr = normalize(parse("I x"), CL_BASE, max_steps=0)
        assert tr.status == BUDGET_EXHAUSTED
        assert tr.nsteps == 0
        assert tr.final == parse("I x")
        assert normalize(Var("x"), CL_BASE, max_steps=0).status == NORMAL_FORM

    def test_size_guard_counts_the_overgrown_step(self):
        dup = RuleSet((make_rule("Dup", parse("W x"), parse("W (x x)")),))
        tr = normalize(parse("W a"), dup, max_steps=1000, max_size=50)
        assert tr.status == BUDGET_EXHAUSTED
        assert tr.nsteps < 20
        assert term_size(tr.final) > 50
        assert tr.steps[-1].result == tr.final


class TestDeepTerms:
    N = 10_000

    @pytest.mark.parametrize("strategy", ["lo", "ri"])
    def test_nested_identities(self, strategy):
        # I (I (… (I x))): lo fires at the root each time, ri at the bottom
        t = Var("x")
        for _ in range(self.N):
            t = App(Atom("I"), t)
        assert normalize_fast(t, CL_BASE, max_steps=self.N,
                              strategy=strategy) == (Var("x"), self.N,
                                                     NORMAL_FORM)
        final, n, status = normalize_fast(t, CL_BASE, max_steps=5,
                                          strategy=strategy)
        assert (n, status) == (5, BUDGET_EXHAUSTED)
        m = self.N - 5  # I's left
        assert format_term(final) == "I (" * (m - 1) + "I x" + ")" * (m - 1)


class TestRecordingCost:
    def test_exp_2_9_records_moves_not_terms(self):
        # 2^9 on Church numerals: lo fires 16360 times on terms hundreds of
        # nodes deep, and a whole term recorded per fire peaked near 300 MB
        def numeral(n):
            return r"(\f x. " + "f (" * n + "x" + ")" * n + ")"

        t = compile_term(parse(rf"(\m n. n m) {numeral(2)} {numeral(9)} s z"))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tr = normalize(t, FULL, max_steps=100_000)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert (tr.nsteps, tr.status) == (16360, NORMAL_FORM)
        assert peak < 150 * 2**20
        assert format_term(tr.final) == "s (" * 511 + "s z" + ")" * 511
        steps = tr.steps
        assert len(steps) == 16360 and steps[-1].result == tr.final


class TestAncestorReenabling:
    def test_projection_after_inner_step(self):
        # the root becomes a redex only after the inner I unwraps the pair
        t = parse("q (I (D a b))")
        tr = normalize(t, FULL)
        assert tr.final == Var("b")
        assert [s.rule for s in tr.steps] == ["I", "q"]
        fast, n, status = normalize_fast(t, FULL)
        assert (fast, n, status) == (Var("b"), 2, NORMAL_FORM)

    def test_deeply_nested_reenabling(self):
        t = parse("p (I (I (I (D a b))))")
        fast, n, status = normalize_fast(t, FULL)
        assert (fast, status) == (Var("a"), NORMAL_FORM)
        assert n == 4


def _steps(tr):
    return [(s.rule, s.pos, s.dir, s.result) for s in tr.steps]


class TestMachineAgreesWithReference:
    """normalize records the machine's fires; they must be the spec's
    steps, one for one, with the same stop."""

    def _agree(self, t, rules, **kw):
        ref = spec_normalize(t, rules, **kw)
        tr = normalize(t, rules, **kw)
        # what a caller reads without the steps comes first
        assert (tr.initial, tr.nsteps, tr.status, tr.final) == (
            t, ref.nsteps, ref.status, ref.final)
        assert tr.to_json() == ref.to_json()
        assert _steps(tr) == _steps(ref)
        fast = normalize_fast(t, rules, **kw)
        assert fast == (ref.final, ref.nsteps, ref.status)

    @settings(max_examples=150, deadline=None)
    @given(cl_terms,
           st.sampled_from(("lo", "ri")),
           st.sampled_from((0, 1, 3, 300)),
           st.sampled_from((64, 1_000_000)))
    def test_same_final_steps_status(self, t, strategy, max_steps, max_size):
        self._agree(t, FULL, max_steps=max_steps, strategy=strategy,
                    max_size=max_size)

    @settings(max_examples=80, deadline=None)
    @given(cl_terms,
           st.sampled_from(("lo", "ri")),
           st.sampled_from((0, 1, 3, 300)),
           st.sampled_from((64, 1_000_000)))
    def test_base_rules_only(self, t, strategy, max_steps, max_size):
        self._agree(t, CL_BASE, max_steps=max_steps, strategy=strategy,
                    max_size=max_size)

    @pytest.mark.parametrize("rules", [FULL, CL_BASE], ids=["FULL", "CL_BASE"])
    @pytest.mark.parametrize("strategy", ["lo", "ri"])
    @pytest.mark.parametrize("max_steps", [0, 1, 3, 300])
    def test_size_guard_stop(self, rules, strategy, max_steps):
        # grows without end; within 300 steps the size guard stops it, and
        # the step that outgrew max_size is the last one recorded
        t = parse("S I I (S I (S I I))")
        kw = dict(max_steps=max_steps, strategy=strategy, max_size=64)
        self._agree(t, rules, **kw)
        tr = normalize(t, rules, **kw)
        assert tr.status == BUDGET_EXHAUSTED
        if max_steps == 300:
            assert tr.nsteps < 300 and term_size(tr.final) > 64
            assert tr.steps[-1].result == tr.final

    def test_positions_of_nested_fires(self):
        # K (I (I a)) (I b): lo fires K at the root, ri works inside first
        t = parse("K (I (I a)) (I b)")
        for strategy in ("lo", "ri"):
            self._agree(t, CL_BASE, strategy=strategy)
        ri = normalize(t, CL_BASE, strategy="ri")
        assert [s.pos for s in ri.steps] == [
            ("arg",), ("fun", "arg", "arg"), ("fun", "arg"), ()]


# Leaves of redex-rich terms: every head of FULL, a few variables, and
# lambdas, which weak reduction treats as values.
_LEAVES = ([Atom(r.head) for r in FULL] + [Var(v) for v in "abf"]
           + [parse(src) for src in (r"\x. x", r"\x y. I x", r"\f. f a")])


def _redex_rich(rng: random.Random, leaves: int):
    """About `leaves` leaves, mostly in spines of a rule's head and one
    argument fewer, as many as, or one more than the rule takes."""
    if leaves <= 1 or rng.random() < 0.2:
        return rng.choice(_LEAVES)
    rule = rng.choice(FULL.rules)
    n = max(1, rule.arity + rng.randint(-1, 1))
    return app(Atom(rule.head),
               *[_redex_rich(rng, (leaves - 1) // n) for _ in range(n)])


class TestStepTexts:
    """Trace.step_texts prints each step from the moves alone; every text
    must be what format_term prints of the step's whole term."""

    @staticmethod
    def _whole(tr):
        return [(s.rule, pos_to_str(s.pos), format_term(s.result))
                for s in tr.steps]

    @pytest.mark.parametrize("src, strategy, texts", [
        pytest.param(r"K (\x. x) a b", "lo", [r"(\x.x) b"],
                     id="lam-under-fun"),
        pytest.param(r"f (K (\x. x) a)", "lo", [r"f (\x.x)"],
                     id="lam-under-arg"),
        pytest.param("f (I a)", "ri", ["f a"], id="leaf-under-arg"),
        pytest.param("S K K (f a)", "lo", ["K (f a) (K (f a))", "f a"],
                     id="root"),
        pytest.param("K (I (f a)) (I b)", "ri",
                     ["K (I (f a)) b", "K (f a) b", "f a"], id="ri-inner"),
    ])
    def test_wrapping(self, src, strategy, texts):
        tr = normalize(parse(src), FULL, strategy=strategy)
        assert list(tr.step_texts()) == self._whole(tr)
        assert [text for _, _, text in tr.step_texts()] == texts

    @pytest.mark.parametrize("strategy", ["lo", "ri"])
    @pytest.mark.parametrize("max_steps", [0, 1, 3, 300])
    @pytest.mark.parametrize("max_size", [40, 1_000_000])
    def test_random_terms(self, strategy, max_steps, max_size):
        rng = random.Random(max_steps * 7 + max_size)
        size_stops = 0
        for _ in range(300):
            t = _redex_rich(rng, rng.randint(1, 20))
            kw = dict(max_steps=max_steps, strategy=strategy,
                      max_size=max_size)
            tr = normalize(t, FULL, **kw)
            assert list(tr.step_texts()) == self._whole(tr)
            assert tr.to_json() == spec_normalize(t, FULL, **kw).to_json()
            size_stops += tr.nsteps < max_steps and tr.status == BUDGET_EXHAUSTED
        if max_size == 40 and max_steps == 300:
            assert size_stops > 0


class TestPatternWindow:
    """A fire can make a redex exactly rules.window frames up; lo must zip
    up that far before it scans down again, and both machines must still
    fire the spec's steps."""

    P_BASE = CL_BASE.extend(parse_rule("p: p (D x y) => x"))

    @pytest.mark.parametrize("src, rules, window", [
        pytest.param("I Phi a b c d", FULL, 4, id="Phi"),
        pytest.param("I S a b c", CL_BASE, 3, id="S"),
        pytest.param("K (I Phi a b c d) x", FULL, 4, id="K-Phi"),
        pytest.param("p (I (D a b))", FULL, 4, id="p-arg"),
        # I D fires under ARG, FUN, FUN; the p redex is those 3 frames up
        pytest.param("p (I D a b)", P_BASE, 3, id="p-arg-window"),
    ])
    @pytest.mark.parametrize("strategy", ["lo", "ri"])
    def test_redex_window_frames_up(self, src, rules, window, strategy):
        assert rules.window == window
        t = parse(src)
        ref = spec_normalize(t, rules, strategy=strategy)
        tr = normalize(t, rules, strategy=strategy)
        assert _steps(tr) == _steps(ref)
        assert (tr.status, tr.final) == (ref.status, ref.final)
        # the last step is the root redex the deeper fire made
        assert (ref.status, ref.steps[-1].pos) == (NORMAL_FORM, ())
        assert normalize_fast(t, rules, strategy=strategy) == (
            ref.final, ref.nsteps, ref.status)


class TestStrategiesConverge:
    @settings(max_examples=100, deadline=None)
    @given(cl_terms)
    def test_lo_ri_same_normal_form(self, t):
        lo = normalize(t, FULL, max_steps=400)
        ri = normalize(t, FULL, max_steps=400, strategy="ri")
        if lo.status == NORMAL_FORM and ri.status == NORMAL_FORM:
            assert lo.final == ri.final
