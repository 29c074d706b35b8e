"""Normal order beta reduction: the rescanning spec's steps and
normalization, and the spine machine's agreement with the spec."""

from hypothesis import given, settings
from hypothesis import strategies as st

from clsh.lam import beta_normalize_fast
from clsh.rewrite import BUDGET_EXHAUSTED, NORMAL_FORM
from clsh.syntax import format_term, parse
from clsh.terms import App, Lam, Var, alpha_eq

from conftest import closed_lambdas, lam_terms
from spec_engines import beta_normalize, beta_step


class TestBetaStep:
    def test_root_redex(self):
        pos, res = beta_step(parse(r"(\x. x) y"))
        assert pos == ()
        assert res == Var("y")

    def test_outermost_wins(self):
        # the root redex fires even though the argument holds another one
        pos, _ = beta_step(parse(r"(\x. x x) ((\y. y) z)"))
        assert pos == ()

    def test_reduces_under_binder(self):
        pos, res = beta_step(parse(r"\x. (\y. y) x"))
        assert pos == ("body",)
        assert res == parse(r"\x. x")

    def test_stuck_head_arguments_still_reduce(self):
        pos, res = beta_step(parse(r"f ((\y. y) a)"))
        assert pos == ("arg",)
        assert res == parse("f a")

    def test_none_on_normal_form(self):
        assert beta_step(parse(r"\x. x y")) is None
        assert beta_step(parse("K x")) is None  # atoms are inert here

    def test_capture_avoiding(self):
        got = beta_step(parse(r"(\x. \y. x) y"))[1]
        assert alpha_eq(got, parse(r"\z. y"))
        assert not alpha_eq(got, parse(r"\y. y"))


class TestBetaNormalize:
    def test_two_argument_selector(self):
        tr = beta_normalize(parse(r"(\x. \y. x) a b"))
        assert tr.final == Var("a")
        assert tr.status == NORMAL_FORM
        assert [s.rule for s in tr.steps] == ["beta", "beta"]

    def test_left_to_right_spine(self):
        tr = beta_normalize(parse(r"((\x. x) f) ((\y. y) a)"))
        assert tr.final == parse("f a")
        assert [s.pos for s in tr.steps] == [("fun",), ("arg",)]

    def test_omega_exhausts_budget(self):
        omega = parse(r"(\x. x x) (\x. x x)")
        tr = beta_normalize(omega, max_steps=50)
        assert tr.status == BUDGET_EXHAUSTED
        assert tr.nsteps == 50
        assert alpha_eq(tr.final, omega)  # Omega reproduces itself

    def test_size_guard(self):
        from clsh.terms import term_size
        grower = parse(r"(\x. x x x) (\x. x x x)")
        tr = beta_normalize(grower, max_steps=10_000, max_size=5_000)
        assert tr.status == BUDGET_EXHAUSTED
        assert tr.nsteps < 10_000       # the size cap fired, not the step cap
        assert term_size(tr.final) > 5_000

    def test_normal_order_skips_divergent_argument(self):
        # K-style discard: the unused divergent argument is never evaluated
        t = parse(r"(\x. \y. x) a ((\x. x x) (\x. x x))")
        tr = beta_normalize(t, max_steps=100)
        assert tr.status == NORMAL_FORM
        assert tr.final == Var("a")


class TestMachineAgreesWithReference:
    @settings(max_examples=120, deadline=None)
    @given(lam_terms, st.sampled_from((0, 1, 3, 200)),
           st.sampled_from((64, 20_000)))
    def test_same_final_steps_status(self, t, max_steps, max_size):
        ref = beta_normalize(t, max_steps=max_steps, max_size=max_size)
        fast, n, status = beta_normalize_fast(t, max_steps=max_steps,
                                              max_size=max_size)
        assert status == ref.status
        assert n == ref.nsteps
        assert fast == ref.final

    @settings(max_examples=100, deadline=None)
    @given(closed_lambdas())
    def test_closed_terms(self, t):
        ref = beta_normalize(t, max_steps=300, max_size=20_000)
        fast, n, status = beta_normalize_fast(t, max_steps=300, max_size=20_000)
        assert (fast, n, status) == (ref.final, ref.nsteps, ref.status)
        if status == NORMAL_FORM:
            # a closed beta normal form is always an abstraction
            assert isinstance(fast, Lam)


class TestDeepTerms:
    """The machine keeps its place on a stack of frames, so 10^4 nested
    redexes, bare or under as many binders, reduce without recursion; a
    budget stop rebuilds the whole term around the focus."""

    N = 10_000
    ID = Lam("y", Var("y"))

    def _nested(self, wrap):
        t = Var("z")
        for _ in range(self.N):
            t = wrap(t)
        return t

    def test_nested_redexes(self):
        t = self._nested(lambda t: App(self.ID, t))
        assert beta_normalize_fast(t, max_steps=self.N) == (
            Var("z"), self.N, NORMAL_FORM)
        final, n, status = beta_normalize_fast(t, max_steps=3)
        assert (n, status) == (3, BUDGET_EXHAUSTED)
        m = self.N - 3  # redexes left
        assert format_term(final) == (
            "(\\y.y) (" * (m - 1) + "(\\y.y) z" + ")" * (m - 1))

    def test_redexes_under_binders(self):
        t = self._nested(lambda t: Lam("w", App(self.ID, t)))
        final, n, status = beta_normalize_fast(t, max_steps=self.N)
        assert (n, status) == (self.N, NORMAL_FORM)
        assert format_term(final) == "\\" + " ".join(["w"] * self.N) + ".z"
        final, n, status = beta_normalize_fast(t, max_steps=3)
        assert (n, status) == (3, BUDGET_EXHAUSTED)
        m = self.N - 3
        assert format_term(final) == (
            "\\w w w w.(\\y.y) " + "(\\w.(\\y.y) " * (m - 1) + "z"
            + ")" * (m - 1))
