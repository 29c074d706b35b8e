"""Equation catalogs: parsing, the three check modes, the built-in suite,
and the expanded (basis-only) rerun."""

import pytest

from clsh.checks import (
    CatalogError,
    EquationCheck,
    builtin_catalog,
    checks_and_rules,
    expand_check,
    load_catalog,
    run_check,
    run_checks,
)
from clsh.rewrite import CL_BASE, DEFAULT_MAX_SIZE, FULL
from clsh.syntax import parse

import spec_engines

GOOD = """
# two toy checks
check double-i
title two identities cancel
mode extensional 1
lhs I . I
rhs I

check pairs-commute-not
mode extensional 2
lhs D
rhs C D
expect distinct
"""


class TestLoadCatalog:
    def test_fields(self):
        checks = load_catalog(GOOD)
        assert [c.name for c in checks] == ["double-i", "pairs-commute-not"]
        first = checks[0]
        assert first.mode == "extensional"
        assert first.arity == 1
        assert first.title == "two identities cancel"
        assert first.lhs == parse("I . I")
        assert checks[1].expect == "distinct"

    def test_chain_and_lets(self):
        checks = load_catalog("""
        check demo
        mode chain
        hyp student: W x => x x
        let m = K I
        lhs W a
        rhs a a
        step student @ root -> a a
        """)
        c = checks[0]
        assert c.hypotheses[0].name == "student"
        assert c.bindings == (("m", parse("K I")),)
        assert c.script[0].pos == ()
        assert c.script[0].dir == "->"

    def test_expanded_directive(self):
        c = load_catalog("check e\nmode instance\nlhs x\nrhs x\n"
                         "expanded distinct\n")[0]
        assert c.expanded == "distinct"

    @pytest.mark.parametrize("bad, msg", [
        ("mode instance\nlhs x\nrhs x\n", "outside a check"),
        ("check a\nlhs x\nrhs x\n", "no mode"),
        ("check a\nmode instance\nlhs x\n", "lhs and rhs"),
        ("check a\nmode chain\nlhs x\nrhs x\n", "needs steps"),
        ("check a\nmode instance\nlhs x\nrhs x\nstep I @ root -> x\n",
         "only belong in chain"),
        ("check a\nmode waffle\nlhs x\nrhs x\n", "bad mode"),
        ("check a\nmode instance\nlhs x\nrhs x\nexpect maybe\n", "bad expect"),
        ("check a\nmode instance\nlhs x\nrhs x\nexpanded odd\n", "bad expanded"),
        ("check a\nmode instance\nlhs x\nrhs x\nfrobnicate y\n",
         "unknown directive"),
        ("check spaced name here\nmode instance\nlhs x\nrhs x\n", "bad check name"),
    ])
    def test_rejects(self, bad, msg):
        with pytest.raises(CatalogError) as e:
            load_catalog(bad)
        assert msg in str(e.value)

    def test_extensional_arity_is_bounded_by_the_size_guard(self):
        src = "check a\nmode extensional {}\nlhs K\nrhs K\n"
        assert load_catalog(src.format(DEFAULT_MAX_SIZE))[0].arity == DEFAULT_MAX_SIZE
        with pytest.raises(CatalogError, match="line 2: bad arity"):
            load_catalog(src.format(DEFAULT_MAX_SIZE + 1))

    def test_parse_error_carries_line(self):
        with pytest.raises(CatalogError) as e:
            load_catalog("check a\nmode instance\nlhs ((\nrhs x\n")
        assert "line 3" in str(e.value)


class TestModes:
    def test_extensional_pass(self):
        c = load_catalog("check ok\nmode extensional 3\nlhs S K\nrhs K I\n")[0]
        r = run_check(c, CL_BASE)
        assert r.ok
        assert "both sides reach" in r.detail

    def test_extensional_fail(self):
        c = load_catalog("check no\nmode extensional 2\nlhs K\nrhs S\n")[0]
        r = run_check(c, FULL)
        assert r.verdict == "fail"
        assert "normal forms differ" in r.detail

    def test_expected_distinct(self):
        c = load_catalog("check apart\nmode extensional 2\nlhs K\nrhs S\n"
                         "expect distinct\n")[0]
        r = run_check(c, FULL)
        assert r.ok
        assert "stay apart" in r.detail

    def test_unexpectedly_equal(self):
        c = load_catalog("check apart\nmode extensional 1\nlhs I\nrhs S K K\n"
                         "expect distinct\n")[0]
        r = run_check(c, FULL)
        assert r.verdict == "fail"
        assert "unexpectedly meet" in r.detail

    def test_instance_bindings(self):
        c = load_catalog("check inst\nmode instance\nlet z = D a b\n"
                         "lhs p z\nrhs a\n")[0]
        assert run_check(c, FULL).ok

    def test_budget_verdict(self):
        c = load_catalog("check slow\nmode extensional 0\n"
                         "lhs S I I (S I I)\nrhs K\n")[0]
        r = run_check(c, FULL, max_steps=40)
        assert r.verdict == "budget"
        assert "ran out of budget" in r.detail
        assert not r.ok

    def test_unknown_mode(self):
        c = EquationCheck("odd", "bogus", parse("a"), parse("a"))
        with pytest.raises(CatalogError, match="check odd: unknown mode 'bogus'"):
            run_check(c, FULL)

    def test_hypotheses_are_local(self):
        text = ("check hyp-used\nmode extensional 1\nhyp collapse: W x => I\n"
                "lhs W a\nrhs I\n")
        c = load_catalog(text)[0]
        assert run_check(c, FULL).ok
        # without the hypothesis the same equation fails
        bare = load_catalog(text.replace("hyp collapse: W x => I\n", ""))[0]
        assert run_check(bare, FULL).verdict == "fail"


class TestChains:
    def test_forward_and_backward(self):
        c = load_catalog("""
        check there-and-back
        mode chain
        lhs I (K a b)
        rhs I a
        step K @ arg -> I a
        step I @ root <- I (I a)
        step I @ arg -> I a
        """)[0]
        r = run_check(c, CL_BASE)
        assert r.ok
        assert r.detail == "3 steps replayed"

    def test_wrong_result_reported_with_step_index(self):
        c = load_catalog("""
        check broken
        mode chain
        lhs K a b
        rhs b
        step K @ root -> b
        """)[0]
        r = run_check(c, CL_BASE)
        assert r.verdict == "fail"
        assert r.detail.startswith("step 1:")
        assert "gives a" in r.detail

    def test_unknown_rule(self):
        c = load_catalog("check u\nmode chain\nlhs I a\nrhs a\n"
                         "step nosuch @ root -> a\n")[0]
        r = run_check(c, CL_BASE)
        assert "unknown rule" in r.detail

    def test_chain_must_end_at_rhs(self):
        c = load_catalog("check short\nmode chain\nlhs I (I a)\nrhs a\n"
                         "step I @ root -> I a\n")[0]
        r = run_check(c, CL_BASE)
        assert r.verdict == "fail"
        assert "ends at" in r.detail

    def test_rule_must_match_at_position(self):
        c = load_catalog("check m\nmode chain\nlhs K a\nrhs a\n"
                         "step K @ root -> a\n")[0]
        r = run_check(c, CL_BASE)
        assert "does not match" in r.detail


def _builtin_reports(expanded=False):
    """The reports `clsh check [--expanded]` prints."""
    return run_checks(*checks_and_rules(builtin_catalog(), expanded))


class TestBuiltinSuite:
    def test_all_pass(self):
        reports = _builtin_reports()
        assert len(reports) >= 12
        bad = [r for r in reports if not r.ok]
        assert bad == []

    def test_has_all_three_modes(self):
        modes = {c.mode for c in builtin_catalog()}
        assert modes == {"extensional", "instance", "chain"}

    def test_chains_record_steps(self):
        chains = [r for r in _builtin_reports()
                  if r.mode == "chain"]
        assert chains and all(r.steps for r in chains)

    def test_report_json(self):
        blob = _builtin_reports()[0].to_json()
        assert blob["verdict"] == "pass"
        assert set(blob) >= {"name", "mode", "verdict", "expect", "detail"}


class TestExpandedMode:
    def test_all_pass(self):
        reports = _builtin_reports(expanded=True)
        assert reports
        assert all(r.ok for r in reports)

    def test_hypothesis_checks_left_out(self):
        c = load_catalog("check h\nmode extensional 1\nhyp w: W x => x\n"
                         "lhs W a\nrhs a\n")[0]
        assert expand_check(c) is None

    def test_skip_directive(self):
        c = load_catalog("check s\nmode instance\nlhs x\nrhs x\n"
                         "expanded skip\n")[0]
        assert expand_check(c) is None

    def test_distinct_directive_flips_expectation(self):
        c = load_catalog("check d\nmode instance\nlhs p\nrhs q\n"
                         "expanded distinct\n")[0]
        assert expand_check(c).expect == "distinct"

    def test_chain_becomes_joinability(self):
        chain = next(c for c in builtin_catalog() if c.mode == "chain"
                     and not c.hypotheses)
        e = expand_check(chain)
        assert e.mode == "extensional"
        assert e.arity == 0
        assert e.script == ()

    def test_unfolded_pair_projections_stay_apart(self):
        c = next(c for c in builtin_catalog()
                 if c.name == "pair-projections-identity")
        assert c.expanded == "distinct"
        r = run_check(expand_check(c), CL_BASE)
        assert r.ok
        assert "stay apart" in r.detail


def test_run_checks_order_preserved():
    checks = load_catalog(GOOD)
    reports = run_checks(checks, FULL)
    assert [r.name for r in reports] == [c.name for c in checks]


@pytest.mark.parametrize("expanded, count", [(False, 20), (True, 12)])
def test_reports_match_the_spec_engine(monkeypatch, expanded, count):
    """Every built-in check gives the same report, traces included, whether
    its sides normalize on the machines or on the rescanning spec."""
    checks, rules = checks_and_rules(builtin_catalog(), expanded)
    assert len(checks) == count
    machine = run_checks(checks, rules)
    monkeypatch.setattr("clsh.checks.normalize", spec_engines.normalize)
    assert run_checks(checks, rules) == machine
