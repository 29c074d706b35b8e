"""Command line behavior: output shapes and exit codes."""

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import clsh
from clsh.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    main,
    sexpr,
)
from clsh.rewrite import FULL, normalize
from clsh.syntax import parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSexpr:
    def test_shapes(self):
        assert sexpr(parse("K x")) == "(app (atom K) (var x))"
        assert sexpr(parse(r"\x. x")) == "(lam x (var x))"


class TestParseCommand:
    def test_tree(self, capsys):
        code, out, _ = run(capsys, "parse", "S K K")
        assert code == EXIT_OK
        assert out.strip() == "(app (app (atom S) (atom K)) (atom K))"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "parse", "--json", "K x")
        assert code == EXIT_OK
        assert json.loads(out) == {"app": [{"atom": "K"}, {"var": "x"}]}

    def test_sugar_expands(self, capsys):
        _, out, _ = run(capsys, "parse", "[a, b]")
        assert out.strip() == "(app (app (atom D) (var a)) (var b))"

    def test_no_sugar_rejects(self, capsys):
        code, _, err = run(capsys, "parse", "--no-sugar", "[a, b]")
        assert code == EXIT_USAGE
        assert err.startswith("clsh:")

    def test_syntax_error(self, capsys):
        code, _, err = run(capsys, "parse", "K (")
        assert code == EXIT_USAGE
        assert "line 1" in err

    def test_usage_error(self, capsys):
        assert run(capsys, "parse")[0] == EXIT_USAGE
        assert run(capsys, "frobnicate", "x")[0] == EXIT_USAGE

    def test_deep_spine(self, capsys):
        # f applied to 10^5 arguments: the tree is 10^5 deep
        n = 100_000
        src = "f" + " x" * n
        code, out, _ = run(capsys, "parse", src)
        assert code == EXIT_OK
        assert out == "(app " * n + "(var f)" + " (var x))" * n + "\n"
        code, out, _ = run(capsys, "parse", "--json", src)
        assert code == EXIT_OK
        assert out == ('{"app": [' * n + '{"var": "f"}'
                       + ', {"var": "x"}]}' * n + "\n")


    @pytest.mark.parametrize("cmd", ["parse", "reduce"])
    def test_deep_nesting_reads_back(self, capsys, cmd):
        n = 10_000
        code, out, err = run(capsys, cmd, "(" * n + "x" + ")" * n)
        assert code == EXIT_OK
        assert out == ("(var x)\n" if cmd == "parse" else "x\n")
        assert err == ""

    def test_reads_back_reduce_output(self, capsys):
        # exp 2 8 normalizes to s applied 256 times, 255 parentheses deep
        two = r"(\f x. f (f x))"
        eight = r"(\f x. " + "f (" * 7 + "f x" + ")" * 7 + ")"
        code, nf, _ = run(capsys, "reduce", rf"(\m n. n m) {two} {eight} s z")
        assert (code, nf) == (EXIT_OK, "s (" * 255 + "s z" + ")" * 255 + "\n")
        code, out, err = run(capsys, "parse", nf)
        assert (code, err) == (EXIT_OK, "")
        assert out == "(app (var s) " * 256 + "(var z)" + ")" * 256 + "\n"


class TestCompileCommand:
    def test_known_disassembly(self, capsys):
        code, out, _ = run(capsys, "compile", r"\x y. x")
        assert code == EXIT_OK
        assert out.strip() == "S (K K) I"

    def test_eta_flag(self, capsys):
        assert run(capsys, "compile", r"\x. f x")[1].strip() == "S (K f) I"
        assert run(capsys, "compile", "--eta", r"\x. f x")[1].strip() == "f"

    @pytest.mark.parametrize("cmd, n", [
        ("compile", 10_000),
        ("compile", 100_000),
        ("reduce", 10_000),
        pytest.param("reduce --strategy ri", 10_000, id="reduce-ri-10000"),
    ])
    def test_deep_spine(self, capsys, cmd, n):
        # f applied to n arguments, bare and under a binder that none of
        # them mentions; both results are already in normal form (reduce
        # stays at 10^4 to keep the suite fast: it adds the machine's walk)
        src = "f" + " x" * n
        assert run(capsys, *cmd.split(), src) == (EXIT_OK, src + "\n", "")
        want = "S (" * n + "K f" + ") (K x)" * n + "\n"
        assert run(capsys, *cmd.split(), "\\y. " + src) == (EXIT_OK, want, "")

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_eta_deep_spine(self, capsys, n):
        # \y. f x … x y is an eta redex whose body is n + 1 deep
        src = "f" + " x" * n
        assert run(capsys, "compile", "--eta", f"\\y. {src} y") == (
            EXIT_OK, src + "\n", "")

    @pytest.mark.parametrize("n, size", [(6, 1210), (8, 10930)])
    def test_nested_binders(self, capsys, n, size):
        code, out, err = run(capsys, "compile", _binders(n))
        assert (code, len(out.encode()), err) == (EXIT_OK, size, "")

    def test_sibling_abstractions_share_the_size_guard(self, capsys):
        # each copy compiles to about 531k nodes, under the guard alone;
        # the four side by side would build about 2.1M
        src = " ".join(f"({_binders(12)})" for _ in range(4))
        assert len(src) == 179
        assert run(capsys, "compile", src) == (
            EXIT_BUDGET, "", "size budget exhausted (1000000 nodes)\n")

    @pytest.mark.parametrize("cmd, n", [
        ("compile", 20), ("compile", 5000), ("reduce", 20),
    ])
    def test_nested_binders_stop_at_the_size_guard(self, cmd, n):
        # each binder triples the output: the 13th would build 3^13 nodes,
        # over the 10^6-node guard.  Run apart, in an address space capped
        # at 1 GiB, so a compiler without the guard fails instead of
        # exhausting memory.
        out = subprocess.run(
            [sys.executable, "-c", _GUARDED_RUN, cmd, _binders(n)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": _SRC})
        assert out.stderr == "size budget exhausted (1000000 nodes)\n"
        code, seconds, peak = out.stdout.split()
        assert int(code) == EXIT_BUDGET
        assert float(seconds) < 60 and int(peak) < 256 * 2**20


_SRC = os.path.dirname(os.path.dirname(clsh.__file__))

# argv: the clsh command and its term; prints the exit code, the seconds
# main took and the tracemalloc peak in bytes
_GUARDED_RUN = """
import resource, sys, time, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from clsh.cli import main
tracemalloc.start()
start = time.perf_counter()
code = main(sys.argv[1:])
print(code, time.perf_counter() - start, tracemalloc.get_traced_memory()[1])
"""


def _check_doubling_lets(tmp_path, k, *flags):
    """clsh check on a catalog whose k lets each double both sides (x0
    stands for 2^k copies of xk), run apart under a time bound, so a check
    without the size guard times out instead of exhausting memory."""
    lets = "".join(f"let x{i} = x{i + 1} x{i + 1}\n" for i in range(k))
    f = tmp_path / "lets.eqs"
    f.write_text(f"check let-doubling\nmode instance\n{lets}"
                 "lhs K x0 a\nrhs x0\n")
    return subprocess.run(
        [sys.executable, "-m", "clsh.cli", "check", "--catalog", str(f),
         *flags],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": _SRC})


def _binders(n):
    """\\x0 x1 … x(n-1). x0"""
    return "\\" + " ".join(f"x{i}" for i in range(n)) + ". x0"


class TestReduceCommand:
    def test_normal_form_only(self, capsys):
        code, out, _ = run(capsys, "reduce", "S K K x")
        assert code == EXIT_OK
        assert out.strip() == "x"

    def test_lambdas_are_compiled_first(self, capsys):
        code, out, _ = run(capsys, "reduce", r"(\x y. x) a b")
        assert code == EXIT_OK
        assert out.strip() == "a"

    def test_trace_lists_every_step(self, capsys):
        code, out, _ = run(capsys, "reduce", "--trace", "K (I a) b")
        lines = out.strip().splitlines()
        assert code == EXIT_OK
        assert lines[0] == "K (I a) b"
        assert lines[-1] == "a"
        assert any("K @ root" in line for line in lines)

    def test_json_trace(self, capsys):
        code, out, _ = run(capsys, "reduce", "--json", "I x")
        blob = json.loads(out)
        assert code == EXIT_OK
        assert blob["status"] == "normal_form"
        assert blob["final"] == "x"
        assert len(blob["steps"]) == 1

    def test_base_rules_leave_derived_atoms(self, capsys):
        _, out, _ = run(capsys, "reduce", "--rules", "base", "B a b c")
        assert out.strip() == "B a b c"
        _, out, _ = run(capsys, "reduce", "B a b c")
        assert out.strip() == "a (b c)"

    def test_rules_from_file(self, capsys, tmp_path):
        f = tmp_path / "toy.rules"
        f.write_text("swap: W x y => y x\n")
        _, out, _ = run(capsys, "reduce", "--rules", str(f), "W a b")
        assert out.strip() == "b a"

    def test_rule_with_thousands_of_arguments(self, capsys, tmp_path):
        # F takes 10^4 arguments and G gets them back reversed, with x0
        # duplicated and x1 erased; the matcher is generated as flat code
        n = 10_000
        xs = [f"x{i}" for i in range(n)]
        f = tmp_path / "wide.rules"
        f.write_text(f"rev: F {' '.join(xs)} => G x0 {' '.join(xs[:1:-1])} x0\n")
        args = [f"a{i}" for i in range(n)]
        want = f"G a0 {' '.join(args[:1:-1])} a0\n"
        assert run(capsys, "reduce", "--rules", str(f),
                   "F " + " ".join(args)) == (EXIT_OK, want, "")
        # too few arguments: F is not a redex
        assert run(capsys, "reduce", "--rules", str(f), "F b") == (
            EXIT_OK, "F b\n", "")

    def test_missing_rules_file(self, capsys):
        code, _, err = run(capsys, "reduce", "--rules", "/nonexistent", "x")
        assert code == EXIT_USAGE
        assert err.startswith("clsh:")

    def test_budget_exit(self, capsys):
        code, out, err = run(capsys, "reduce", "--max-steps", "5",
                             "S I I (S I I)")
        assert code == EXIT_BUDGET
        assert "budget exhausted" in err
        assert out.strip()  # the partial result is still printed

    @pytest.mark.parametrize("flags", [[], ["--trace"], ["--json"]])
    def test_budget_names_the_step_limit(self, capsys, flags):
        code, _, err = run(capsys, "reduce", *flags, "--max-steps", "5",
                           "S I I (S I I)")
        assert code == EXIT_BUDGET
        assert err == "step budget exhausted (5)\n"

    @pytest.mark.parametrize("flags", [[], ["--trace"], ["--json"]])
    def test_budget_names_the_size_limit(self, capsys, tmp_path, flags):
        # W doubles its argument each step: the term passes the 10^6-node
        # size guard after about 20 steps, far inside the step budget
        f = tmp_path / "dup.rules"
        f.write_text("W: W a => W (a a)\n")
        code, out, err = run(capsys, "reduce", "--rules", str(f), *flags,
                             "--max-steps", "1000", "W a")
        assert code == EXIT_BUDGET
        assert err == "size budget exhausted (1000000 nodes)\n"
        if flags == ["--json"]:
            assert json.loads(out)["status"] == "budget_exhausted"
            assert len(json.loads(out)["steps"]) < 1000

    @pytest.mark.parametrize("max_steps, err", [
        (18, "step budget exhausted (18)\n"),
        (19, "size budget exhausted (1000000 nodes)\n"),
    ])
    def test_budget_at_the_last_step(self, capsys, tmp_path, max_steps, err):
        # W copies its argument: under ri the 19th step takes the term from
        # 524,291 to 1,048,577 nodes, so at 19 the step budget runs out at
        # the step that passes the size guard, and the guard is named
        f = tmp_path / "copy.rules"
        f.write_text("W: W x => x x\n")
        code, _, got = run(capsys, "reduce", "--rules", str(f), "--strategy",
                           "ri", "--max-steps", str(max_steps),
                           "W (" * 20 + "a" + ")" * 20)
        assert (code, got) == (EXIT_BUDGET, err)

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["plain", "json"])
    def test_no_step_over_the_guard(self, capsys, flags):
        # a term read over the size guard, at a budget of no steps: the
        # budget stopped it, as no step fired to pass the guard
        src = "I (f" + " a" * 500_000 + ")"
        code, _, got = run(capsys, "reduce", *flags, "--max-steps", "0", src)
        assert (code, got) == (EXIT_BUDGET, "step budget exhausted (0)\n")

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("CLSH_MAX_STEPS", "5")
        code, _, _ = run(capsys, "reduce", "S I I (S I I)")
        assert code == EXIT_BUDGET

    def test_zero_budget_is_valid(self, capsys):
        code, out, _ = run(capsys, "reduce", "--max-steps", "0", "K a b")
        assert code == EXIT_BUDGET
        assert out.strip() == "K a b"

    @pytest.mark.parametrize("cmd", [["reduce", "K a b"], ["check"]])
    @pytest.mark.parametrize("value", ["-5", "x", "1.5", ""])
    def test_bad_max_steps_is_usage_error(self, capsys, cmd, value):
        code, out, err = run(capsys, *cmd, "--max-steps", value)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--max-steps" in err

    @pytest.mark.parametrize("cmd", [["reduce", "K a b"], ["check"]])
    @pytest.mark.parametrize("value", ["-5", "abc", "1e3", " "])
    def test_bad_env_budget_is_usage_error(self, capsys, monkeypatch, cmd,
                                           value):
        monkeypatch.setenv("CLSH_MAX_STEPS", value)
        code, out, err = run(capsys, *cmd)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("clsh: CLSH_MAX_STEPS")

    def test_strategy_flag(self, capsys):
        code, out, _ = run(capsys, "reduce", "--strategy", "ri", "K a (I b)")
        assert code == EXIT_OK
        assert out.strip() == "a"


def _numeral(n):
    return r"(\f x. " + "f (" * n + "x" + ")" * n + ")"


class TestLongTraces:
    """`clsh reduce --trace`/`--json` of mul 20 20 (5908 lo steps, 1158 ri
    steps), pinned by length and sha256 to what printing each step's whole
    term gave."""

    MUL_20_20 = rf"(\m n f. m (n f)) {_numeral(20)} {_numeral(20)} s z"

    @pytest.mark.parametrize("strategy, flag, size, digest", [
        ("lo", "--trace", 33_457_982,
         "632c50862eb5deae75ffc5269c0ef05537fb21446c2d9d56e7b749acf9e89d15"),
        ("lo", "--json", 33_658_917,
         "51f8b6d95c98ed2b51e5b9b76891448102d72cc39405b73621d8bc5ca2336908"),
        ("ri", "--trace", 9_754_894,
         "a084140959a59d4bd22638ac12ff2a0212efe6fece98c2b40a379a68ac4e55a7"),
        ("ri", "--json", 9_794_329,
         "a8a8514767820abc93e5b8628be3fb24b50a25d849d6a3bcb751dc18614fd94b"),
    ], ids=["lo-trace", "lo-json", "ri-trace", "ri-json"])
    def test_mul_20_20(self, capsys, strategy, flag, size, digest):
        start = time.perf_counter()
        code = main(["reduce", flag, "--strategy", strategy, self.MUL_20_20])
        seconds = time.perf_counter() - start
        out = capsys.readouterr().out.encode()
        assert code == EXIT_OK
        assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)
        assert seconds < 20


class TestJsonStreams:
    """`reduce --json` writes each step as it prints it, as `--trace` does,
    so it holds no more than `--trace`."""

    @staticmethod
    def _peak(argv):
        """The tracemalloc peak of main(argv), output discarded, after a
        first run that compiles the rules and fills the caches."""
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            main(argv)
            tracemalloc.start()
            try:
                main(argv)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    @pytest.mark.parametrize("strategy", ["lo", "ri"])
    def test_json_peak_near_trace(self, strategy):
        # mul 1 1, the smallest product: building the whole document first
        # peaked at 2.2 (lo) and 2.0 (ri) times --trace; S K K x and
        # S I I (K a b) stay under 1.2 either way
        src = rf"(\m n f. m (n f)) {_numeral(1)} {_numeral(1)} s z"
        text, blob = (self._peak(["reduce", flag, "--strategy", strategy, src])
                      for flag in ("--trace", "--json"))
        assert blob <= 1.2 * text


class TestCheckCommand:
    def test_builtin_suite(self, capsys):
        code, out, _ = run(capsys, "check")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[-1].endswith("checks passed")
        assert all(line.startswith("PASS") for line in lines[:-1])

    def test_expanded(self, capsys):
        code, out, _ = run(capsys, "check", "--expanded")
        assert code == EXIT_OK
        assert "checks passed" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "check", "--json")
        blob = json.loads(out)
        assert code == EXIT_OK
        assert blob["ok"] is True
        assert len(blob["checks"]) >= 12

    def test_json_step_counts(self, capsys, tmp_path):
        f = tmp_path / "modes.eqs"
        f.write_text("check ext\nmode extensional 1\nlhs S K K\nrhs I\n\n"
                     "check inst\nmode instance\nlet z = D u v\n"
                     "lhs p z\nrhs u\n\n"
                     "check chain\nmode chain\nlhs I x\nrhs x\n"
                     "step I @ root -> x\n")
        code, out, _ = run(capsys, "check", "--json", "--catalog", str(f))
        assert code == EXIT_OK
        ext, inst, chain = json.loads(out)["checks"]
        sides = {"ext": ("S K K v0", "I v0"), "inst": ("p (D u v)", "u")}
        for blob, want in ((ext, (2, 1)), (inst, (1, 0))):
            lhs, rhs = sides[blob["name"]]
            got = (blob["lhs_steps"], blob["rhs_steps"])
            assert got == (normalize(parse(lhs), FULL).nsteps,
                           normalize(parse(rhs), FULL).nsteps) == want
        assert "lhs_steps" not in chain and "rhs_steps" not in chain
        assert [s["rule"] for s in chain["steps"]] == ["I"]

    def test_failing_catalog(self, capsys, tmp_path):
        f = tmp_path / "bad.eqs"
        f.write_text("check k-is-s\nmode extensional 2\nlhs K\nrhs S\n")
        code, out, _ = run(capsys, "check", "--catalog", str(f))
        assert code == EXIT_CHECK_FAILED
        assert "FAIL" in out
        assert "0/1 checks passed" in out

    def test_budget_exit_code(self, capsys, tmp_path):
        f = tmp_path / "slow.eqs"
        f.write_text("check slow\nmode extensional 0\n"
                     "lhs S I I (S I I)\nrhs K\n")
        code, out, _ = run(capsys, "check", "--catalog", str(f),
                           "--max-steps", "20")
        assert code == EXIT_BUDGET
        assert "BUDGET" in out

    @pytest.mark.parametrize("k, code", [(14, EXIT_OK), (40, EXIT_BUDGET)])
    def test_doubling_lets_stop_at_the_size_guard(self, tmp_path, k, code):
        out = _check_doubling_lets(tmp_path, k)
        assert out.returncode == code
        if code == EXIT_BUDGET:
            assert out.stdout.splitlines()[0] == (
                "BUDGET let-doubling: let x18 would take a side to 1048579 "
                "nodes, over the size guard of 1000000")

    def test_doubling_lets_json(self, tmp_path):
        out = _check_doubling_lets(tmp_path, 40, "--json")
        assert out.returncode == EXIT_BUDGET
        [blob] = json.loads(out.stdout)["checks"]
        assert blob["verdict"] == "budget"
        assert "lhs_steps" not in blob and "lhs_nf" not in blob

    def test_fail_beats_budget(self, capsys, tmp_path):
        f = tmp_path / "mixed.eqs"
        f.write_text(
            "check slow\nmode extensional 0\nlhs S I I (S I I)\nrhs K\n\n"
            "check wrong\nmode extensional 2\nlhs K\nrhs S\n")
        code = run(capsys, "check", "--catalog", str(f), "--max-steps", "20")[0]
        assert code == EXIT_CHECK_FAILED

    def test_malformed_catalog(self, capsys, tmp_path):
        f = tmp_path / "junk.eqs"
        f.write_text("frobnicate\n")
        code, _, err = run(capsys, "check", "--catalog", str(f))
        assert code == EXIT_USAGE
        assert err.startswith("clsh:")

    @pytest.mark.parametrize("text, lineno, msg", [
        ("check a b\n", 1, "bad check name"),
        ("lhs K\n", 1, "'lhs' outside a check block"),
        ("check a\nmode bogus\n", 2, "bad mode"),
        ("check a\nmode instance\nlet x\n", 3, "expected 'let var = TERM'"),
        ("check a\nmode chain\nstep S\n", 3, "expected 'step RULE @ POS"),
        ("check a\nmode instance\n\nexpect maybe\n", 4, "bad expect"),
        ("check a\nmode instance\nexpanded odd\n", 3, "bad expanded"),
        ("check a\n# note\nfrobnicate\n", 3, "unknown directive"),
        ("check a\nmode instance\nhyp r K x\n", 3, "expected 'name: LHS"),
    ])
    def test_catalog_errors_name_their_line(self, capsys, tmp_path, text,
                                            lineno, msg):
        f = tmp_path / "bad.eqs"
        f.write_text(text)
        code, out, err = run(capsys, "check", "--catalog", str(f))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"clsh: line {lineno}: {msg}")
        assert err.count("line") == 1

    def test_unfinished_check_names_one_line(self, capsys, tmp_path):
        f = tmp_path / "bad.eqs"
        f.write_text("check a\nlhs K\ncheck b\n")
        code, _, err = run(capsys, "check", "--catalog", str(f))
        assert code == EXIT_USAGE
        assert err == "clsh: check a: no mode (line 3)\n"

    # -1 is no count; 99999999999 fresh variables would exhaust memory
    @pytest.mark.parametrize("arity", ["-1", "99999999999"])
    def test_bad_extensional_arity(self, capsys, tmp_path, arity):
        f = tmp_path / "arity.eqs"
        f.write_text(f"check a\nmode extensional {arity}\nlhs K\nrhs I\n")
        code, out, err = run(capsys, "check", "--catalog", str(f))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("clsh: line 2: bad arity")
