"""Command line front end.

    clsh parse TERM        show the tree of a term
    clsh compile TERM      eliminate lambdas into I/K/S
    clsh reduce TERM       compile, then normalize under a rule catalog
    clsh check             run an equation catalog

Exit codes: 0 success, 1 a check failed, 2 bad input or usage, 3 the step
budget or the term size guard ran out (compile checks the guard too).
CLSH_MAX_STEPS overrides the default budget; it and --max-steps must be
non-negative integers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .checks import (CatalogError, builtin_catalog, checks_and_rules,
                     load_catalog, run_checks)
from .disassemble import NoDefinitionError, TermTooLargeError, compile_term
from .rewrite import (
    BUDGET_EXHAUSTED,
    CL_BASE,
    DEFAULT_MAX_SIZE,
    DEFAULT_MAX_STEPS,
    FULL,
    IllFormedRuleError,
    RuleSet,
    normalize,
    normalize_fast,
    parse_rules,
)
from .syntax import (SyntaxConfig, TermSyntaxError, format_term, json_text,
                     parse, sexpr)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="clsh",
        description="a small equational shell for combinatory logic")
    sub = top.add_subparsers(dest="cmd", required=True)

    def add_term_opts(p):
        p.add_argument("term", help="term to read")
        p.add_argument("--no-sugar", action="store_true",
                       help="disable pair, fork, quote and dot notation")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("parse", help="read a term and show its tree")
    add_term_opts(p)

    p = sub.add_parser("compile", help="eliminate lambdas into I/K/S")
    add_term_opts(p)
    p.add_argument("--eta", action="store_true",
                   help="contract \\x.M x to M while compiling")

    p = sub.add_parser("reduce", help="compile and normalize a term")
    add_term_opts(p)
    p.add_argument("--rules", action="append", metavar="base|full|FILE",
                   help="rule catalog; repeatable, default full")
    p.add_argument("--strategy", choices=("lo", "ri"), default="lo")
    p.add_argument("--max-steps")
    p.add_argument("--trace", action="store_true",
                   help="print every rewrite step")

    p = sub.add_parser("check", help="run an equation catalog")
    p.add_argument("--catalog", metavar="FILE",
                   help="run this catalog file instead of the built-in one")
    p.add_argument("--expanded", action="store_true",
                   help="unfold derived atoms and run on the base rules only")
    p.add_argument("--max-steps")
    p.add_argument("--json", action="store_true", help="emit JSON")
    return top


def _default_steps(args) -> int:
    name, text = "--max-steps", args.max_steps
    if text is None:
        name = "CLSH_MAX_STEPS"
        text = os.environ.get(name, str(DEFAULT_MAX_STEPS))
    if not text.strip().isdecimal():
        raise ValueError(f"{name} must be a non-negative integer, got {text!r}")
    return int(text)


def _collect_rules(specs) -> RuleSet:
    if not specs:
        return FULL
    rules = []
    for spec in specs:
        if spec == "base":
            rules.extend(CL_BASE.rules)
        elif spec == "full":
            rules.extend(FULL.rules)
        else:
            rules.extend(parse_rules(Path(spec).read_text()))
    return RuleSet(tuple(rules))


def _cmd_parse(args, cfg: SyntaxConfig) -> int:
    t = parse(args.term, cfg)
    print(json_text(t) if args.json else sexpr(t))
    return EXIT_OK


def _cmd_compile(args, cfg: SyntaxConfig) -> int:
    t = compile_term(parse(args.term, cfg), use_eta=args.eta)
    print(json_text(t) if args.json else format_term(t))
    return EXIT_OK


def _cmd_reduce(args, cfg: SyntaxConfig) -> int:
    t = compile_term(parse(args.term, cfg))
    rules = _collect_rules(args.rules)
    steps = _default_steps(args)
    if args.trace or args.json:
        tr = normalize(t, rules, steps, args.strategy)
        if args.json:
            print(json.dumps(tr.to_json()))
        else:
            print(format_term(tr.initial))
            for i, (rule, pos, text) in enumerate(tr.step_texts(), start=1):
                print(f"  {i:>4}  {rule} @ {pos}  ->  {text}")
            print(format_term(tr.final))
        fired, status = tr.nsteps, tr.status
    else:
        final, fired, status = normalize_fast(t, rules, steps, args.strategy)
        print(format_term(final))
    if status == BUDGET_EXHAUSTED:
        if fired < steps:  # the machines stop early only at the size guard
            raise TermTooLargeError
        print(f"step budget exhausted ({steps})", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.catalog:
        checks = load_catalog(Path(args.catalog).read_text())
    else:
        checks = builtin_catalog()
    checks, rules = checks_and_rules(checks, args.expanded)
    reports = run_checks(checks, rules, _default_steps(args))
    if args.json:
        print(json.dumps({
            "ok": all(r.ok for r in reports),
            "checks": [r.to_json() for r in reports],
        }))
    else:
        for r in reports:
            print(f"{r.verdict.upper():6} {r.name}: {r.detail}")
        npass = sum(r.ok for r in reports)
        print(f"{npass}/{len(reports)} checks passed")
    if any(r.verdict == "fail" for r in reports):
        return EXIT_CHECK_FAILED
    if any(r.verdict == "budget" for r in reports):
        return EXIT_BUDGET
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    cfg = SyntaxConfig(expand_sugar=not getattr(args, "no_sugar", False))
    try:
        match args.cmd:
            case "parse":
                return _cmd_parse(args, cfg)
            case "compile":
                return _cmd_compile(args, cfg)
            case "reduce":
                return _cmd_reduce(args, cfg)
            case "check":
                return _cmd_check(args)
    except TermTooLargeError:  # from the compiler or the machines
        print(f"size budget exhausted ({DEFAULT_MAX_SIZE} nodes)",
              file=sys.stderr)
        return EXIT_BUDGET
    except (TermSyntaxError, IllFormedRuleError, CatalogError,
            NoDefinitionError, OSError, ValueError) as e:
        print(f"clsh: {e}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
