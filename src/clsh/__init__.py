"""clsh: a small equational shell for combinatory logic.

Parse applicative and lambda terms, disassemble lambdas into the I/K/S
basis, normalize under the combinator rules, and replay or check recorded
equational derivations.
"""

from .terms import (
    Atom,
    Var,
    App,
    Lam,
    Term,
    Position,
    ATOM_CATALOG,
    alpha_eq,
    app,
    free_vars,
    fresh_var,
    positions,
    replace_at,
    spine,
    substitute,
    subterm_at,
    term_size,
)
from .syntax import (
    SyntaxConfig,
    TermSyntaxError,
    format_term,
    parse,
)
from .rewrite import (
    BUDGET_EXHAUSTED,
    CL_BASE,
    DERIVED,
    FULL,
    NORMAL_FORM,
    IllFormedRuleError,
    RewriteRule,
    RuleSet,
    Trace,
    TraceStep,
    make_rule,
    match,
    normalize,
    normalize_fast,
    parse_rule,
    parse_rules,
)
from .disassemble import (
    DERIVED_NAMES,
    NestedLambdaError,
    NoDefinitionError,
    compile_abstraction,
    compile_term,
    define_as_ski,
    expand_derived,
    lambda_definition,
)
from .lam import beta_normalize_fast
from .checks import (
    CatalogError,
    CheckReport,
    EquationCheck,
    builtin_catalog,
    load_catalog,
    run_check,
    run_checks,
    run_core_suite,
)

__version__ = "0.1.0"
