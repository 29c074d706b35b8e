"""Concrete syntax: tokenizer, parser, and printer for terms.

Grammar (juxtaposition binds tighter than the composition dot, which binds
tighter than a lambda body; lambda bodies extend as far right as possible):

    expr     ::= lambda | comp
    lambda   ::= ("\\" | "lambda" | "λ") binder+ "." expr
    comp     ::= app ("." expr)?            -- sugar for Comp, right assoc
    app      ::= primary primary*           -- left assoc application
    primary  ::= ident | "(" expr ")"
               | "[" expr "," expr "]"      -- sugar for D a b
               | "<" expr "," expr ">"      -- sugar for Fork f g
               | "'" primary                -- sugar for K a

Identifiers in the atom catalog and single uppercase letters are atoms;
everything else is a variable.  The token B2 always parses as B B B, the
composition of two functions of two arguments being definable but not worth
a rule of its own.  Greek aliases: λ, ε=eps, Φ=Phi, Ψ=Psi, ρ=rho.

The parser reads this grammar in one loop over the tokens, with its open
brackets, binders and composition dots on an explicit stack, so terms of
any depth read back: what format_term prints, parse reads.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .terms import ATOM_CATALOG, App, Atom, Lam, Term, Var, _render

_GREEK = {"λ": "\\", "ε": "eps", "Φ": "Phi", "Ψ": "Psi", "ρ": "rho"}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SINGLE_UPPER_RE = re.compile(r"[A-Z]\Z")


@dataclass(frozen=True)
class SyntaxConfig:
    """Reading options: expand_sugar gates pair/fork/quote/dot sugar."""
    expand_sugar: bool = True


DEFAULT_SYNTAX = SyntaxConfig()


class TermSyntaxError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{msg} at line {line}, column {col}")
        self.msg = msg
        self.line = line
        self.col = col


# Optional whitespace, then an identifier or any other single character.
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(\S))")
_PUNCT = frozenset("()[]<>,.'\\")


def _fail(text: str, msg: str, off: int):
    raise TermSyntaxError(msg, text.count("\n", 0, off) + 1,
                          off - text.rfind("\n", 0, off))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token, then ("", "", len(text)) for the end.
    kind is "id" for an identifier, "\\" for a lambda, else the character."""
    toks = []
    for m in _TOKEN_RE.finditer(text):
        word, ch = m.groups()
        if word:
            toks.append(("\\" if word == "lambda" else "id", word, m.start(1)))
        elif ch in _GREEK:
            alias = _GREEK[ch]
            toks.append(("\\", ch, m.start(2)) if alias == "\\"
                        else ("id", alias, m.start(2)))
        elif ch in _PUNCT:
            toks.append((ch, ch, m.start(2)))
        else:
            _fail(text, f"unexpected character {ch!r}", m.start(2))
    toks.append(("", "", len(text)))
    return toks


_B2_EXPANSION = App(App(Atom("B"), Atom("B")), Atom("B"))


def _classify(word: str) -> Term:
    if word == "B2":
        return _B2_EXPANSION
    if word in ATOM_CATALOG or _SINGLE_UPPER_RE.match(word):
        return Atom(word)
    return Var(word)


def _describe(tok: tuple[str, str, int]) -> str:
    return repr(tok[1]) if tok[0] else "end of input"


def _unexpected(text: str, tok: tuple[str, str, int], what: str):
    _fail(text, f"unexpected token {_describe(tok)}{what}", tok[2])


# Token kinds that open a primary, and that begin one, with and without sugar.
_OPENS, _OPENS_PLAIN = frozenset("([<"), frozenset("(")
_STARTS, _STARTS_PLAIN = _OPENS | {"id", "'"}, _OPENS_PLAIN | {"id"}
_CLOSE = {"(": ")", "[": "]", "<": ">"}


def parse(text: str, cfg: SyntaxConfig = DEFAULT_SYNTAX) -> Term:
    """Read one term.  The parser keeps what it has open on a list, not on
    Python's stack, so terms of any depth read back: format_term's output
    for every term whose names avoid keywords and atoms."""
    toks = _tokenize(text)
    sugar = cfg.expand_sugar
    opens = _OPENS if sugar else _OPENS_PLAIN
    starts = _STARTS if sugar else _STARTS_PLAIN
    # Open contexts, innermost last: (opener, the application read before
    # it) for ( [ < and a quote, then ("[", app, first part) after the comma;
    # ("\\", binders) for a lambda; (".", left side) for a composition.
    stack: list[tuple] = []
    cur = None  # the application read so far in the innermost context
    i = 0
    while True:
        kind, word, off = toks[i]
        i += 1
        if kind == "\\":  # an expression starts with a lambda
            binders = []
            while toks[i][0] == "id":
                _, word, off = toks[i]
                if type(_classify(word)) is not Var:
                    _fail(text, f"binder must be a variable, got {word!r}", off)
                binders.append(word)
                i += 1
            if not binders:
                _unexpected(text, toks[i], ", expected binder")
            if toks[i][0] != ".":
                _unexpected(text, toks[i], ", expected '.'")
            i += 1
            stack.append(("\\", binders))
            continue
        while sugar and kind == "'":
            stack.append(("'", cur))
            cur = None
            kind, word, off = toks[i]
            i += 1
        if kind in opens:
            stack.append((kind, cur))
            cur = None
            continue
        if kind != "id":
            _fail(text, f"expected term, found {_describe(toks[i - 1])}", off)
        t = _classify(word)
        while True:  # t is a whole primary
            while stack and stack[-1][0] == "'":
                t = App(Atom("K"), t)
                cur = stack.pop()[1]
            cur = t if cur is None else App(cur, t)
            kind = toks[i][0]
            if kind in starts:
                break
            t, cur = cur, None  # t is a whole application
            if sugar and kind == ".":
                i += 1
                stack.append((".", t))
                break
            while stack and stack[-1][0] in ("\\", "."):  # t ends them
                ctx, saved = stack.pop()
                if ctx == ".":
                    t = App(App(Atom("Comp"), saved), t)
                else:
                    for b in reversed(saved):
                        t = Lam(b, t)
            if not stack:
                if kind:
                    _unexpected(text, toks[i], " after term")
                return t
            ctx, cur, *first = stack.pop()
            want = "," if ctx != "(" and not first else _CLOSE[ctx]
            if kind != want:
                _unexpected(text, toks[i], f", expected {want!r}")
            i += 1
            if want == ",":
                stack.append((ctx, cur, t))
                cur = None
                break
            if first:
                t = App(App(Atom("D" if ctx == "[" else "Fork"), first[0]), t)


# ---------------------------------------------------------------------------
# printing

def format_term(t: Term) -> str:
    """Render with minimal parentheses: App and Lam arguments and a Lam in
    function position are wrapped; a run of Lams prints as \\x y.body, and
    parse(format_term(t)) is t again if names avoid keywords and atoms."""
    out: list[str] = []
    emit = out.append
    stack: list = [t]
    push, pop = stack.append, stack.pop
    while stack:
        node = pop()
        if type(node) is str:
            emit(node)
            continue
        if type(node) is Lam:
            binders = []
            while type(node) is Lam:
                binders.append(node.binder)
                node = node.body
            emit("\\" + " ".join(binders) + ".")
        tn = type(node)
        while tn is App:
            a = node.arg
            ta = type(a)
            if ta is App or ta is Lam:
                push(")")
                push(a)
                push(" (")
            else:
                push(a.name)
                push(" ")
            node = node.fun
            tn = type(node)
        if tn is Lam:  # a Lam head: wrapped, and printed on the next turn
            push(")")
            push(node)
            emit("(")
        else:
            emit(node.name)
    return "".join(out)


# ---------------------------------------------------------------------------
# the raw tree: JSON and s-expression forms

# _render's spelling of a leaf, an App (open, sep, close) and a Lam.
_SEXPR = ({Atom: "(atom {})", Var: "(var {})"}, "(app ", " ", ")",
          "(lam {} ", ")")
_JSON = ({Atom: '{{"atom": {}}}', Var: '{{"var": {}}}'}, '{"app": [', ", ",
         "]}", '{{"lam": [{}, ', "]}")


def sexpr(t: Term) -> str:
    return _render(t, _SEXPR)


def json_text(t: Term) -> str:
    """The JSON form: a leaf is {"atom": name} or {"var": name}, an App
    {"app": [fun, arg]} and a Lam {"lam": [binder, body]}, at any depth."""
    return _render(t, _JSON, json.dumps)
