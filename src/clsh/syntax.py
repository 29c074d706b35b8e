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
"""

from __future__ import annotations

import json
import re
import reprlib
from dataclasses import dataclass

from .terms import ATOM_CATALOG, App, Atom, Lam, Term, Var, _render, fold

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


@dataclass(frozen=True)
class _Tok:
    kind: str  # IDENT LAMBDA DOT LPAREN RPAREN LBRACK RBRACK LANGLE RANGLE COMMA QUOTE EOF
    text: str
    line: int
    col: int


_PUNCT = {
    "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACK", "]": "RBRACK",
    "<": "LANGLE", ">": "RANGLE",
    ",": "COMMA", ".": "DOT", "'": "QUOTE", "\\": "LAMBDA",
}


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _GREEK:
            alias = _GREEK[ch]
            if alias == "\\":
                toks.append(_Tok("LAMBDA", ch, line, col))
            else:
                toks.append(_Tok("IDENT", alias, line, col))
            i += 1
            col += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            word = m.group()
            kind = "LAMBDA" if word == "lambda" else "IDENT"
            toks.append(_Tok(kind, word, line, col))
            i = m.end()
            col += len(word)
            continue
        if ch in _PUNCT:
            toks.append(_Tok(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        raise TermSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("EOF", "", line, col))
    return toks


_B2_EXPANSION = App(App(Atom("B"), Atom("B")), Atom("B"))


def _classify(word: str) -> Term:
    if word == "B2":
        return _B2_EXPANSION
    if word in ATOM_CATALOG or _SINGLE_UPPER_RE.match(word):
        return Atom(word)
    return Var(word)


# token kinds that can begin a primary, with and without sugar
_PRIMARY_START = {"IDENT", "LPAREN", "LBRACK", "LANGLE", "QUOTE"}
_PRIMARY_START_PLAIN = {"IDENT", "LPAREN"}


class _Parser:
    def __init__(self, toks: list[_Tok], cfg: SyntaxConfig):
        self.toks = toks
        self.pos = 0
        self.cfg = cfg

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str, tok: _Tok):
        raise TermSyntaxError(msg, tok.line, tok.col)

    def describe(self, tok: _Tok) -> str:
        return "end of input" if tok.kind == "EOF" else repr(tok.text)

    def expect(self, kind: str, what: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            self.fail(f"unexpected token {self.describe(t)}, expected {what}", t)
        return t

    def parse_expr(self) -> Term:
        if self.peek().kind == "LAMBDA":
            return self.parse_lambda()
        return self.parse_comp()

    def parse_lambda(self) -> Term:
        self.next()
        binders: list[str] = []
        while self.peek().kind == "IDENT":
            t = self.next()
            if not isinstance(_classify(t.text), Var):
                self.fail(f"binder must be a variable, got {t.text!r}", t)
            binders.append(t.text)
        if not binders:
            self.fail(f"unexpected token {self.describe(self.peek())}, expected binder",
                      self.peek())
        self.expect("DOT", "'.'")
        body = self.parse_expr()
        for b in reversed(binders):
            body = Lam(b, body)
        return body

    def parse_comp(self) -> Term:
        t = self.parse_app()
        if self.cfg.expand_sugar and self.peek().kind == "DOT":
            self.next()
            rhs = self.parse_expr()
            return App(App(Atom("Comp"), t), rhs)
        return t

    def parse_app(self) -> Term:
        starts = _PRIMARY_START if self.cfg.expand_sugar else _PRIMARY_START_PLAIN
        t = self.parse_primary()
        while self.peek().kind in starts:
            t = App(t, self.parse_primary())
        return t

    def parse_primary(self) -> Term:
        tok = self.peek()
        sugar = self.cfg.expand_sugar
        match tok.kind:
            case "IDENT":
                self.next()
                return _classify(tok.text)
            case "LPAREN":
                self.next()
                t = self.parse_expr()
                self.expect("RPAREN", "')'")
                return t
            case "LBRACK" if sugar:
                self.next()
                a = self.parse_expr()
                self.expect("COMMA", "','")
                b = self.parse_expr()
                self.expect("RBRACK", "']'")
                return App(App(Atom("D"), a), b)
            case "LANGLE" if sugar:
                self.next()
                f = self.parse_expr()
                self.expect("COMMA", "','")
                g = self.parse_expr()
                self.expect("RANGLE", "'>'")
                return App(App(Atom("Fork"), f), g)
            case "QUOTE" if sugar:
                self.next()
                return App(Atom("K"), self.parse_primary())
            case _:
                self.fail(f"expected term, found {self.describe(tok)}", tok)


def parse(text: str, cfg: SyntaxConfig = DEFAULT_SYNTAX) -> Term:
    p = _Parser(_tokenize(text), cfg)
    try:
        t = p.parse_expr()
    except RecursionError:
        tok = p.peek()
        raise TermSyntaxError("term nested too deeply", tok.line, tok.col) from None
    tok = p.peek()
    if tok.kind != "EOF":
        p.fail(f"unexpected token {p.describe(tok)} after term", tok)
    return t


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

def to_json(t: Term) -> dict:
    """Nested dicts, built without recursion."""
    return fold(t, lambda n: {"atom" if type(n) is Atom else "var": n.name},
                lambda n, f, a: {"app": [f, a]},
                lambda n, b: {"lam": [n.binder, b]})


# Stack markers: build an App (a Lam) from what the walk has built last.
_APP_END, _LAM_END = object(), object()


def from_json(obj: dict) -> Term:
    """The inverse of to_json, built without recursion."""
    done: list[Term] = []
    stack: list = [obj]
    while stack:
        match o := stack.pop():
            case _ if o is _APP_END:
                done[-2:] = [App(*done[-2:])]
            case _ if o is _LAM_END:
                done[-1] = Lam(stack.pop(), done[-1])
            case {"atom": str(n)}:
                done.append(Atom(n))
            case {"var": str(n)}:
                done.append(Var(n))
            case {"app": [f, a]}:
                stack += (_APP_END, a, f)
            case {"lam": [str(b), body]}:
                stack += (b, _LAM_END, body)
            case _:
                raise ValueError(f"not a term object: {reprlib.repr(o)}")
    return done[0]


# _render's spelling of a leaf, an App (open, sep, close) and a Lam.
_SEXPR = ({Atom: "(atom {})", Var: "(var {})"}, "(app ", " ", ")",
          "(lam {} ", ")")
_JSON = ({Atom: '{{"atom": {}}}', Var: '{{"var": {}}}'}, '{"app": [', ", ",
         "]}", '{{"lam": [{}, ', "]}")


def sexpr(t: Term) -> str:
    return _render(t, _SEXPR)


def json_text(t: Term) -> str:
    """json.dumps(to_json(t)), without the recursion json.dumps does."""
    return _render(t, _JSON, json.dumps)
