"""Reference printers, the specs clsh.syntax's printers are tested against.

reference_format_term takes one node per loop turn and carries each node's
context (top, function or argument position) beside it, which makes the
parenthesization rules easy to read off; format_term must print exactly the
same bytes.  to_json builds the nested dicts that json.dumps turns into
json_text's output, and from_json reads them back."""

import reprlib

from clsh.terms import App, Atom, Lam, Var, fold

_TOP, _FUN, _ARG = 0, 1, 2


def reference_format_term(t) -> str:
    out: list[str] = []
    stack: list = [(t, _TOP)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, ctx = item
        match node:
            case Atom(n) | Var(n):
                out.append(n)
            case App(f, a):
                if ctx == _ARG:
                    stack.append(")")
                stack.append((a, _ARG))
                stack.append(" ")
                stack.append((f, _FUN))
                if ctx == _ARG:
                    stack.append("(")
            case Lam(_, _):
                binders = []
                body = node
                while type(body) is Lam:
                    binders.append(body.binder)
                    body = body.body
                if ctx != _TOP:
                    stack.append(")")
                stack.append((body, _TOP))
                stack.append("\\" + " ".join(binders) + ".")
                if ctx != _TOP:
                    stack.append("(")
    return "".join(out)


def to_json(t) -> dict:
    """Nested dicts, built without recursion."""
    return fold(t, lambda n: {"atom" if type(n) is Atom else "var": n.name},
                lambda n, f, a: {"app": [f, a]},
                lambda n, b: {"lam": [n.binder, b]})


# Stack markers: build an App (a Lam) from what the walk has built last.
_APP_END, _LAM_END = object(), object()


def from_json(obj: dict):
    """The inverse of to_json, built without recursion."""
    done: list = []
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
