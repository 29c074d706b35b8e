"""Reference printer, the spec clsh.syntax.format_term is tested against.

It takes one node per loop turn and carries each node's context (top,
function or argument position) beside it, which makes the parenthesization
rules easy to read off; format_term must print exactly the same bytes."""

from clsh.terms import App, Atom, Lam, Var

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
