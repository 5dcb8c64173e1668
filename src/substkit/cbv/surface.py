"""Concrete syntax: one lexer and one parser for programs, types and typed
contexts, into the raw surface AST; and the pretty-printer.

The grammar mirrors the calculus' raw terms; values and terms are separate
syntactic categories resolved by position.  Types are read by the same
parser, inside a program or on their own (``parse_type``), and so are the
``name: type`` contexts that programs are checked in (``parse_context``).
Application is juxtaposition of atoms, so compound function and argument
terms are parenthesized.  Binders are printed with position-derived names,
which makes printing injective on well-sorted terms and the parse/print round
trip exact.

The AST's nodes, like the lexer's tokens, are :class:`~substkit.sorts.Value`
classes built positionally, every field given: shown, compared and hashed by
their fields, source position included.
"""

from __future__ import annotations

from ..sorts import Context, Value
from .types import (MAX_NESTING, NAT, Base, TypeExpr, fun, record, type_to_str,
                    variant)


class SurfaceSyntaxError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


KEYWORDS = {"val", "let", "in", "case", "of", "roll", "unroll", "fold", "for",
            "do", "letrec", "fn", "Nat"}


class Token(Value):
    __slots__ = ("kind", "text", "pos")  # kind: IDENT NUMBER PUNCT EOF


def lex(text: str) -> list[Token]:
    out, i, n = [], 0, len(text)
    two_char = ("->",)
    punct = "(){}<>[].,;:=|+"
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("--", i):
            j = text.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if any(text.startswith(t, i) for t in two_char):
            out.append(Token("PUNCT", text[i:i + 2], i))
            i += 2
            continue
        if ch == "→":  # the arrow of ``type_to_label``
            out.append(Token("PUNCT", "->", i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("NUMBER", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("IDENT", text[i:j], i))
            i = j
            continue
        if ch in punct:
            out.append(Token("PUNCT", ch, i))
            i += 1
            continue
        raise SurfaceSyntaxError(f"unexpected character {ch!r}", i)
    out.append(Token("EOF", "", n))
    return out


# --- surface AST -------------------------------------------------------------

class SVar(Value):
    __slots__ = ("name", "pos")


class SLam(Value):
    __slots__ = ("param", "param_type", "body", "pos")


class SVRecord(Value):
    __slots__ = ("fields", "pos")  # fields: of (label, value)


class SVInject(Value):
    __slots__ = ("ty", "tag", "value", "pos")


class SLit(Value):
    __slots__ = ("value", "pos")


class SVal(Value):
    __slots__ = ("value", "pos")


class SLet(Value):
    __slots__ = ("bindings", "body", "pos")  # bindings: of (name, term)


class SApp(Value):
    __slots__ = ("func", "arg", "pos")


class SRecord(Value):
    __slots__ = ("fields", "pos")


class SRecordMatch(Value):
    # binders: of (label, name)
    __slots__ = ("scrutinee", "binders", "body", "pos")


class SInject(Value):
    __slots__ = ("ty", "tag", "term", "pos")


class SVariantMatch(Value):
    # clauses: of (label, name, term)
    __slots__ = ("scrutinee", "clauses", "pos")


class SUnroll(Value):
    __slots__ = ("term", "pos")


class SRoll(Value):
    __slots__ = ("term", "pos")


class SFold(Value):
    # ann: optional result type annotation
    __slots__ = ("scrutinee", "binder", "body", "ann", "pos")


class SFor(Value):
    __slots__ = ("binder", "init", "body", "pos")


class SLetRec(Value):
    # defs: of (name, params: ((name, type), ...), ret type, term)
    __slots__ = ("defs", "body", "pos")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = lex(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise SurfaceSyntaxError(f"expected {text!r}, found {t.text!r}", t.pos)
        return t

    def ident(self) -> Token:
        t = self.next()
        if t.kind != "IDENT" or t.text in KEYWORDS:
            raise SurfaceSyntaxError(f"expected a name, found {t.text!r}", t.pos)
        return t

    def deeper(self) -> None:
        """One level of nesting more; see ``MAX_NESTING``.  Too deep an input
        is no ``SurfaceSyntaxError``, so that no fallback to another parse
        hides it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ValueError(f"nesting deeper than {MAX_NESTING} levels "
                             f"at position {self.peek().pos}")

    def nested(self, parse):
        """Parse a term or value one level deeper."""
        self.deeper()
        out = parse()
        self.depth -= 1
        return out

    def parse_type(self) -> TypeExpr:
        """``(T)``, a ``{row}`` record, a ``<row>`` variant or a name, and
        optionally ``-> T``; a type nests inside the term around it."""
        return self.nested(self._type)

    def _type(self) -> TypeExpr:
        t = self.next()
        if t.text == "(":
            left = self.parse_type()
            self.expect(")")
        elif t.text == "{":
            left = record(self.row("}"))
        elif t.text == "<":
            left = variant(self.row(">"))
        elif t.kind == "IDENT":
            left = NAT if t.text == "Nat" else Base(t.text)
        else:
            raise SurfaceSyntaxError(f"expected a type, found {t.text!r}", t.pos)
        if self.peek().text == "->":
            self.next()
            return fun(left, self.parse_type())
        return left

    def row(self, close: str) -> list:
        """``label: T`` parts separated by commas, up to ``close``."""
        pairs = []
        while self.peek().text != close:
            if pairs:
                self.expect(",")
            lab = self.label()
            self.expect(":")
            pairs.append((lab, self.parse_type()))
        self.next()
        return pairs

    def context(self) -> list:
        """``name: T`` parts separated by commas; empty parts are skipped."""
        pairs = []
        while True:
            while self.peek().text == ",":
                self.next()
            if self.peek().kind == "EOF":
                return pairs
            name = self.ident()
            self.expect(":")
            pairs.append((name.text, self.parse_type()))
            if self.peek().text != ",":
                return pairs

    def label(self) -> str:
        t = self.next()
        if t.kind == "NUMBER":
            if self.peek().text == "+" and self.peek().pos == t.pos + len(t.text):
                self.next()
                return t.text + "+"
            return t.text
        if t.kind == "IDENT":
            return t.text
        raise SurfaceSyntaxError(f"expected a label, found {t.text!r}", t.pos)

    # -- values -----------------------------------------------------------

    def value(self):
        return self.nested(self._value)

    def _value(self):
        t = self.peek()
        if t.text == "fn":
            self.next()
            name = self.ident()
            self.expect(":")
            ty = self.parse_type()
            self.expect(".")
            return SLam(name.text, ty, self.term(), t.pos)
        return self.vatom()

    def vatom(self):
        t = self.peek()
        if t.text == "(":
            self.next()
            v = self.value()
            self.expect(")")
            return v
        if t.text == "{":
            return SVRecord(self.fields(self.value), t.pos)
        if t.text == "<":
            return SVInject(*self.inject(self.vatom), t.pos)
        if t.kind == "NUMBER":
            self.next()
            return SLit(int(t.text), t.pos)
        if t.text == "fn":
            return self.value()
        name = self.ident()
        return SVar(name.text, name.pos)

    # -- terms ------------------------------------------------------------

    def term(self):
        return self.nested(self._term)

    def _term(self):
        t = self.peek()
        if t.text == "val":
            self.next()
            return SVal(self.value(), t.pos)
        if t.text == "let":
            self.next()
            bindings = []
            while True:
                name = self.ident()
                self.expect("=")
                bindings.append((name.text, self.term()))
                if self.peek().text == ";":
                    self.next()
                    continue
                break
            self.expect("in")
            return SLet(tuple(bindings), self.term(), t.pos)
        if t.text == "case":
            self.next()
            scrut = self.atom()
            self.expect("of")
            return self.case_tail(scrut, t.pos)
        if t.text == "roll":
            self.next()
            return SRoll(self.atom(), t.pos)
        if t.text == "unroll":
            self.next()
            return SUnroll(self.atom(), t.pos)
        if t.text == "fold":
            self.next()
            ann = None
            if self.peek().text == "[":
                self.next()
                ann = self.parse_type()
                self.expect("]")
            scrut = self.atom()
            binder = self.ident()
            self.expect(".")
            return SFold(scrut, binder.text, self.term(), ann, t.pos)
        if t.text == "for":
            self.next()
            binder = self.ident()
            self.expect("=")
            init = self.term()
            self.expect("do")
            return SFor(binder.text, init, self.term(), t.pos)
        if t.text == "letrec":
            self.next()
            defs = []
            while True:
                name = self.ident()
                self.expect("[")
                params = []
                while self.peek().text != "]":
                    pname = self.ident()
                    self.expect(":")
                    params.append((pname.text, self.parse_type()))
                    if self.peek().text == ",":
                        self.next()
                self.expect("]")
                self.expect(":")
                ret = self.parse_type()
                self.expect("=")
                defs.append((name.text, tuple(params), ret, self.term()))
                if self.peek().text == ";":
                    self.next()
                    continue
                break
            self.expect("in")
            return SLetRec(tuple(defs), self.term(), t.pos)
        # each application nests its function one level deeper
        out, outer = self.atom(), self.depth
        while self.peek().text in ("(", "{") or self.peek().text == "<":
            self.deeper()
            out = SApp(out, self.atom(), t.pos)
        self.depth = outer
        return out

    def case_tail(self, scrut, pos):
        self.expect("{")
        if self.peek().text == "}":
            self.next()
            self.expect("in")
            return SRecordMatch(scrut, (), self.term(), pos)
        first_label = self.label()
        if self.peek().text == "=":
            self.next()
            binders = [(first_label, self.ident().text)]
            while self.peek().text == ",":
                self.next()
                lab = self.label()
                self.expect("=")
                binders.append((lab, self.ident().text))
            self.expect("}")
            self.expect("in")
            return SRecordMatch(scrut, tuple(binders), self.term(), pos)
        clauses = []
        name = self.ident()
        self.expect("->")
        clauses.append((first_label, name.text, self.term()))
        while self.peek().text == "|":
            self.next()
            lab = self.label()
            name = self.ident()
            self.expect("->")
            clauses.append((lab, name.text, self.term()))
        self.expect("}")
        return SVariantMatch(scrut, tuple(clauses), pos)

    def atom(self):
        t = self.peek()
        if t.text == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        if t.text == "{":
            return SRecord(self.fields(self.term), t.pos)
        if t.text == "<":
            return SInject(*self.inject(self.atom), t.pos)
        raise SurfaceSyntaxError(f"expected a term, found {t.text!r}", t.pos)

    # -- shared by values and terms -----------------------------------------

    def fields(self, item) -> tuple:
        """``{label = item, ...}``: the (label, item) pairs."""
        self.next()
        fields = []
        while self.peek().text != "}":
            lab = self.label()
            self.expect("=")
            fields.append((lab, item()))
            if self.peek().text == ",":
                self.next()
        self.expect("}")
        return tuple(fields)

    def inject(self, atom) -> tuple:
        """``<T>.tag atom``: the type, the tag and the atom, one level deeper."""
        ty = self.parse_type()
        self.expect(".")
        tag = self.label()
        return ty, tag, self.nested(atom)


def _whole(text: str, read):
    """What ``read`` reads from the parser of ``text``, which must be all of it."""
    p = _Parser(text)
    out = read(p)
    t = p.peek()
    if t.kind != "EOF":
        raise SurfaceSyntaxError(f"trailing input {t.text!r}", t.pos)
    return out


def parse(text: str):
    return _whole(text, _Parser.term)


def parse_value(text: str):
    return _whole(text, _Parser.value)


def _no_comment(text: str) -> str:
    """A type or context given on its own has no comments: ``b --> b`` is an
    error, not ``b`` and a comment."""
    i = text.find("--")
    if i >= 0:
        raise SurfaceSyntaxError("unexpected '--'", i)
    return text


def parse_type(text: str) -> TypeExpr:
    return _whole(_no_comment(text), _Parser.parse_type)


def parse_context(text: str):
    """The names and the context of ``x: T, y: U, ...``."""
    pairs = _whole(_no_comment(text), _Parser.context)
    return [name for name, _ in pairs], Context(tuple(ty for _, ty in pairs))


# --- pretty-printing generic terms ------------------------------------------

def _name(pos: int) -> str:
    return f"x{pos}"


def pretty(term) -> str:
    """Render a generic well-sorted term in the concrete syntax, reading each
    node's family and parameters off its operator.  Binder names are derived
    from positions, so printing is injective and reparsing with the same
    context yields the identical term."""
    from ..terms import Meta, Var

    def pv(t):  # value position
        if isinstance(t, Var):
            return _name(t.index)
        if isinstance(t, Meta):
            raise ValueError("holes have no concrete syntax")
        family, params = t.op.family, t.op.params
        n = len(t.ctx)
        if family == "lam":
            dom, _cod = params
            return (f"fn {_name(n)}: {type_to_str(dom)} . "
                    f"{pt(t.args[0])}")
        if family == "vrec":
            row = params[0]
            inner = ", ".join(f"{l} = {pv(a)}" for (l, _), a in zip(row, t.args))
            return "{" + inner + "}"
        if family == "vinj":
            row, tag = params
            return f"<{_row_str(row)}>.{tag} {_v_atom(t.args[0])}"
        if family == "lit":
            return str(params[0])
        raise ValueError(f"not a value operator: {t.op.label}")

    def _v_atom(t):
        s = pv(t)
        if isinstance(t, Var) or (hasattr(t, "op")
                                  and t.op.family in ("vrec", "lit")):
            return s
        return f"({s})"

    def _row_str(row):
        return ", ".join(f"{l}: {type_to_str(v)}" for l, v in row)

    def atom(t):
        return f"({pt(t)})"

    def pt(t):  # term position
        if isinstance(t, Meta):
            raise ValueError("holes have no concrete syntax")
        if isinstance(t, Var):
            raise ValueError("variables are values, not terms")
        family, params = t.op.family, t.op.params
        n = len(t.ctx)
        if family == "val":
            return f"val {_v_atom(t.args[0])}"
        if family == "let":
            parts = []
            for i, arg in enumerate(t.args[:-1]):
                parts.append(f"{_name(n + i)} = {pt(arg)}")
            return f"let {'; '.join(parts)} in {pt(t.args[-1])}"
        if family == "app":
            return f"{atom(t.args[0])} {atom(t.args[1])}"
        if family == "rec":
            row = params[0]
            inner = ", ".join(f"{l} = {pt(a)}" for (l, _), a in zip(row, t.args))
            return "{" + inner + "}"
        if family == "recmatch":
            row = params[0]
            binders = ", ".join(f"{l} = {_name(n + i)}"
                                for i, (l, _) in enumerate(row))
            return (f"case {atom(t.args[0])} of {{{binders}}} in "
                    f"{pt(t.args[1])}")
        if family == "inj":
            row, tag = params
            return f"<{_row_str(row)}>.{tag} {atom(t.args[0])}"
        if family == "vmatch":
            row = params[0]
            clauses = " | ".join(
                f"{l} {_name(n)} -> {pt(arg)}"
                for (l, _), arg in zip(row, t.args[1:]))
            return f"case {atom(t.args[0])} of {{{clauses}}}"
        if family == "unroll":
            return f"unroll {atom(t.args[0])}"
        if family == "roll":
            return f"roll {atom(t.args[0])}"
        if family == "natfold":
            return (f"fold[{type_to_str(params[0])}] {atom(t.args[0])} "
                    f"{_name(n)} . {pt(t.args[1])}")
        if family == "for":
            return f"for {_name(n)} = {pt(t.args[0])} do {pt(t.args[1])}"
        if family == "letrec":
            defs, _res = params
            k = len(defs)
            parts = []
            for i, ((ptypes, ret), arg) in enumerate(zip(defs, t.args[:-1])):
                pnames = ", ".join(
                    f"{_name(n + k + j)}: {type_to_str(p)}"
                    for j, p in enumerate(ptypes))
                parts.append(f"{_name(n + i)}[{pnames}]: {type_to_str(ret)} "
                             f"= {pt(arg)}")
            return f"letrec {'; '.join(parts)} in {pt(t.args[-1])}"
        raise ValueError(f"unknown operator family {family!r}")

    return pv(term) if term.sort.is_first else pt(term)
