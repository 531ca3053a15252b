"""Recursive-descent parser for the ASCII expression grammar.

Grammar (ASCII only)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*       # a/(u*(v+w)^2) keeps (v+w)^(-2)
    factor := base ('^' rational)?
    base   := number | 'x' | "x'" | "x''" | "x'''" | 't'
            | ident '(' 't' ')' ("'")*          # opaque time-function
            | func '(' expr ')'                 # func in {exp, ln, sin, cos, abs}
            | '(' expr ')'
            | ident                             # named constant

A trailing run of apostrophes on an opaque function denotes its derivative
order.  Number literals (including decimals) parse to exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    APPLY_FUNCS,
    ConstSym,
    Expr,
    FuncSym,
    JetSym,
    T,
    ZERO,
    add,
    apply_fn,
    const,
    mul,
    neg,
    pow_,
    sub,
)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass
class _Token:
    kind: str  # NUMBER | IDENT | APOS | OP
    text: str
    pos: int


_OPS = set("+-*/^()")

# the deepest nesting of parenthesized groups (a function's argument among
# them) that parse accepts; each level takes at most four stack frames, so
# the limit holds well inside Python's default recursion limit of 1000
MAX_NESTING = 200

_JET_BY_PRIMES = {0: JetSym("x"), 1: JetSym("xdot"), 2: JetSym("xddot"), 3: JetSym("xdddot")}


def tokenize(text: str) -> list[_Token]:
    if not text.isascii():
        raise ParseError("only ASCII input is supported", 0)
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i + 1
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            if text[j - 1] == ".":
                raise ParseError("malformed number", i)
            tokens.append(_Token("NUMBER", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], i))
            i = j
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] == "'":
                j += 1
            tokens.append(_Token("APOS", text[i:j], i))
            i = j
            continue
        if c in _OPS:
            tokens.append(_Token("OP", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.next()
        if tok.kind != "OP" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text!r}", tok.pos)
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "OP" and tok.text in ops

    def parse(self) -> Expr:
        e = self.parse_expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return e

    def parse_expr(self, e: Expr | None = None) -> Expr:
        """An expression; e, when given, is its first term, already read."""
        if e is None:
            negate = self.at_op("+", "-") and self.next().text == "-"
            e = self.parse_term()
            if negate:
                e = neg(e)
        while self.at_op("+", "-"):
            op = self.next().text
            rhs = self.parse_term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def parse_term(self) -> Expr:
        e = self.parse_factor(self.parse_base())
        while self.at_op("*", "/"):
            if self.next().text == "*":
                e = mul(e, self.parse_factor(self.parse_base()))
            else:
                e = mul(e, *(pow_(b, -q) for b, q in self.parse_divisor()))
        return e

    def parse_divisor(self) -> list[tuple[Expr, int | Fraction]]:
        """The factor after '/' as (base, exponent) pairs, so that no product
        of sums is expanded before it is inverted.  A parenthesized product
        under an integer power gives a pair per factor, one level deep, and a
        sum keeps its power.  A group that holds a zero factor or opens with a
        sign, or is under a fractional power ((u*v)^(1/2) is not
        u^(1/2)*v^(1/2) on the reals), is one base: 1/(x/0) divides by zero."""
        if not self.at_op("("):
            return [(self.parse_factor(self.parse_base()), 1)]
        tok = self.next()
        if self.at_op("+", "-"):
            self.i -= 1
            return [(self.parse_factor(self.parse_base()), 1)]
        self.open_group(tok)
        pairs = [(self.parse_base(), self.parse_exponent())]
        while self.at_op("*", "/"):
            sign = 1 if self.next().text == "*" else -1
            pairs.append((self.parse_base(), sign * self.parse_exponent()))
        if self.at_op("+", "-"):
            pairs = [(self.parse_expr(mul(*(pow_(b, q) for b, q in pairs))), 1)]
        self.close_group()
        q = self.parse_exponent()
        if q.denominator != 1 or any(b == ZERO for b, _ in pairs):
            return [(pow_(mul(*(pow_(b, p) for b, p in pairs)), q), 1)]
        return [(b, p * q) for b, p in pairs]

    def parse_factor(self, base: Expr) -> Expr:
        """base, under the power that follows it if any.  The caller reads
        base, so that this frame is not one more per level of nesting."""
        return pow_(base, self.parse_exponent()) if self.at_op("^") else base

    def parse_exponent(self) -> int | Fraction:
        """The rational after '^', or 1 when no '^' follows."""
        if not self.at_op("^"):
            return 1
        self.next()
        return self.parse_rational()

    def parse_rational(self) -> Fraction:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected exponent", len(self.text))
        if tok.kind == "OP" and tok.text == "(":
            self.next()
            q = self._signed_rational(allow_slash=True)
            self.expect_op(")")
            return q
        # without parentheses only a plain (possibly negative) number binds
        # to the exponent; a following '/' belongs to the enclosing term
        return self._signed_rational(allow_slash=False)

    def _signed_rational(self, allow_slash: bool) -> Fraction:
        sign = 1
        if self.at_op("-"):
            self.next()
            sign = -1
        tok = self.next()
        if tok.kind != "NUMBER":
            raise ParseError("exponent must be rational", tok.pos)
        q = Fraction(tok.text)
        if allow_slash and self.at_op("/"):
            self.next()
            den = self.next()
            if den.kind != "NUMBER":
                raise ParseError("exponent must be rational", den.pos)
            q /= Fraction(den.text)
        return sign * q

    def parse_base(self) -> Expr:
        tok = self.next()
        if tok.kind == "NUMBER":
            return const(Fraction(tok.text))
        if tok.kind == "OP" and tok.text == "(":
            self.open_group(tok)
            e = self.parse_expr()
            self.close_group()
            return e
        if tok.kind == "IDENT":
            return self.parse_ident(tok)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def open_group(self, tok: _Token) -> None:
        """Enter the group whose '(' is tok, one level deeper."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("expression nested too deeply", tok.pos)

    def close_group(self, marked: str = "x or an opaque function") -> None:
        """Leave the group at its ')', which no derivative marker may follow;
        marked names what one may follow, for the error."""
        self.expect_op(")")
        self.depth -= 1
        nxt = self.peek()
        if nxt is not None and nxt.kind == "APOS":
            raise ParseError(f"derivative marker may only follow {marked}", nxt.pos)

    def parse_ident(self, tok: _Token) -> Expr:
        name = tok.text
        nxt = self.peek()
        if name == "x":
            order = 0
            if nxt is not None and nxt.kind == "APOS":
                order = len(self.next().text)
                if order > 3:
                    raise ParseError("malformed derivative marker: jets beyond x''' are not supported", tok.pos)
            return _JET_BY_PRIMES[order]
        if name == "t":
            return T
        if nxt is not None and nxt.kind == "OP" and nxt.text == "(":
            self.next()
            if name in APPLY_FUNCS:
                self.open_group(nxt)
                inner = self.parse_expr()
                self.close_group("an opaque function of t")
                return apply_fn(name, inner)
            arg = self.next()
            if arg.kind != "IDENT" or arg.text != "t":
                raise ParseError(
                    f"unknown function name {name!r}: opaque functions take the literal argument t",
                    tok.pos,
                )
            self.expect_op(")")
            order = 0
            after = self.peek()
            if after is not None and after.kind == "APOS":
                order = len(self.next().text)
            return FuncSym(name, order)
        if name in APPLY_FUNCS:
            raise ParseError(f"function {name!r} requires parentheses", tok.pos)
        if nxt is not None and nxt.kind == "APOS":
            raise ParseError("derivative marker may only follow x or an opaque function of t", nxt.pos)
        return ConstSym(name)


def parse(text: str) -> Expr:
    """Parse an expression string to its canonical tree; input that divides
    by zero (1/0, 0^(-1), x^(1/0)) or nests groups more than MAX_NESTING
    deep raises ParseError.  A caller already deep in the stack can still
    run out of recursion below that depth: that is the same ParseError."""
    try:
        return _Parser(text).parse()
    except ZeroDivisionError:  # expr.DivisionByZero among them
        raise ParseError("division by zero", 0) from None
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None
