"""Polynomial text grammar.

Literals are integers and rationals ``a/b``; variables match
``[a-zA-Z][a-zA-Z0-9_]*``; operators are ``+ - * ^`` plus parentheses.
Implicit multiplication is rejected, and ``^`` takes a (possibly negative,
optionally parenthesized) integer exponent.  The one printer of both
polynomial classes emits descending exponents with explicit ``*``, and
``parse(str(f)) == f`` is a tested round-trip.  Parentheses nest at most
MAX_NESTING = 200 deep, as in CPython's parser, so the recursive descent
stays well inside the default recursion limit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add

from .errors import DomainError, ParseError
from .polynomials import LaurentPolynomial, MultivariatePolynomial

MAX_NESTING = 200

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([a-zA-Z][a-zA-Z0-9_]*)|([-+*^/()]))")


def _tokenize(text: str):
    tokens = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        if not m:
            bad = len(text) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        number, ident, op = m.groups()
        start = m.start(1) if number else m.start(2) if ident else m.start(3)
        if number:
            try:
                tokens.append(("number", int(number), start))
            except ValueError:    # beyond sys.get_int_max_str_digits()
                raise ParseError("literal over the int digit limit", start) from None
        elif ident:
            tokens.append(("ident", ident, start))
        else:
            tokens.append(("op", op, start))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over a generic sparse multivariate representation:
    {exponent tuple over the sorted identifiers of the text: int or
    Fraction}; only a/b and negative powers make Fractions."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.variables = sorted({v for kind, v, _ in self.tokens
                                 if kind == "ident"})

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    # generic-polynomial helpers ---------------------------------------

    def _const(self, c):
        return {(0,) * len(self.variables): c} if c != 0 else {}

    @staticmethod
    def _add(a, b):
        out = dict(a)
        for k, v in b.items():
            s = out.get(k, 0) + v
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return out

    @staticmethod
    def _neg(a):
        return {k: -v for k, v in a.items()}

    @staticmethod
    def _mul(a, b):
        out = {}
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                key = tuple(map(add, k1, k2))
                s = out.get(key, 0) + v1 * v2
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return out

    def _pow(self, base, k, pos):
        if k >= 0:
            result = self._const(1)
            while k:
                if k & 1:
                    result = self._mul(result, base)
                k >>= 1
                if k:
                    base = self._mul(base, base)
            return result
        if len(base) != 1:
            raise ParseError("negative power of a non-monomial", pos)
        (key, coeff), = base.items()
        return {tuple(e * k for e in key): Fraction(coeff)**k}

    # grammar ----------------------------------------------------------

    def parse(self):
        value = self.expression()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        return value

    def expression(self):
        value = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                value = self._add(value, self._neg(rhs) if val == "-" else rhs)
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                value = self._mul(value, self.factor())
            else:
                return value

    def factor(self):
        kind, val, pos = self.peek()
        sign = 1
        while kind == "op" and val in "+-":
            self.next()
            if val == "-":
                sign = -sign
            kind, val, pos = self.peek()
        value = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            k = self.exponent()
            value = self._pow(value, k, pos)
        return self._neg(value) if sign < 0 else value

    def exponent(self) -> int:
        kind, val, pos = self.peek()
        if kind == "op" and val == "(":
            self.next()
            k = self._signed_int()
            self.expect_op(")")
            return k
        return self._signed_int()

    def _signed_int(self) -> int:
        kind, val, pos = self.next()
        sign = 1
        while kind == "op" and val in "+-":
            if val == "-":
                sign = -sign
            kind, val, pos = self.next()
        if kind != "number":
            raise ParseError("expected an integer exponent", pos)
        return sign * val

    def atom(self):
        kind, val, pos = self.next()
        if kind == "number":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "/":
                self.next()
                dkind, dval, dpos = self.next()
                if dkind != "number" or dval == 0:
                    raise ParseError("expected a nonzero integer denominator", dpos)
                return self._const(Fraction(val, dval))
            return self._const(val)
        if kind == "ident":
            return {tuple(int(v == val) for v in self.variables): 1}
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError("parentheses nested too deep", pos)
            value = self.expression()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_polynomial(text: str):
    """Parse to a LaurentPolynomial (<= 1 variable) or a
    MultivariatePolynomial (>= 2 variables), whose constructor refuses
    rational coefficients and negative exponents with DomainError.

    Multivariate variables that do not cancel are ordered alphabetically;
    substitution exponent vectors follow that order.
    """
    parser = _Parser(text)
    generic = parser.parse()
    used = [i for i in range(len(parser.variables))
            if any(key[i] for key in generic)]
    if len(used) <= 1:      # every other exponent is 0
        return LaurentPolynomial({sum(key): c for key, c in generic.items()},
                                 parser.variables[used[0]] if used else "t")
    return MultivariatePolynomial(
        [parser.variables[i] for i in used],
        {tuple(key[i] for i in used): c for key, c in generic.items()})


def parse_laurent(text: str) -> LaurentPolynomial:
    """Parse text that must denote a one-variable Laurent polynomial."""
    poly = parse_polynomial(text)
    if not isinstance(poly, LaurentPolynomial):
        raise DomainError(f"{text!r} is not a one-variable polynomial")
    return poly
