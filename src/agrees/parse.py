"""Text grammar for polynomials and ideal specifications.

    poly  := ('+'|'-')? term (('+'|'-') term)*
    term  := coeff? mono?          (at least one of the two)
    mono  := var ('^' nat)? ('*'? var ('^' nat)?)*
    var   := 'x' | 'y' | 't' | 'T' nat
    coeff := integer | integer '/' integer

Whitespace and '*' are optional between factors, and a '*' is followed by
a variable: a dangling one, as in ``3*``, is a ParseError at the '*'.  An
ideal specification is a comma-separated list of polynomials, optionally
wrapped in ``ideal( ... )``.

Lexically, ``integer`` and ``nat`` are runs of the ASCII digits 0-9, and 'T'
needs such an index: a bare 'T' is a ParseError.  Whitespace is skipped.
Any other character is a ParseError at its position: an unknown letter is
an UnknownVariable, and a pasted superscript such as ``x³`` or a non-ASCII
digit is an unexpected character, so exponents are typed as ``x^3``.
"""

from __future__ import annotations

import re

from .errors import EmptyIdeal, ParseError, UnknownVariable
from .poly import Polynomial, Ring

# the lexical rules in order, each alternative named by its token kind;
# whitespace is the only text no alternative matches
_TOKEN = re.compile(r"""
    (?P<INT>[0-9]+) | (?P<VAR>T[0-9]*|[xyt]) | (?P<IDEAL>ideal)
  | (?P<CARET>\^) | (?P<STAR>\*) | (?P<PLUS>\+) | (?P<MINUS>-) | (?P<SLASH>/)
  | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,) | (?P<OTHER>\S)
""", re.VERBOSE)

# an expected token kind as a message names it
_EXPECTED = {"INT": "an integer", "LPAREN": "'('", "RPAREN": "')'", "EOF": "end of input"}


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __str__(self):
        return "end of input" if self.kind == "EOF" else repr(self.value)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, value, pos = m.lastgroup, m.group(), m.start()
        if kind == "OTHER":
            if value.isalpha():
                raise UnknownVariable(f"unknown variable {value!r}", pos, "one of x, y, t, T<n>")
            raise ParseError(f"unexpected character {value!r}", pos)
        if value == "T":
            raise ParseError("bare 'T' without index", pos, "T<number>")
        tokens.append(_Token(kind, int(value) if kind == "INT" else value, pos))
    tokens.append(_Token("EOF", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ring: Ring, field):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.field = field

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok}", tok.pos, _EXPECTED[kind])
        return self.advance()

    def parse_poly(self, stop_kinds=("EOF",)) -> Polynomial:
        result = Polynomial.zero(self.ring, self.field)
        tok = self.peek()
        while True:
            if tok.kind in ("PLUS", "MINUS"):
                self.advance()
            result = result + self.parse_term(-1 if tok.kind == "MINUS" else 1)
            tok = self.peek()
            if tok.kind in stop_kinds:
                return result
            if tok.kind not in ("PLUS", "MINUS"):
                raise ParseError(f"unexpected {tok}", tok.pos, "'+' or '-'")

    def parse_term(self, sign: int) -> Polynomial:
        f = self.field
        coeff = None
        if self.peek().kind == "INT":
            num = self.advance().value
            if self.peek().kind == "SLASH":
                self.advance()
                den = self.expect("INT").value
                try:
                    coeff = f.fraction(num, den)
                except ZeroDivisionError:
                    raise ParseError("denominator vanishes in the coefficient field",
                                     self.tokens[self.pos - 1].pos) from None
            else:
                coeff = f.from_int(num)
        exponents = [0] * self.ring.arity
        saw_var = False
        while True:
            tok = self.peek()
            if tok.kind == "STAR" and self.tokens[self.pos + 1].kind == "VAR":
                self.advance()
                tok = self.peek()
            if tok.kind != "VAR":
                break
            self.advance()
            if tok.value not in self.ring.vars:
                raise UnknownVariable(
                    f"variable {tok.value!r} not in {self.ring}", tok.pos)
            exp = 1
            if self.peek().kind == "CARET":
                self.advance()
                exp = self.expect("INT").value
            exponents[self.ring.index(tok.value)] += exp
            saw_var = True
        if coeff is None and not saw_var:
            tok = self.peek()
            raise ParseError(f"expected a term, found {tok}", tok.pos,
                             "coefficient or variable")
        if coeff is None:
            coeff = f.one
        if sign < 0:
            coeff = f.neg(coeff)
        return Polynomial.monomial(self.ring, f, tuple(exponents), coeff)


def parse_polynomial(text: str, ring: Ring, field) -> Polynomial:
    """Parse a single polynomial in the grammar above."""
    parser = _Parser(_tokenize(text), ring, field)
    poly = parser.parse_poly()
    parser.expect("EOF")
    return poly


def parse_ideal_spec(text: str, ring: Ring, field) -> list[Polynomial]:
    """Parse a comma-separated generator list, optionally ``ideal( ... )``."""
    tokens = _tokenize(text)
    parser = _Parser(tokens, ring, field)
    wrapped = False
    if parser.peek().kind == "IDEAL":
        parser.advance()
        parser.expect("LPAREN")
        wrapped = True
    stop = ("COMMA", "RPAREN", "EOF") if wrapped else ("COMMA", "EOF")
    end = "RPAREN" if wrapped else "EOF"
    if parser.peek().kind == end:
        raise EmptyIdeal("ideal specification has no generators")
    gens = [parser.parse_poly(stop)]
    while parser.peek().kind == "COMMA":
        parser.advance()
        gens.append(parser.parse_poly(stop))
    parser.expect(end)
    if wrapped:
        parser.expect("EOF")
    return gens
