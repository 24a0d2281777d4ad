"""Infix expression parser.

Grammar (EBNF):

    expr     = term { ("+" | "-") term } ;
    term     = unary { ("*" | "/") unary } ;
    unary    = "-" unary | power ;
    power    = atom [ "^" unary ] ;            (right associative)
    atom     = number | variable | func "(" expr ")" | "(" expr ")" ;
    func     = "sin" | "cos" | "exp" | "log" | "sqrt" ;
    variable = "x" | "y" | "z" | "z" digits ;  (x,y,z alias z1,z2,z3)
    number   = digits [ "." digits ] ;

Precedence: ^ binds tighter than unary minus, which binds tighter than * /,
which bind tighter than + -.  Exponents must reduce to rational constants.
Constant subexpressions over literals fold during parsing, so printing a
canonical expression and parsing it back reproduces the same tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .expr import Binary, Const, Expression, Unary, Var

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

# input nested deeper, counting parentheses, calls, unary minus and exponents
# together, is a ParseError: at 6 frames a level, far below the recursion limit
MAX_DEPTH = 100

_TOKEN_RE = re.compile(r"\s*(?:(\d+(?:\.\d+)?)|([A-Za-z][A-Za-z0-9]*)|([+\-*/^(),]))")


class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


@dataclass
class _Token:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.group(1) is not None:
            tokens.append(_Token("num", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(_Token("ident", m.group(2), m.start(2)))
        else:
            tokens.append(_Token("op", m.group(3), m.start(3)))
        i = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


def _fold_unary(op: str, arg: Expression) -> Expression:
    if op == "neg" and isinstance(arg, Const):
        return Const(-arg.value)
    return Unary(op, arg)


def _fold_binary(op: str, left: Expression, right: Expression, pos: int) -> Expression:
    if isinstance(left, Const) and isinstance(right, Const):
        a, b = left.value, right.value
        if op == "add":
            return Const(a + b)
        if op == "sub":
            return Const(a - b)
        if op == "mul":
            return Const(a * b)
        if op == "div" and b != 0:
            return Const(a / b)
        if op == "pow" and b.denominator == 1 and not (a == 0 and b < 0):
            return Const(a ** int(b))
    if op == "pow" and not isinstance(right, Const):
        raise ParseError("exponent must be a rational constant", pos)
    return Binary(op, left, right)


class _Parser:
    def __init__(self, text: str, dimension: int):
        self.text = text
        self.dimension = dimension
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # the nesting level, which each level enters unary at

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        tok = self.advance()
        if tok.kind != "op" or tok.text != symbol:
            raise ParseError(f"expected {symbol!r}", tok.pos)

    def parse(self) -> Expression:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected token {tok.text!r}", tok.pos)
        return e

    def expr(self) -> Expression:
        left = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                right = self.term()
                left = _fold_binary("add" if tok.text == "+" else "sub", left, right, tok.pos)
            else:
                return left

    def term(self) -> Expression:
        left = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                right = self.unary()
                left = _fold_binary("mul" if tok.text == "*" else "div", left, right, tok.pos)
            else:
                return left

    def unary(self) -> Expression:
        tok = self.peek()
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH}", tok.pos)
        self.depth += 1
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            e = _fold_unary("neg", self.unary())
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self) -> Expression:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exponent = self.unary()  # right associative; allows x^-2, x^(1/2)
            return _fold_binary("pow", base, exponent, tok.pos)
        return base

    def atom(self) -> Expression:
        tok = self.advance()
        if tok.kind == "num":
            return Const(Fraction(tok.text))
        if tok.kind == "ident":
            return self.ident(tok)
        if tok.kind == "op" and tok.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def ident(self, tok: _Token) -> Expression:
        name = tok.text
        if name in FUNCTIONS:
            nxt = self.peek()
            if nxt.kind != "op" or nxt.text != "(":
                raise ParseError(f"function {name!r} requires parentheses", nxt.pos)
            self.advance()
            arg = self.expr()
            self.expect_op(")")
            return Unary(name, arg)
        index = self.variable_index(name, tok.pos)
        return Var(index)

    def variable_index(self, name: str, pos: int) -> int:
        if name in ("x", "y", "z"):
            index = "xyz".index(name) + 1
        elif name[0] == "z" and name[1:].isdigit():
            index = int(name[1:])
            if index < 1:
                raise ParseError(f"bad variable {name!r}", pos)
        else:
            raise ParseError(f"unknown identifier {name!r}", pos)
        if index > self.dimension:
            raise ParseError(
                f"variable {name!r} exceeds dimension {self.dimension}", pos
            )
        return index


def parse(text: str, dimension: int) -> Expression:
    """Parse an infix expression over `dimension` variables.

    Raises ParseError (with character offset) on malformed input, unknown
    identifiers, or variables beyond the declared dimension.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    return _Parser(text, dimension).parse()
