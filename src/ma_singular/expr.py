"""Parser, printer and evaluator for coefficient expressions.

The grammar covers numeric literals, the state variables x, y, z, p, q,
the functions sin, cos, exp, log, sqrt, sinh, cosh, atan, parentheses,
and the operators ``+ - * / ^``.  ``^`` binds tightest and is
right-associative, then unary minus, then ``* /``, then ``+ -``, so
``2^3^2`` is 512 and ``-x^2`` means ``-(x^2)``.

Trees are immutable; ``parse_expr(to_string(e))`` reproduces ``e``
node for node, which is what the serialization layer relies on.  The
parser and every tree walker recurse once per level, so ``parse_expr``
refuses an expression nested deeper than ``MAX_DEPTH`` levels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ParseError

VARIABLES = ("x", "y", "z", "p", "q")

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "atan": np.arctan,
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Var, Call, Neg, BinOp]

_BINDING = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_BINDING = 30  # between mul/div and pow
_ATOM_BINDING = 100

#: Deepest accepted nesting of parentheses, calls and unary minus, and
#: deepest accepted tree (so a sum of at most MAX_DEPTH terms).
MAX_DEPTH = 256

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | one of "+-*/^()" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            # Either an unknown character or pure trailing whitespace.
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if match.group("num") is not None:
            tokens.append(_Token("num", match.group("num"), match.start("num")))
        elif match.group("ident") is not None:
            tokens.append(_Token("ident", match.group("ident"), match.start("ident")))
        else:
            op = match.group("op")
            tokens.append(_Token(op, op, match.start("op")))
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def expression(self, rbp: int) -> tuple[Expr, int]:
        """The next expression binding tighter than ``rbp``, and its depth."""
        self.nesting += 1
        _check_depth(self.nesting, self.peek())
        left, depth = self._nud(self.advance())
        while self.peek().kind in _BINDING and _BINDING[self.peek().kind] > rbp:
            tok = self.advance()
            left, depth = self._led(tok, left, depth)
            _check_depth(depth, tok)
        self.nesting -= 1
        return left, depth

    def _nud(self, tok: _Token) -> tuple[Expr, int]:
        if tok.kind == "num":
            return Num(float(tok.text)), 1
        if tok.kind == "ident":
            if tok.text in FUNCTIONS:
                self.expect("(")
                arg, depth = self.expression(0)
                self.expect(")")
                return Call(tok.text, arg), depth + 1
            if tok.text in VARIABLES:
                return Var(tok.text), 1
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "(":
            inner = self.expression(0)
            self.expect(")")
            return inner
        if tok.kind == "-":
            operand, depth = self.expression(_UNARY_BINDING)
            if isinstance(operand, Num):
                return Num(-operand.value), 1  # fold so literals round-trip as one node
            return Neg(operand), depth + 1
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos)

    def _led(self, tok: _Token, left: Expr, left_depth: int) -> tuple[Expr, int]:
        lbp = _BINDING[tok.kind]
        if tok.kind == "^":
            right, right_depth = self.expression(lbp - 1)  # right-associative
        else:
            right, right_depth = self.expression(lbp)
        return BinOp(tok.kind, left, right), max(left_depth, right_depth) + 1


def _check_depth(depth: int, tok: _Token) -> None:
    if depth > MAX_DEPTH:
        raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels",
                         tok.pos)


def parse_expr(text: str) -> Expr:
    """Parse an expression string into a tree.

    Raises:
        ParseError: On syntax errors, identifiers outside the grammar or
            nesting deeper than ``MAX_DEPTH``, with the source position
            attached.
    """
    parser = _Parser(_tokenize(text))
    tree, _ = parser.expression(0)
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"trailing input {trailing.text!r}", trailing.pos)
    return tree


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _BINDING[e.op]
    if isinstance(e, Neg):
        return _UNARY_BINDING
    # Negative literals print with a leading minus and must parenthesize
    # exactly where a unary minus would.
    if isinstance(e, Num) and np.copysign(1.0, e.value) < 0:
        return _UNARY_BINDING
    return _ATOM_BINDING


def to_string(e: Expr) -> str:
    """Render a tree so that ``parse_expr`` reproduces it exactly."""
    if isinstance(e, Num):
        return repr(float(e.value))
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({to_string(e.arg)})"
    if isinstance(e, Neg):
        inner = to_string(e.operand)
        if _prec(e.operand) < _UNARY_BINDING:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        bp = _BINDING[e.op]
        left = to_string(e.left)
        right = to_string(e.right)
        if e.op == "^":
            # Right-associative: parenthesize an equal-precedence left child.
            if _prec(e.left) <= bp:
                left = f"({left})"
            if _prec(e.right) < bp:
                right = f"({right})"
        else:
            if _prec(e.left) < bp:
                left = f"({left})"
            if _prec(e.right) <= bp:
                right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression node: {e!r}")


def variables_of(e: Expr) -> set[str]:
    """Collect the state variables referenced by a tree."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Call):
        return variables_of(e.arg)
    if isinstance(e, Neg):
        return variables_of(e.operand)
    if isinstance(e, BinOp):
        return variables_of(e.left) | variables_of(e.right)
    return set()


def substitute(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace variables by subtrees (used for the sign-flip field map)."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Call):
        return Call(e.func, substitute(e.arg, mapping))
    if isinstance(e, Neg):
        return Neg(substitute(e.operand, mapping))
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.left, mapping), substitute(e.right, mapping))
    return e


def evaluate(e: Expr, env: dict[str, np.ndarray | float]):
    """Evaluate a tree over scalars or numpy arrays.

    Non-finite results (division by zero, log/sqrt out of domain,
    overflow) propagate as NaN/inf values; the field layer decides
    whether that is an error.  Callers should wrap in ``np.errstate``.
    """
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Call):
        return FUNCTIONS[e.func](evaluate(e.arg, env))
    if isinstance(e, Neg):
        return -evaluate(e.operand, env)
    if isinstance(e, BinOp):
        left = evaluate(e.left, env)
        right = evaluate(e.right, env)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if e.op == "/":
            return np.divide(left, right)
        return np.float_power(left, right)
    raise TypeError(f"not an expression node: {e!r}")
