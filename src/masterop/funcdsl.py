"""A small expression language for user-defined u(x, t) on the command line.

Grammar (standard precedence, left associative, pow binds tightest):

    expr    := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' NUMBER)*
    atom    := NUMBER | 'x1'|'x2'|'x3' | 't' | NAME '(' args ')' | '(' expr ')'

The functions are the keys of ``FUNCTIONS``: ``neg`` is the prefix minus,
every other one is called as ``name(e)``.  Family atoms phi(j,alpha,beta),
psi(j,alpha,beta), w(j,gamma) take numeric literals.  Power exponents must
be literals so differentiability metadata stays decidable.
"""
from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import families
from .handles import C1_TIME, FunctionHandle, SMOOTH, SupportBox, constant
from .kernel import NORMALIZED

#: the functions of the language: name -> numpy callable.  ``neg`` is
#: written as the prefix minus ``-e``, every other name as ``name(e)``.
FUNCTIONS = {
    "neg": np.negative,
    "exp": np.exp,
    "cos": np.cos,
    "sin": np.sin,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "pos": lambda v: np.maximum(v, 0.0),    # positive part
    "bump": families.standard_bump,
}

#: the binary operators: symbol -> numpy callable.  '^' is not among them:
#: its exponent is a literal, stored as a Num.
OPERATORS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}

_FAMILY_ARITY = {"phi": 3, "psi": 3, "w": 2}


class ParseError(ValueError):
    """Syntax or validation error with a 1-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str       # x1, x2, x3 or t


@dataclass(frozen=True)
class Unary:
    op: str         # a key of FUNCTIONS
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str         # a key of OPERATORS, or '^' with a Num exponent
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Family:
    name: str       # phi, psi, w
    args: tuple


Expr = Num | Var | Unary | Bin | Family


#: kind is num, name, end or the punctuation character itself; column is 1-based
_Token = namedtuple("_Token", "kind text column value", defaults=(0.0,))
_TOKEN = re.compile(r"(?P<num>(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)?)|(?P<name>[^\W\d]\w*)"
                    r"|(?P<space>\s+)|(?P<punct>[-+*/^(),])|(?P<bad>.)", re.DOTALL)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, tok, col = m.lastgroup, m.group(), m.start() + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", col)
        if kind == "num":
            try:
                tokens.append(_Token(kind, tok, col, float(tok)))
            except ValueError:
                raise ParseError(f"bad number {tok!r}", col) from None
        elif kind != "space":
            tokens.append(_Token(tok if kind == "punct" else kind, tok, col))
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, *kinds: str) -> _Token | None:
        """Consume and return the next token if its kind is one of ``kinds``."""
        tok = self.tokens[self.pos]
        if tok.kind not in kinds:
            return None
        self.pos += 1
        return tok

    def expect(self, kind: str) -> None:
        if not self.take(kind):
            raise ParseError(f"expected {kind!r}", self.peek().column)

    def literal(self, message: str) -> float:
        """An optionally negated numeric literal; ``message`` if there is none."""
        neg = self.take("-")
        tok = self.take("num")
        if not tok:
            raise ParseError(message, self.peek().column)
        return -tok.value if neg else tok.value

    def expr(self) -> Expr:
        node = self.term()
        while tok := self.take("+", "-"):
            node = Bin(tok.kind, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while tok := self.take("*", "/"):
            node = Bin(tok.kind, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.take("-"):
            return Unary("neg", self.unary())
        node = self.atom()
        while self.take("^"):
            node = Bin("^", node, Num(self.literal("power exponent must be a numeric literal")))
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if self.take("num"):
            return Num(tok.value)
        if self.take("("):
            node = self.expr()
            self.expect(")")
            return node
        if not self.take("name"):
            raise ParseError("expected an expression", tok.column)
        name = tok.text
        if name in ("x1", "x2", "x3", "t"):
            return Var(name)
        if name in FUNCTIONS and name != "neg":
            self.expect("(")
            node = Unary(name, self.expr())
            self.expect(")")
            return node
        if name not in _FAMILY_ARITY:
            raise ParseError(f"unknown identifier {name!r}", tok.column)
        self.expect("(")
        args = []
        while not args or self.take(","):
            args.append(self.literal("family arguments must be numeric literals"))
        self.expect(")")
        if len(args) != _FAMILY_ARITY[name]:
            raise ParseError(f"{name}() takes {_FAMILY_ARITY[name]} arguments", tok.column)
        return Family(name, tuple(args))


def parse(text: str) -> Expr:
    """Parse an expression; raises ParseError with a 1-based column."""
    if not text or not text.strip():
        raise ParseError("empty expression", 1)
    parser = _Parser(text)
    e = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {tok.text!r}", tok.column)
    return e


def to_string(e: Expr) -> str:
    """Fully parenthesized rendering that reparses to an identical tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"(-{to_string(e.arg)})"
        return f"{e.op}({to_string(e.arg)})"
    if isinstance(e, Bin):
        return f"({to_string(e.left)}{e.op}{to_string(e.right)})"
    if isinstance(e, Family):
        return f"{e.name}({','.join(repr(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")


def _nodes(e: Expr):
    """Every node of the tree, depth first, parents before children."""
    yield e
    if isinstance(e, Unary):
        yield from _nodes(e.arg)
    elif isinstance(e, Bin):
        yield from _nodes(e.left)
        yield from _nodes(e.right)


def validate(e: Expr, dim: int) -> None:
    """Check variable indices against the run dimension and family parameters."""
    for node in _nodes(e):
        if isinstance(node, Var) and node.name != "t" and int(node.name[1]) > dim:
            raise ParseError(f"variable {node.name} invalid in a {dim}-D run", 1)
        if isinstance(node, Family):
            j = node.args[0]
            if j < 1 or j != int(j):
                raise ParseError(f"{node.name}() needs a positive integer index", 1)
            if any(a <= 0 for a in node.args[1:]):
                raise ParseError(f"{node.name}() parameters must be positive", 1)


def _evaluate(e: Expr, pts, tt, s: float, n: int, normalization: str):
    if isinstance(e, Num):
        return np.full(pts.shape[0], e.value)
    if isinstance(e, Var):
        return tt.astype(float) if e.name == "t" else pts[:, int(e.name[1]) - 1]
    if isinstance(e, Family):
        return _family_handle(e, s, n, normalization).evaluator(pts, tt)
    if isinstance(e, Unary):
        return FUNCTIONS[e.op](_evaluate(e.arg, pts, tt, s, n, normalization))
    a = _evaluate(e.left, pts, tt, s, n, normalization)
    if e.op == "^":
        return a ** e.right.value
    return OPERATORS[e.op](a, _evaluate(e.right, pts, tt, s, n, normalization))


@lru_cache(maxsize=256)
def _family_handle(e: Family, s: float, n: int, normalization: str) -> FunctionHandle:
    if e.name != "w":
        make = {"phi": families.phi_family, "psi": families.psi_family}[e.name]
        return make(int(e.args[0]), *e.args[1:], dim=n)
    if s is None:
        raise ParseError("w() needs the fractional order from the run config", 1)
    return families.w_family(int(e.args[0]), e.args[1], s, n=n, normalization=normalization)


def to_handle(e: Expr, dim: int, s: float | None = None,
              normalization: str = NORMALIZED,
              support: SupportBox | None = None,
              growth: str | None = None) -> FunctionHandle:
    """Compile an AST into a FunctionHandle.

    The support box is inferred when the expression is exactly one family
    atom; otherwise it is absent unless overridden.  pos() (and the w
    family) limit time regularity to C^1 and mark the kink at t = 0.
    """
    validate(e, dim)
    if isinstance(e, Family):
        base = _family_handle(e, s, dim, normalization)
        if support is not None or growth is not None:
            base = replace(base, support=support or base.support,
                           growth=growth or base.growth)
        return base

    def evaluator(pts, tt):
        # a non-finite value is reported by the quadrature, not as a warning
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            return np.asarray(_evaluate(e, pts, tt, s, dim, normalization), dtype=float)

    nodes = list(_nodes(e))
    if not any(isinstance(node, (Var, Family)) for node in nodes):
        return constant(evaluator(np.zeros((1, dim)), np.zeros(1))[0], dim)
    c1 = any((isinstance(node, Unary) and node.op == "pos")
             or (isinstance(node, Family) and node.name == "w") for node in nodes)
    return FunctionHandle(
        evaluator=evaluator, dim=dim, support=support, growth=growth,
        smoothness=C1_TIME if c1 else SMOOTH,
        time_kinks=(0.0,) if c1 else (),
    )
