"""Parser and evaluator for the closed-form sequence definition language.

A definition describes one exact rational per variable pair ``(i, n)``:
``i`` selects a family member, ``n`` is the 1-based position in the
sequence. Grammar (whitespace-insensitive, ``#`` starts a line comment)::

    file     := defn (";" defn)*
    defn     := "case" guard ":" expr | expr
    guard    := "i" ("odd" | "even") | "n" ("<" | ">=") int | "otherwise"
    expr     := term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := ("-")? atom ("^" int)?
    atom     := int | "n" | "i" | "(" expr ")"
    int      := [0-9]+

The token pattern ``_TOKEN`` is the lexical part of this grammar: it skips
blanks and comments and reads ints, names (runs of letters, as
``str.isalpha`` counts them) and the symbols. A name matches a keyword of the
grammar by its text, but never as the token kind ``int`` or ``end``.

Power binds tighter than unary minus, which binds tighter than ``*``/``/``,
then ``+``/``-``; equal-precedence binary operators associate left.
Exponents are literal nonnegative integers; rationals arise by division.
Every exponent, and every power's degree in ``n``, is at most ``MAX_DEGREE``;
more is a syntax error at the exponent, found before anything is evaluated.
Expressions nest at most ``MAX_DEPTH`` levels, each operator and each pair of
parentheses adding one; more is a syntax error at the operator or the
parenthesis that opens the level too many.
The degree of ``b^k`` is k times the degree of ``b``, where ``n`` has degree
1, literals and ``i`` have degree 0, ``*`` and ``/`` add degrees, ``+`` and
``-`` take the larger, and negation keeps it. Literals and ``i`` can still
make a base large, so evaluation also refuses any power whose numerator or
denominator could exceed ``MAX_POWER_BITS`` bits, checked on the base's
value before the power is taken.

A file with several clauses (or any guard) is piecewise: the first clause
whose guard accepts ``(i, n)`` is evaluated. The clause list must be total:
it either ends with an unguarded or ``otherwise`` clause, or contains both
``i odd`` and ``i even`` guards.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count, zip_longest
from math import gcd
from typing import Callable

from .listings import MAX_POWER_BITS, SetSpec
from .rational import parse_rational

# Largest exponent, and largest degree in n, that a power may have.
MAX_DEGREE = 100_000

# Largest nesting depth of an expression: each operator and each pair of
# parentheses adds a level. It bounds the recursion of parsing and evaluation.
MAX_DEPTH = 200


def _syntax_error(offset: int, expected: tuple[str, ...], found: str) -> ValueError:
    """A parse failure at character ``offset`` of the text."""
    return ValueError(f"offset {offset}: expected {' or '.join(expected)}, found {found}")


# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Var:
    name: str  # "n" or "i"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-", "*", "/"
    left: "Expr"
    right: "Expr"


Expr = Lit | Var | Neg | Pow | BinOp


@dataclass(frozen=True)
class ParityGuard:
    parity: str  # "odd" | "even"


@dataclass(frozen=True)
class ThresholdGuard:
    op: str  # "<" | ">="
    bound: int


@dataclass(frozen=True)
class Otherwise:
    pass


Guard = ParityGuard | ThresholdGuard | Otherwise


@dataclass(frozen=True)
class Clause:
    guard: Guard | None
    body: Expr


@dataclass(frozen=True)
class Piecewise:
    clauses: tuple[Clause, ...]


SequenceExpr = Expr | Piecewise


# --- Tokenizer ---------------------------------------------------------------

# Blanks and comments, skipped, then one token per named group, or the end.
# A ">" without "=" is stray. \w also takes numerals such as "²", so a name is
# checked with str.isalpha.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*(?:(?P<int>[0-9]+)|(?P<name>[^\W\d_]+)"
    r"|(?P<symbol>>=|[-+*/^():;<])|(?P<stray>.)|(?P<end>\Z))",
    re.DOTALL,
)


@dataclass(slots=True)
class _Token:
    kind: str  # "int", "end", "name" for a name spelling either, else the text
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    # Each match starts where the last one ended, the end token's match last.
    tokens = []
    for match in _TOKEN.finditer(text):
        group = match.lastgroup
        word, offset = match[group], match.start(group)
        if group == "name" and not word.isalpha():
            # The first non-letter ends the name and is itself stray.
            stray = next(ch for ch in word if not ch.isalpha())
            group, word, offset = "stray", stray, offset + word.index(stray)
        if group == "stray":
            expected = (">=",) if word == ">" else ("digit", "name", "operator")
            raise _syntax_error(offset, expected, repr(word))
        kind = word if group in ("name", "symbol") and word not in ("int", "end") else group
        tokens.append(_Token(kind, word, offset))
        if group == "end":
            return tokens


# --- Parser ------------------------------------------------------------------

# The binary operators, loosest level first.
_LEVELS = (("+", "-"), ("*", "/"))


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.open = 0  # parentheses open at the current token

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, *choices: str) -> _Token:
        """The next token, consumed, if its kind is one of ``choices``."""
        token = self.tokens[self.pos]
        if token.kind not in choices:
            found = "end of input" if token.kind == "end" else repr(token.text)
            raise _syntax_error(token.offset, choices, found)
        self.pos += 1
        return token

    def degree_error(self, exponent: _Token) -> ValueError:
        expected = f"an exponent and a degree in n <= {MAX_DEGREE}"
        text = exponent.text if len(exponent.text) <= 20 else exponent.text[:20] + "..."
        return _syntax_error(exponent.offset, (expected,), repr(text))

    def parse_file(self) -> SequenceExpr:
        clauses = [self.parse_defn()]
        while self.peek().kind != "end":
            self.take(";")
            clauses.append(self.parse_defn())
        if len(clauses) == 1 and clauses[0].guard is None:
            return clauses[0].body
        _check_total(clauses)
        return Piecewise(tuple(clauses))

    def parse_defn(self) -> Clause:
        guard = None
        if self.peek().kind == "case":
            self.take("case")
            guard = self.parse_guard()
            self.take(":")
        return Clause(guard, self.parse_expr()[0])

    def parse_guard(self) -> Guard:
        token = self.take("i", "n", "otherwise")
        if token.kind == "otherwise":
            return Otherwise()
        if token.kind == "i":
            return ParityGuard(self.take("odd", "even").text)
        op = self.take("<", ">=")
        return ThresholdGuard(op.kind, parse_rational(self.take("int").text).numerator)

    def nest(self, token: _Token, depth: int) -> int:
        """Depth of the node that ``token`` opens over a child of ``depth``."""
        if depth >= MAX_DEPTH:
            expected = f"a nesting depth <= {MAX_DEPTH}"
            raise _syntax_error(token.offset, (expected,), repr(token.text))
        return depth + 1

    # The expression methods return each node with its nesting depth.

    def parse_expr(self, level: int = 0) -> tuple[Expr, int]:
        """Operands joined by the operators of ``_LEVELS[level]``, left to right;
        each operand is the next level, or a factor after the last. Called
        directly, so that each parenthesis level takes four frames."""
        operators = _LEVELS[level]
        node, depth = self.parse_factor() if level else self.parse_expr(1)
        while self.peek().kind in operators:
            op = self.take(*operators)
            right, right_depth = self.parse_factor() if level else self.parse_expr(1)
            node, depth = BinOp(op.kind, node, right), self.nest(op, max(depth, right_depth))
        return node, depth

    def parse_factor(self) -> tuple[Expr, int]:
        minus = self.take("-") if self.peek().kind == "-" else None
        node, depth = self.parse_atom()
        if self.peek().kind == "^":
            caret = self.take("^")
            exponent = self.take("int")
            digits = exponent.text.lstrip("0") or "0"
            if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                raise self.degree_error(exponent)
            node, depth = Pow(node, int(digits)), self.nest(caret, depth)
            if _degree(node) > MAX_DEGREE:
                raise self.degree_error(exponent)
        if minus is not None:
            node, depth = Neg(node), self.nest(minus, depth)
        return node, depth

    def parse_atom(self) -> tuple[Expr, int]:
        token = self.take("int", "n", "i", "(")
        if token.kind == "int":
            # parse_rational reads integers of any length.
            return Lit(parse_rational(token.text).numerator), 0
        if token.kind in ("n", "i"):
            return Var(token.text), 0
        # Checked before descending, so that deep parentheses cannot exhaust
        # the stack: a group is at least as deep as the number of parentheses
        # open around it, its own included.
        self.nest(token, self.open)
        self.open += 1
        node, depth = self.parse_expr()
        self.open -= 1
        self.take(")")
        return node, self.nest(token, depth)


def _degree(e: Expr) -> int:
    if isinstance(e, Pow):
        return e.exponent * _degree(e.base)
    if isinstance(e, Neg):
        return _degree(e.operand)
    if isinstance(e, BinOp):
        left, right = _degree(e.left), _degree(e.right)
        return left + right if e.op in ("*", "/") else max(left, right)
    return 1 if isinstance(e, Var) and e.name == "n" else 0


def _check_total(clauses: list[Clause]) -> None:
    last = clauses[-1].guard
    if last is None or isinstance(last, Otherwise):
        return
    parities = {c.guard.parity for c in clauses if isinstance(c.guard, ParityGuard)}
    if parities == {"odd", "even"}:
        return
    raise ValueError(
        "piecewise definition must end with a fallback clause or contain both parity guards"
    )


def parse(text: str) -> SequenceExpr:
    """Parse a definition (the contents of a ``.seq`` file)."""
    return _Parser(_tokenize(text)).parse_file()


# --- Evaluator ---------------------------------------------------------------
#
# A definition compiles once per family member i into nested closures, each
# giving its node's value at n as a (numerator, denominator) pair reduced as
# Fraction reduces its own arithmetic: lowest terms, positive denominator. So
# the pair is the value's listing key, and the power cap reads the reduced
# base. Left operands go first: when both sides fail, the same error wins.
#
# With i fixed, a clause without a power is one rational function P(n)/Q(n)
# with integer coefficients, built by polynomial arithmetic that cancels only
# constant factors: (p/q)/(r/s) is p*s^2 / (q*r*s), so Q vanishes exactly where
# the closures divide by zero. Elsewhere Horner, a sign fix and one gcd give
# the closures' key. A power keeps the closures, since the power cap reads the
# reduced base.


def _add(p: int, q: int, r: int, s: int) -> tuple[int, int]:
    if q == s == 1:  # integers, the common case, skip the gcds
        return p + r, 1
    g = gcd(q, s)
    t = p * (s // g) + r * (q // g)
    g2 = gcd(t, g)
    return t // g2, (q // g) * (s // g2)


def _mul(p: int, q: int, r: int, s: int) -> tuple[int, int]:
    if q == s == 1:
        return p * r, 1
    g1, g2 = gcd(p, s), gcd(r, q)
    return (p // g1) * (r // g2), (q // g2) * (s // g1)


_ARITH = {
    "+": _add, "-": lambda p, q, r, s: _add(p, q, -r, s), "*": _mul,
    "/": lambda p, q, r, s: _mul(p, q, s, r) if r > 0 else _mul(p, q, -s, -r),
}


def _compile(e: Expr, i: int) -> Callable[[int], tuple[int, int]]:
    if isinstance(e, Var) and e.name == "n":
        return lambda n: (n, 1)
    if isinstance(e, (Lit, Var)):
        pair = (i if isinstance(e, Var) else e.value, 1)
        return lambda n: pair
    if isinstance(e, Neg):  # -x is (-1) * x
        return _compile(BinOp("*", Lit(-1), e.operand), i)
    if isinstance(e, Pow):
        base, k = _compile(e.base, i), e.exponent

        def power(n: int) -> tuple[int, int]:
            p, q = base(n)
            bits = max(p.bit_length(), q.bit_length()) * k
            if bits > MAX_POWER_BITS:
                raise ValueError(
                    f"power of up to {bits} bits at (i={i}, n={n}) "
                    f"exceeds the {MAX_POWER_BITS}-bit cap"
                )
            return p**k, q**k

        return power
    left, right = _compile(e.left, i), _compile(e.right, i)
    arith, divides = _ARITH[e.op], e.op == "/"

    def binop(n: int) -> tuple[int, int]:
        p, q = left(n)
        r, s = right(n)
        if divides and r == 0:
            raise ZeroDivisionError(f"division by zero at (i={i}, n={n})")
        return arith(p, q, r, s)

    return binop


def _accepts(guard: Guard | None, i: int) -> Callable[[int], bool]:
    if isinstance(guard, ThresholdGuard):
        bound, below = guard.bound, guard.op == "<"
        return lambda n: (n < bound) == below
    # A parity guard is decided by i alone.
    accepted = not isinstance(guard, ParityGuard) or (i % 2 == 1) == (guard.parity == "odd")
    return lambda n: accepted


# A clause whose P or Q passes this degree or coefficient bit length keeps its
# closures.
HORNER_MAX_DEGREE = 16
HORNER_MAX_BITS = 4096


def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            out[j + k] += x * y
    return out


def rational_function(e: Expr, i: int) -> tuple[list[int], list[int]] | None:
    """The expression at ``i`` as the coefficients of P and Q, constant term
    first, with Q(n) = 0 exactly where its closures divide by zero and
    P(n)/Q(n) their value elsewhere; None for a power or lists too large."""
    if isinstance(e, Lit):
        return [e.value], [1]
    if isinstance(e, Var):
        return ([0, 1] if e.name == "n" else [i]), [1]
    if isinstance(e, Pow):
        return None
    if isinstance(e, Neg):
        e = BinOp("*", Lit(-1), e.operand)
    left, right = rational_function(e.left, i), rational_function(e.right, i)
    if left is None or right is None:
        return None
    (p, q), (r, s) = left, right
    if e.op == "*":
        num, den = _pmul(p, r), _pmul(q, s)
    elif e.op == "/":
        num, den = _pmul(p, _pmul(s, s)), _pmul(_pmul(q, r), s)
    else:
        sign = 1 if e.op == "+" else -1
        terms = zip_longest(_pmul(p, s), _pmul(r, q), fillvalue=0)
        num, den = [x + sign * y for x, y in terms], _pmul(q, s)
    c = gcd(*num, *den)
    if c > 1:
        num, den = [x // c for x in num], [x // c for x in den]
    if max(len(num), len(den)) > HORNER_MAX_DEGREE + 1:
        return None
    if max(map(abs, num + den)).bit_length() > HORNER_MAX_BITS:
        return None
    return num, den


def _compile_member(body: Expr, i: int) -> Callable[[int], tuple[int, int]]:
    """The clause body for the family member ``i``: by Horner when it has a
    rational function, a precomputed key when that has degree 0."""
    rational = rational_function(body, i)
    if rational is None:
        return _compile(body, i)
    num, den = rational[0][::-1], rational[1][::-1]

    def value(n: int) -> tuple[int, int]:
        p = q = 0
        for c in num:
            p = p * n + c
        for c in den:
            q = q * n + c
        if not q:
            raise ZeroDivisionError(f"division by zero at (i={i}, n={n})")
        if q < 0:
            p, q = -p, -q
        g = gcd(p, q)
        return p // g, q // g

    if len(num) == len(den) == 1 and den[0]:
        key = value(0)
        return lambda n: key
    return value


def compile_definition(expr: SequenceExpr, i: int) -> Callable[[int], tuple[int, int]]:
    """The definition for the family member ``i`` as an exact function of
    ``n``, giving each value as its reduced (numerator, denominator) pair; the
    first accepting clause decides, and each clause without a power goes by
    Horner."""
    if not isinstance(expr, Piecewise):
        return _compile_member(expr, i)
    cases = [(_accepts(c.guard, i), _compile_member(c.body, i)) for c in expr.clauses]

    def value(n: int) -> tuple[int, int]:
        for accepts, body in cases:
            if accepts(n):
                return body(n)
        raise RuntimeError("piecewise dispatch fell through a total clause list")

    return value


def seq_spec(expr: SequenceExpr, i: int, name: str) -> SetSpec:
    """Set spec whose natural listing evaluates the definition, compiled once
    here, at ``n = 1, 2, ...`` for the family member ``i``; its stream yields
    the evaluator's reduced pairs as the listing's keys.

    Repeated values are skipped by the listing layer; a definition that stays
    on old values for ``DEDUP_RUN_LIMIT`` steps in a row is cut off there.
    """
    value = compile_definition(expr, i)
    return SetSpec(name, lambda: map(value, count(1)))
