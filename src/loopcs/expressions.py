"""Expression trees over the circle coordinate alpha and an integer parameter a.

Node kinds: number, alpha, a, +, -, *, /, integer power, sin, cos.  The
grammar does not force 2*pi-periodicity in alpha (``alpha`` may appear
outside a trig function, or as ``sin(0.5*alpha)``).  ``alpha_frequencies``
reads a period off a tree whose every sin/cos argument is an integer
multiple of alpha plus a constant; :class:`~loopcs.geometry.BergerMetric`
rejects the other trees when their jets at 0 and 2*pi disagree.  Trees
are immutable; operators on nodes build new trees (with light constant
folding), so metric families like
``2 + (1/a)*cos(a*alpha)*sin(a*alpha)`` can be written once and evaluated
for any a.

Evaluation returns a :class:`~loopcs.jets.Jet2`, i.e. the value and the
first two alpha-derivatives, exactly, and does only the array work a tree
needs.  One walk reads every subtree that is linear in alpha as (k, c),
k*alpha + c once a is substituted (the reading ``alpha_frequencies`` also
uses): alpha-free subtrees fold to float constants, and sin/cos of
k*alpha + c become the direct jets (s, k*c, -k^2*s) and (c, -k*s, -k^2*c)
of s, c = np.sin, np.cos of the argument.  Trees evaluated in one call
share that pair per distinct argument (the built-in family's three scales
need one np.sin and one np.cos), and a constant adds to or scales a jet
as a scalar.  Only the remaining nodes propagate Jet2s.  ``derivative``
differentiates symbolically, producing another tree in the same grammar.

The concrete grammar parsed by :func:`parse_expression`::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | 'alpha' | 'a' | 'sin' '(' expr ')'
            | 'cos' '(' expr ')' | '(' expr ')' | '-' base

Whitespace is insignificant; numbers are decimal literals.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .jets import Jet2, Number


class EvalDomainError(ArithmeticError):
    """Evaluation hit a pole (division by zero / negative power of zero)."""


class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected: tuple = ()):
        super().__init__(f"{message} at offset {position}"
                         + (f", expected {' or '.join(expected)}" if expected else ""))
        self.position = position
        self.expected = expected


class Expr:
    """Base class for expression nodes."""

    def __add__(self, other):
        return _add(self, _coerce(other))

    def __radd__(self, other):
        return _add(_coerce(other), self)

    def __sub__(self, other):
        return _sub(self, _coerce(other))

    def __rsub__(self, other):
        return _sub(_coerce(other), self)

    def __mul__(self, other):
        return _mul(self, _coerce(other))

    def __rmul__(self, other):
        return _mul(_coerce(other), self)

    def __truediv__(self, other):
        return _div(self, _coerce(other))

    def __rtruediv__(self, other):
        return _div(_coerce(other), self)

    def __neg__(self):
        return _mul(Num(-1.0), self)

    def __pow__(self, k: int):
        return _pow(self, k)


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def __str__(self):
        # positional, so the grammar's decimal literals read it back: repr
        # writes 1e-05, which does not parse
        return np.format_float_positional(self.value, unique=True, trim="0")


@dataclass(frozen=True)
class Alpha(Expr):
    def __str__(self):
        return "alpha"


@dataclass(frozen=True)
class ParamA(Expr):
    def __str__(self):
        return "a"


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr

    def __str__(self):
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr

    def __str__(self):
        return f"({self.left} - {self.right})"


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr

    def __str__(self):
        return f"({self.left} * {self.right})"


@dataclass(frozen=True)
class Div(Expr):
    num: Expr
    den: Expr

    def __str__(self):
        return f"({self.num} / {self.den})"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __str__(self):
        return f"({self.base})^{self.exponent}"


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr

    def __str__(self):
        return f"sin({self.arg})"


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr

    def __str__(self):
        return f"cos({self.arg})"


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Num(float(x))
    raise TypeError(f"cannot use {type(x).__name__} in an expression")


def constant_value(e: Expr) -> Optional[float]:
    """Fold a subtree to a number if it contains neither alpha nor a."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, (Alpha, ParamA)):
        return None
    if isinstance(e, (Add, Sub, Mul)):
        l, r = constant_value(e.left), constant_value(e.right)
        if l is None or r is None:
            return None
        return {Add: l + r, Sub: l - r, Mul: l * r}[type(e)]
    if isinstance(e, Div):
        n, d = constant_value(e.num), constant_value(e.den)
        return None if (n is None or d is None or d == 0.0) else n / d
    if isinstance(e, Pow):
        b = constant_value(e.base)
        return None if b is None else b ** e.exponent
    if isinstance(e, Sin):
        a = constant_value(e.arg)
        return None if a is None else float(np.sin(a))
    if isinstance(e, Cos):
        a = constant_value(e.arg)
        return None if a is None else float(np.cos(a))
    raise TypeError(f"unknown node {type(e).__name__}")


def _children(e: Expr) -> tuple:
    if isinstance(e, Div):
        return e.num, e.den
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Sin, Cos)):
        return (e.arg,)
    if isinstance(e, (Add, Sub, Mul)):
        return e.left, e.right
    raise TypeError(f"unknown node {type(e).__name__}")


def _leaf(e: Expr, a: int) -> Optional[tuple[float, float]]:
    """(k, c) of a leaf, e = k*alpha + c; None for an inner node."""
    if isinstance(e, Num):
        return 0.0, e.value
    if isinstance(e, ParamA):
        return 0.0, float(a)
    if isinstance(e, Alpha):
        return 1.0, 0.0
    return None


def _linear_node(e: Expr, parts: list) -> Optional[tuple[float, float]]:
    """(k, c) of the inner node e from the (k, c) of its children, or None
    when e is not linear in alpha or is a pole (a zero denominator, a
    negative power of zero)."""
    if isinstance(e, (Sin, Cos, Pow)):
        k, c = parts[0]
        if k != 0.0 or (isinstance(e, Pow) and c == 0.0 and e.exponent < 0):
            return None   # a power or a sin/cos of alpha is not linear in it
        with np.errstate(all="ignore"):   # inf or nan fails the integer test
            c = (np.float64(c) ** e.exponent if isinstance(e, Pow)
                 else np.sin(c) if isinstance(e, Sin) else np.cos(c))
        return 0.0, float(c)
    if isinstance(e, Div):
        n, d = parts
        if d[0] != 0.0 or d[1] == 0.0:
            return None
        return n[0] / d[1], n[1] / d[1]
    l, r = parts
    if isinstance(e, Add):
        return l[0] + r[0], l[1] + r[1]
    if isinstance(e, Sub):
        return l[0] - r[0], l[1] - r[1]
    if l[0] != 0.0 and r[0] != 0.0:
        return None   # alpha^2
    return l[0] * r[1] + r[0] * l[1], l[1] * r[1]


def _linear_in_alpha(e: Expr, a: int) -> Optional[tuple[float, float]]:
    """(k, c) with e = k*alpha + c once a is substituted, or None."""
    leaf = _leaf(e, a)
    if leaf is not None:
        return leaf
    parts = [_linear_in_alpha(child, a) for child in _children(e)]
    return None if None in parts else _linear_node(e, parts)


def alpha_frequencies(e: Expr, a: int = 1) -> Optional[frozenset]:
    """The |k| of every sin/cos argument k*alpha + c with k != 0, or None.

    Each k must be an integer once a is substituted; the tree is then a
    function of the sin/cos of these multiples of alpha, hence 2*pi/g
    periodic with g the gcd of the k.  None when alpha appears outside a
    sin/cos argument, or inside one that is not linear in alpha with an
    integer slope: no period can be read off the tree.
    """
    if isinstance(e, (Num, ParamA)):
        return frozenset()
    if isinstance(e, Alpha):
        return None
    if isinstance(e, (Sin, Cos)):
        linear = _linear_in_alpha(e.arg, a)
        if linear is None or not linear[0].is_integer():
            return None
        return frozenset({abs(int(linear[0]))} - {0})
    found = frozenset()
    for child in _children(e):
        k = alpha_frequencies(child, a)
        if k is None:
            return None
        found |= k
    return found


# smart constructors: fold constants and drop arithmetic identities so that
# symbolic derivatives stay compact

def _add(l: Expr, r: Expr) -> Expr:
    lc, rc = constant_value(l), constant_value(r)
    if lc is not None and rc is not None:
        return Num(lc + rc)
    if lc == 0.0:
        return r
    if rc == 0.0:
        return l
    return Add(l, r)


def _sub(l: Expr, r: Expr) -> Expr:
    lc, rc = constant_value(l), constant_value(r)
    if lc is not None and rc is not None:
        return Num(lc - rc)
    if rc == 0.0:
        return l
    return Sub(l, r)


def _mul(l: Expr, r: Expr) -> Expr:
    lc, rc = constant_value(l), constant_value(r)
    if lc is not None and rc is not None:
        return Num(lc * rc)
    if lc == 0.0 or rc == 0.0:
        return Num(0.0)
    if lc == 1.0:
        return r
    if rc == 1.0:
        return l
    return Mul(l, r)


def _div(n: Expr, d: Expr) -> Expr:
    dc = constant_value(d)
    if dc == 0.0:
        raise ValueError(f"division by the identically-zero denominator '{d}'")
    nc = constant_value(n)
    if nc is not None and dc is not None:
        return Num(nc / dc)
    if nc == 0.0:
        return Num(0.0)
    if dc == 1.0:
        return n
    return Div(n, d)


def _pow(b: Expr, k: int) -> Expr:
    if not isinstance(k, int):
        raise TypeError("power exponent must be an integer")
    if k == 0:
        return Num(1.0)
    if k == 1:
        return b
    bc = constant_value(b)
    if bc is not None:
        if bc == 0.0 and k < 0:
            raise ValueError("zero base with negative exponent")
        return Num(bc ** k)
    return Pow(b, k)


def evaluate(e: Expr | tuple, alpha: Number, a: int = 1) -> Jet2 | tuple:
    """Jet of e at alpha: value and first two exact alpha-derivatives.

    alpha may be a scalar or an ndarray (evaluated elementwise).  e may
    also be a tuple of trees, evaluated together into a tuple of jets that
    share one np.sin/np.cos pair per distinct linear argument.  Raises
    EvalDomainError if a denominator vanishes at any evaluation point.
    """
    # sin/cos of k*alpha + c by (k, c); a plain local, freed on return
    trig = {}
    if isinstance(e, Expr):
        return _jet(_walk(e, alpha, a, trig), alpha)
    return tuple(_jet(_walk(tree, alpha, a, trig), alpha) for tree in e)


def _line(k: float, c: float, alpha: Number) -> Number:
    return k * alpha + c if c != 0.0 else k * alpha


def _jet(x, alpha: Number) -> Jet2:
    """A walk result as a jet: (k, c) is (k*alpha + c, k, 0)."""
    if isinstance(x, Jet2):
        return x
    k, c = x
    return Jet2(c, 0.0, 0.0) if k == 0.0 else Jet2(_line(k, c, alpha), k, 0.0)


def _constant(x) -> Optional[float]:
    return x[1] if isinstance(x, tuple) and x[0] == 0.0 else None


def _walk(e: Expr, alpha: Number, a: int, trig: dict):
    """e at alpha as (k, c), i.e. k*alpha + c (a float constant c when
    k == 0), while the subtree is linear in alpha, and as a Jet2 above
    that.  Only jets cost array work, and a constant enters it as a
    scalar."""
    leaf = _leaf(e, a)
    if leaf is not None:
        return leaf
    if isinstance(e, Div):
        return _divide(e, alpha, a, trig)
    parts = [_walk(child, alpha, a, trig) for child in _children(e)]
    if all(isinstance(p, tuple) for p in parts):
        linear = _linear_node(e, parts)
        if linear is not None:
            return linear
    if isinstance(e, (Sin, Cos)):
        arg = parts[0]
        if isinstance(arg, Jet2):
            return arg.sin() if isinstance(e, Sin) else arg.cos()
        k, c = arg   # k != 0: the jets of sin and cos of k*alpha + c
        if arg not in trig:
            x = _line(k, c, alpha)
            trig[arg] = np.sin(x), np.cos(x)
        s, co = trig[arg]
        return Jet2(s, k * co, -k * k * s) if isinstance(e, Sin) else Jet2(co, -k * s, -k * k * co)
    if isinstance(e, Pow):
        base = _jet(parts[0], alpha)
        if e.exponent < 0 and np.any(np.asarray(base.v) == 0.0):
            raise EvalDomainError(f"negative power of zero in '{e}'")
        return base ** e.exponent
    l, r = parts
    lc, rc = _constant(l), _constant(r)
    # a constant with a line was read as a line above, so the other is a jet
    if lc is not None:
        if isinstance(e, Add):
            return Jet2(lc + r.v, r.d1, r.d2)
        if isinstance(e, Sub):
            return Jet2(lc - r.v, -r.d1, -r.d2)
        return Jet2(lc * r.v, lc * r.d1, lc * r.d2)
    if rc is not None:
        if isinstance(e, Add):
            return Jet2(l.v + rc, l.d1, l.d2)
        if isinstance(e, Sub):
            return Jet2(l.v - rc, l.d1, l.d2)
        return Jet2(l.v * rc, l.d1 * rc, l.d2 * rc)
    l, r = _jet(l, alpha), _jet(r, alpha)
    return l + r if isinstance(e, Add) else l - r if isinstance(e, Sub) else l * r


def _divide(e: Div, alpha: Number, a: int, trig: dict):
    # the denominator is walked and checked before the numerator, so a pole
    # in both is reported as the denominator's
    den = _walk(e.den, alpha, a, trig)
    dc = _constant(den)
    if dc is None:
        den = _jet(den, alpha)
    if dc == 0.0 or (dc is None and np.any(np.asarray(den.v) == 0.0)):
        raise EvalDomainError(f"division by zero in '{e.den}'")
    num = _walk(e.num, alpha, a, trig)
    if dc is not None:
        if isinstance(num, tuple):
            return _linear_node(e, [num, den])
        return Jet2(num.v / dc, num.d1 / dc, num.d2 / dc)
    return _jet(num, alpha) / den


def derivative(e: Expr) -> Expr:
    """Symbolic d/dalpha, staying inside the grammar."""
    if isinstance(e, (Num, ParamA)):
        return Num(0.0)
    if isinstance(e, Alpha):
        return Num(1.0)
    if isinstance(e, Add):
        return _add(derivative(e.left), derivative(e.right))
    if isinstance(e, Sub):
        return _sub(derivative(e.left), derivative(e.right))
    if isinstance(e, Mul):
        return _add(_mul(derivative(e.left), e.right), _mul(e.left, derivative(e.right)))
    if isinstance(e, Div):
        num = _sub(_mul(derivative(e.num), e.den), _mul(e.num, derivative(e.den)))
        return _div(num, _pow(e.den, 2))
    if isinstance(e, Pow):
        return _mul(_mul(Num(float(e.exponent)), _pow(e.base, e.exponent - 1)),
                    derivative(e.base))
    if isinstance(e, Sin):
        return _mul(Cos(e.arg), derivative(e.arg))
    if isinstance(e, Cos):
        return _mul(Num(-1.0), _mul(Sin(e.arg), derivative(e.arg)))
    raise TypeError(f"unknown node {type(e).__name__}")


# ---------------------------------------------------------------------------
# recursive-descent parser

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)|(alpha|a|sin|cos)|([()+\-*/^]))")


def _tokenize(src: str):
    tokens = []  # (kind, text, position)
    pos = 0
    while pos < len(src):
        if src[pos:].strip() == "":
            break
        m = _TOKEN.match(src, pos)
        if m is None:
            at = pos + len(src[pos:]) - len(src[pos:].lstrip())
            raise ParseError(f"unexpected character {src[at]!r}", at)
        number, word, op = m.groups()
        start = m.end() - len(m.group().lstrip())
        if number is not None:
            tokens.append(("number", number, start))
        elif word is not None:
            tokens.append((word, word, start))
        else:
            tokens.append((op, op, start))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    @property
    def tok(self):
        return self.tokens[self.i]

    def advance(self):
        self.i += 1

    def expect(self, kind: str):
        if self.tok[0] != kind:
            raise ParseError(f"unexpected {self.tok[1]!r}" if self.tok[0] != "end"
                             else "unexpected end of input",
                             self.tok[2], expected=(f"'{kind}'",))
        t = self.tok
        self.advance()
        return t

    def parse(self) -> Expr:
        e = self.expr()
        if self.tok[0] != "end":
            raise ParseError(f"unexpected {self.tok[1]!r}", self.tok[2],
                             expected=("operator", "end of input"))
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.tok[0] in ("+", "-"):
            op = self.tok[0]
            self.advance()
            rhs = self.term()
            e = _add(e, rhs) if op == "+" else _sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.tok[0] in ("*", "/"):
            op = self.tok[0]
            self.advance()
            rhs = self.factor()
            e = _mul(e, rhs) if op == "*" else _div(e, rhs)
        return e

    def factor(self) -> Expr:
        e = self.base()
        if self.tok[0] == "^":
            self.advance()
            sign = 1
            if self.tok[0] == "-":
                sign = -1
                self.advance()
            kind, text, at = self.tok
            if kind != "number" or not re.fullmatch(r"\d+", text):
                raise ParseError("power needs an integer exponent", at,
                                 expected=("integer",))
            self.advance()
            try:
                e = _pow(e, sign * int(text))
            except OverflowError:
                raise ParseError("constant power overflows a float", at) from None
        return e

    def base(self) -> Expr:
        kind, text, at = self.tok
        if kind == "number":
            self.advance()
            return Num(float(text))
        if kind == "alpha":
            self.advance()
            return Alpha()
        if kind == "a":
            self.advance()
            return ParamA()
        if kind in ("sin", "cos"):
            self.advance()
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Sin(arg) if kind == "sin" else Cos(arg)
        if kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if kind == "-":
            self.advance()
            return -self.base()
        raise ParseError(f"unexpected {text!r}" if kind != "end" else "unexpected end of input",
                         at, expected=("number", "'alpha'", "'a'", "'sin'", "'cos'", "'('"))


def parse_expression(src: str) -> Expr:
    """Parse the metric-function grammar into an expression tree."""
    return _Parser(src).parse()
