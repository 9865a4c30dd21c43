"""Expression trees over the circle coordinate alpha and an integer parameter a.

Node kinds: number, alpha, a, +, -, *, /, integer power, sin, cos.  The
grammar does not force 2*pi-periodicity in alpha (``alpha`` may appear
outside a trig function, or as ``sin(0.5*alpha)``).  A period is read off
trees in which alpha shows only in sin/cos arguments, each linear one an
integer multiple of alpha plus a constant (JetProgram.frequencies;
``sin(sin(64*alpha))`` is 2*pi/64-periodic), and
:class:`~loopcs.geometry.BergerMetric` rejects the other trees.  Trees
are immutable; operators on nodes build new trees, so metric families
like ``2 + (1/a)*cos(a*alpha)*sin(a*alpha)`` can be written once and
evaluated for any a.  The operators and the parser fold constants as they
build: a +, -, *, / or power of Num children is a Num, and so is the
parser's sin or cos of a Num.  Every constant subtree they build is
therefore a Num, and a node reads only its children, never the subtrees
below them.

Evaluation returns a :class:`~loopcs.jets.Jet2`, i.e. the value and the
first two alpha-derivatives, exactly.  ``compile_jets`` walks a tuple of
trees once at a fixed a into a :class:`JetProgram`, a straight-line list
of jet ops that does only the array work the trees need.  An op is data:
a module-level op function, its constants and its input registers.  A
subtree linear in alpha compiles to (k, c), k*alpha + c, and emits no op:
alpha-free subtrees fold to float constants, and sin/cos of k*alpha + c
become the direct jets (s, k*c, -k^2*s) and (c, -k*s, -k^2*c) of one
s, c = np.sin, np.cos pair per distinct argument (the built-in family's
three scales need one of each).  A constant adds to or scales a jet as a
scalar; only the remaining nodes propagate Jet2s.  ``evaluate`` compiles
and runs a fresh program; a BergerMetric compiles its trees once and runs
that program on every grid.  ``compile_template`` compiles trees once with
a left free (the built-in family's): a constant the walk forms from a
keeps the float operations that formed it, and ``bind`` forms it again at
any a, a (rows, 1) column of them included, so a bound program has the
bits of compile_jets at that a, row by row.

The one walk yields three things per tree, so a BergerMetric visits each
node of its trees once: the jet ops, the alpha-frequencies of its sin/cos
arguments (``JetProgram.frequencies``) and an enclosure of its values over
the circle (``JetProgram.bounds``), which lets a BergerMetric prove its
scales positive without sampling them.  A program is the one source of
these facts.  The walk converts a to a float once and rejects an a past
the float range with ValueError, whether or not a tree reads it.
``derivative`` differentiates symbolically, producing another tree in the
same grammar.

The concrete grammar parsed by :func:`parse_expression`::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | 'alpha' | 'a' | 'sin' '(' expr ')'
            | 'cos' '(' expr ')' | '(' expr ')' | '-' base

Whitespace is insignificant; numbers are decimal literals.
"""
from __future__ import annotations

import functools
import math
import operator
import re
import sys
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


# 2*pi rounded up, so [0, _TWO_PI_UP] holds every alpha of the circle
_TWO_PI_UP = math.nextafter(2.0 * math.pi, math.inf)
_FLOAT_MAX = sys.float_info.max


# The enclosure of a node from its children's, by node type: each computed
# endpoint moves one float outward.  None when a child has no enclosure or
# the node has no finite one.

def _outward(lo: float, hi: float) -> Optional[tuple[float, float]]:
    lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    # the comparisons are False on a NaN too
    return (lo, hi) if -_FLOAT_MAX <= lo and hi <= _FLOAT_MAX else None


def _number_box(value: float):
    return (value, value) if -_FLOAT_MAX <= value <= _FLOAT_MAX else None


def _sum_box(l, r):
    if l is None or r is None:
        return None
    return _outward(l[0] + r[0], l[1] + r[1])


def _difference_box(l, r):
    if l is None or r is None:
        return None
    return _outward(l[0] - r[1], l[1] - r[0])


def _product_box(l, r):
    if l is None or r is None:
        return None
    (l0, l1), (r0, r1) = l, r
    ends = (l0 * r0, l0 * r1, l1 * r0, l1 * r1)
    return _outward(min(ends), max(ends))


def _quotient_box(l, r):
    if l is None or r is None or r[0] <= 0.0 <= r[1]:
        return None
    (l0, l1), (r0, r1) = l, r
    ends = (l0 / r0, l0 / r1, l1 / r0, l1 / r1)
    return _outward(min(ends), max(ends))


def _power_box(b, k: int):
    if b is None:
        return None
    lo, hi = b
    if k < 0 and lo <= 0.0 <= hi:
        return None
    try:
        x, y = lo ** k, hi ** k
    except OverflowError:   # past the float range
        return None
    if k % 2 == 0 and lo < 0.0 < hi:
        return _outward(0.0, max(x, y))
    return _outward(min(x, y), max(x, y))


_BOXES = {Add: _sum_box, Sub: _difference_box, Mul: _product_box}
_CIRCLE_BOX = (0.0, _TWO_PI_UP)
_TRIG_BOX = (-1.0, 1.0)


# smart constructors: fold constants and drop arithmetic identities so that
# symbolic derivatives stay compact.  A constant subtree is a Num by the
# time a parent sees it (these fold a node of Num children, the parser's
# _trig a sin/cos of one), so a parent reads its children's numbers and
# never walks below them.

def _number(e: Expr) -> Optional[float]:
    return e.value if type(e) is Num else None


def _add(l: Expr, r: Expr) -> Expr:
    lc, rc = _number(l), _number(r)
    if lc is not None and rc is not None:
        return Num(lc + rc)
    if lc == 0.0:
        return r
    if rc == 0.0:
        return l
    return Add(l, r)


def _sub(l: Expr, r: Expr) -> Expr:
    lc, rc = _number(l), _number(r)
    if lc is not None and rc is not None:
        return Num(lc - rc)
    if rc == 0.0:
        return l
    return Sub(l, r)


def _mul(l: Expr, r: Expr) -> Expr:
    lc, rc = _number(l), _number(r)
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
    dc = _number(d)
    if dc == 0.0:
        raise ValueError(f"division by the identically-zero denominator '{d}'")
    nc = _number(n)
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
    bc = _number(b)
    if bc is not None:
        if bc == 0.0 and k < 0:
            raise ValueError("zero base with negative exponent")
        return Num(bc ** k)
    return Pow(b, k)


def _trig(kind: type, arg: Expr) -> Expr:
    """Sin(arg) or Cos(arg), a Num when arg is one."""
    if type(arg) is not Num:
        return kind(arg)
    # as the compiler folds them: a literal too large for a float is inf,
    # whose sin is NaN, without a warning
    with np.errstate(all="ignore"):
        return Num(float(np.sin(arg.value) if kind is Sin else np.cos(arg.value)))


def evaluate(e: Expr | tuple, alpha: Number, a: int = 1) -> Jet2 | tuple:
    """Jet of e at alpha: value and first two exact alpha-derivatives.

    alpha may be a scalar or an ndarray (evaluated elementwise).  e may
    also be a tuple of trees, evaluated together into a tuple of jets that
    share one np.sin/np.cos pair per distinct linear argument.  Compiles a
    fresh program and runs it once.  Raises EvalDomainError if a
    denominator vanishes at any evaluation point.  It stays beside
    compile_jets because the verify suites of earlier revisions, which
    tests/test_mutants.py loads into this package, and the demos call it.
    """
    if isinstance(e, Expr):
        return compile_jets((e,), a)(alpha)[0]
    return compile_jets(tuple(e), a)(alpha)


class JetProgram:
    """Straight-line jet operations compiled from a tuple of trees at one a.

    The ops are data: op n (counting from 1) is fns[n-1], one of the
    module-level op functions below, with its numbers constants[n-1] and
    its input registers ins[n-1], and a run calls fn(*constants,
    *inputs).  Calling the program on alpha runs the ops in order and
    returns one Jet2 per tree.  Register 0 holds alpha and op n writes
    register n; a register is dropped after its last read (last[i], which
    the compiler records as it emits the ops), so a grid evaluation holds
    no more arrays at a time than a recursive walk would.

    frequencies and bounds are what the compile walk read off the trees:
    the |k| of their linear sin/cos arguments k*alpha + c, k != 0 (None
    when alpha shows outside a sin/cos argument or some k is no integer),
    and per tree an enclosure (lo, hi) of its values over the circle (None
    when some node has no finite one).

    A program bound to a (rows, 1) column of a (bind) evaluates row i of
    a (rows, n) alpha at a[i].
    """

    def __init__(self, ops: list, last: list, outputs: tuple,
                 frequencies: Optional[frozenset], bounds: tuple):
        self.fns, self.constants, self.ins = zip(*ops) if ops else ((), (), ())
        self.outputs, self.frequencies, self.bounds = outputs, frequencies, bounds
        self.last = last
        for i in outputs:   # no op number is 0: an output is never dropped
            last[i] = 0

    def __call__(self, alpha: Number) -> tuple:
        """The jets of the trees at alpha."""
        regs = [alpha] * (len(self.fns) + 1)
        read, last = regs.__getitem__, self.last
        ops = zip(self.fns, self.constants, self.ins)
        for out, (fn, c, ins) in enumerate(ops, 1):
            regs[out] = fn(*c, *map(read, ins))
            for i in ins:
                if last[i] == out:
                    regs[i] = None
        return tuple(map(read, self.outputs))


def compile_jets(trees: tuple, a: int = 1) -> JetProgram:
    """One walk over trees at a fixed a, compiled into a JetProgram.
    Raises ValueError when a is too large for a float."""
    compiler = _Compiler(a)
    outputs, bounds = [], []
    for e in trees:
        x, box = compiler.walk(e)
        outputs.append(compiler.jet(x))
        bounds.append(box)
    return JetProgram(compiler.ops, compiler.last, tuple(outputs), compiler.frequencies,
                      tuple(bounds))


class _OfA(float):
    """A constant formed from a by compile_template's walk: its value at
    a = 2 and its form, the operations that formed it: None for a itself,
    else (op, *operands).  Only + - * / and negation keep a form, and the
    equal forms of one walk are one object (forms, by repr, which tells
    floats apart)."""

    def __new__(cls, value: float, form, forms: dict):
        self = float.__new__(cls, value)
        self.form, self.forms = form, forms
        return self


def _lift(op):
    def lifted(*args):
        forms = next(x.forms for x in args if type(x) is _OfA)
        form = (op, *[x.form if type(x) is _OfA else float(x) for x in args])
        return _OfA(op(*map(float, args)), forms.setdefault(repr(form), form), forms)
    return lifted


for _op in (operator.add, operator.sub, operator.mul, operator.truediv):
    setattr(_OfA, f"__{_op.__name__}__", _lift(_op))
    setattr(_OfA, f"__r{_op.__name__}__", lambda x, y, f=_lift(_op): f(y, x))
_OfA.__neg__ = _lift(operator.neg)


@functools.lru_cache(maxsize=1)
def compile_template(trees: tuple) -> JetProgram:
    """compile_jets(trees, a) with a free, for bind, cached by the trees:
    walked at a = 2, for trees whose walk picks the same ops at every a
    (the built-in family's).  The enclosure of a tree that reads a is the
    function of a that forms it, and forms holds the walk's forms in the
    order it made them, each after its operands."""
    forms = {}
    template = compile_jets(trees, _OfA(2.0, None, forms))
    template.forms = tuple(forms.values())
    return template


def bind(template: JetProgram, a) -> JetProgram:
    """template at a, a float or a (rows, 1) column of them: each form of
    its walk formed again at a, once, so row i of a run on a (rows, n)
    alpha has the bits of compile_jets at a[i].  Its frequencies and
    bounds stay the template's."""
    at = {id(None): a}
    with np.errstate(over="ignore", invalid="ignore"):   # silent, as float operations are
        for form in template.forms:
            at[id(form)] = form[0](*[x if type(x) is float else at[id(x)] for x in form[1:]])
    program = object.__new__(JetProgram)
    program.__dict__.update(vars(template), constants=tuple([
        tuple([at[id(c.form)] if type(c) is _OfA else c for c in constants])
        for constants in template.constants]))
    return program


# The op functions of a JetProgram, called as fn(*constants, *inputs).  Each
# keeps the operands, order and association of its formula, so a constant
# that is a (rows, 1) column rounds every row as the scalar does.  A trig
# jet's -k^2 * s is (-k * k) * s: the compiler forms the constant -k * k, as
# Python floats round it, and the op multiplies it into the array.

def _line(k, c, x):
    return k * x + c


def _slope(k, x):
    """The line k*alpha + 0.0."""
    return k * x


def _line_jet(k, x):
    return Jet2(x, k, 0.0)


def _constant_jet(c):
    return Jet2(c, 0.0, 0.0)


def _sin_cos(x):
    return np.sin(x), np.cos(x)


def _sin_jet(k, kk, t):
    """(s, k*c, kk*s) of sin(k*alpha + c) from its pair t = (s, c), with
    kk = -k*k."""
    return Jet2(t[0], k * t[1], kk * t[0])


def _cos_jet(mk, kk, t):
    """(c, mk*s, kk*c) of cos(k*alpha + c) from its pair t = (s, c), with
    mk = -k and kk = -k*k."""
    return Jet2(t[1], mk * t[0], kk * t[1])


def _plus(c, j):
    return Jet2(j.v + c, j.d1, j.d2)


def _minus(c, j):
    return Jet2(j.v - c, j.d1, j.d2)


def _times(c, j):
    return Jet2(j.v * c, j.d1 * c, j.d2 * c)


def _over(c, j):
    return Jet2(j.v / c, j.d1 / c, j.d2 / c)


def _subtracted_from(c, j):
    """c - j."""
    return Jet2(c - j.v, -j.d1, -j.d2)


def _power(k, j):
    return j ** k


def _nonzero(message, j) -> None:
    """Raises at a pole: where the jet's value is zero."""
    if np.any(np.asarray(j.v) == 0.0):
        raise EvalDomainError(message)


# ops of a jet j and a float constant c by node type, j op c (a sum or a
# product is the same either way round) or, for "c - j", c op j
_CONSTANT_OPS = {Add: _plus, Sub: _minus, Mul: _times, Div: _over, "c - j": _subtracted_from}
_JET_OPS = {Add: Jet2.__add__, Sub: Jet2.__sub__, Mul: Jet2.__mul__}


class _Compiler:
    """One walk over trees at a fixed a, emitting the ops of a JetProgram.
    A subtree compiles to (k, c), k*alpha + c (a float constant c when
    k == 0), while it is linear in alpha, and to the register of its Jet2
    above that.  A line, its sin/cos pair and their jets are emitted once
    per distinct (k, c).  walk returns that together with the node's
    enclosure over the circle (JetProgram.bounds), formed from its
    children's in the same visit: per node of the tree, not of the folded
    line."""

    def __init__(self, a: int):
        try:
            self.a = a if type(a) is _OfA else float(a)
        except OverflowError:
            raise ValueError("the parameter a is too large for a float") from None
        self.ops = []      # (fn, constants, input registers)
        self.last = [0]    # by register, the op that reads it last
        self.shared = {}   # register by (kind, k, c)
        self.frequencies = frozenset()   # None once a tree shows no period

    def walk(self, e: Expr) -> tuple:
        """(the compiled subtree, its enclosure or None)"""
        kind = type(e)
        if kind is Num:
            return (0.0, e.value), _number_box(e.value)
        if kind is ParamA:
            a = self.a
            return (0.0, a), ((a, a) if type(a) is float else lambda x: (x, x))
        if kind is Alpha:
            return (1.0, 0.0), _CIRCLE_BOX
        rule = _RULES.get(kind)
        if rule is None:
            raise TypeError(f"unknown node {kind.__name__}")
        return rule(self, e)

    def box(self, rule, *args):
        # rule(*args), or in compile_template's walk, where an enclosure is
        # a function of a, the function of a that applies rule
        if type(self.a) is not _OfA or not any(map(callable, args)):
            return rule(*args)
        f = [b if callable(b) else (lambda a, b=b: b) for b in args]
        if len(f) == 1:
            return lambda a: rule(f[0](a))
        return lambda a: rule(f[0](a), f[1](a))

    def emit(self, fn, constants: tuple, *ins) -> int:
        self.ops.append((fn, constants, ins))
        n = len(self.ops)
        for i in ins:
            self.last[i] = n
        self.last.append(0)
        return n

    def once(self, key: tuple, fn, constants: tuple, *ins) -> int:
        reg = self.shared.get(key)
        if reg is None:
            reg = self.shared[key] = self.emit(fn, constants, *ins)
        return reg

    def line(self, k: float, c: float) -> int:
        if c != 0.0:
            return self.once(("line", k, c), _line, (k, c), 0)
        return self.once(("line", k, c), _slope, (k,), 0)

    def jet(self, x) -> int:
        """The register of x as a jet: (k, c) is (k*alpha + c, k, 0)."""
        if type(x) is not tuple:
            return x
        k, c = x
        if k == 0.0:
            return self.emit(_constant_jet, (c,))
        self.frequencies = None   # alpha outside a sin/cos argument
        return self.once(("jet", k, c), _line_jet, (k,), self.line(k, c))

    def binary(self, e: Add | Sub | Mul):
        (l, lbox), (r, rbox), kind = self.walk(e.left), self.walk(e.right), type(e)
        box = self.box(_BOXES[kind], lbox, rbox)
        if type(l) is tuple and type(r) is tuple:
            if kind is Add:
                return (l[0] + r[0], l[1] + r[1]), box
            if kind is Sub:
                return (l[0] - r[0], l[1] - r[1]), box
            if l[0] == 0.0 or r[0] == 0.0:
                return (l[0] * r[1] + r[0] * l[1], l[1] * r[1]), box
            # alpha^2: a product of line jets
        elif type(l) is tuple and l[0] == 0.0:
            return self.emit(_CONSTANT_OPS["c - j" if kind is Sub else kind], (l[1],), r), box
        elif type(r) is tuple and r[0] == 0.0:
            return self.emit(_CONSTANT_OPS[kind], (r[1],), l), box
        return self.emit(_JET_OPS[kind], (), self.jet(l), self.jet(r)), box

    def divide(self, e: Div):
        # the denominator is compiled and checked before the numerator, so
        # a pole in both is reported as the denominator's
        den, den_box = self.walk(e.den)
        if type(den) is tuple and den[0] == 0.0 and den[1] != 0.0:
            (num, num_box), d = self.walk(e.num), den[1]
            if type(num) is tuple:
                x = num[0] / d, num[1] / d
            else:
                x = self.emit(_CONSTANT_OPS[Div], (d,), num)
        else:
            den = self.jet(den)
            self.emit(_nonzero, (f"division by zero in '{e.den}'",), den)
            num, num_box = self.walk(e.num)
            x = self.emit(Jet2.__truediv__, (), self.jet(num), den)
        return x, self.box(_quotient_box, num_box, den_box)

    def power(self, e: Pow):
        (base, box), k = self.walk(e.base), e.exponent
        box = self.box(_power_box, box, k)
        if type(base) is tuple and base[0] == 0.0 and (base[1] != 0.0 or k >= 0):
            with np.errstate(all="ignore"):   # an overflow folds to inf
                return (0.0, float(np.float64(base[1]) ** k)), box
        base = self.jet(base)
        if k < 0:
            self.emit(_nonzero, (f"negative power of zero in '{e}'",), base)
        return self.emit(_power, (k,), base), box

    def trig(self, e: Sin | Cos):
        (arg, box), sin = self.walk(e.arg), type(e) is Sin
        # a non-finite argument would make the value NaN
        box = self.box(lambda b: None if b is None else _TRIG_BOX, box)
        if type(arg) is not tuple:
            # sin and cos keep the period of their argument
            return self.emit(Jet2.sin if sin else Jet2.cos, (), arg), box
        k, c = arg
        if not k.is_integer():
            self.frequencies = None
        elif k and self.frequencies is not None:
            self.frequencies |= {abs(int(k))}
        if k == 0.0:
            with np.errstate(all="ignore"):
                return (0.0, float(np.sin(c) if sin else np.cos(c))), box
        key = (type(e), k, c)
        if key not in self.shared:
            # the jets of sin and cos share one s, c pair per (k, c)
            pair = self.once(("trig", k, c), _sin_cos, (), self.line(k, c))
            self.shared[key] = self.emit(_sin_jet if sin else _cos_jet,
                                         (k if sin else -k, -k * k), pair)
        return self.shared[key], box


_RULES = {
    Add: _Compiler.binary, Sub: _Compiler.binary, Mul: _Compiler.binary,
    Div: _Compiler.divide, Pow: _Compiler.power, Sin: _Compiler.trig, Cos: _Compiler.trig,
}


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


_SPACE = re.compile(r"\s*")


def _tokenize(src: str):
    """(kind, text, position) of each token, then ("end", "", len(src)).
    One scan: each match starts where the last one ended, and the scan
    stops at the trailing whitespace."""
    tokens = []
    pos, end = 0, len(src.rstrip())
    while pos < end:
        m = _TOKEN.match(src, pos)
        if m is None:
            at = _SPACE.match(src, pos).end()
            raise ParseError(f"unexpected character {src[at]!r}", at)
        number, word, op = m.groups()
        start = m.start(m.lastindex)
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
            return _trig(Sin if kind == "sin" else Cos, arg)
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
