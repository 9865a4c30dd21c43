"""Earlier implementations kept as bitwise references for the tests.

Each one is the plain form of a routine that loopcs now computes faster;
the tests require the fast routine to return exactly what these return,
bit for bit: connection_trace as a loop over the cyclic triples, the
Jet2 product as one expression per component (every temporary a fresh
array), value_bounds as a recursive
interval walk of its own, and the tokenizer that re-strips the rest of
the source before every token.  assert_same_bits compares a result with
its reference; assert_untouched checks that a call leaves its input
arrays as they were.
"""
import math
import sys

import numpy as np

from loopcs.expressions import (_TOKEN, Add, Alpha, Cos, Div, Mul, Num, ParamA, ParseError,
                                Pow, Sin, Sub)
from loopcs.jets import Jet2

_TWO_PI_UP = math.nextafter(2.0 * math.pi, math.inf)
_FLOAT_MAX = sys.float_info.max


def cyclic_connection_trace(lam, mu, nu):
    """T_conn summed over the cyclic triples in a loop, starting from 0."""
    s = (lam, mu, nu)
    cyclic = [(i, (i + 1) % 3, (i + 2) % 3) for i in range(3)]
    X = [x.d1 / x.v for x in s]
    Xjk = [X[j] + X[k] for i, j, k in cyclic]
    P = [s[j].v * s[k].v / s[i].v for i, j, k in cyclic]
    dP = [P[i] * (Xjk[i] - X[i]) for i, j, k in cyclic]
    Y = [2 * (P[j] - P[k]) for i, j, k in cyclic]
    total = 0
    for i, j, k in cyclic:
        a = 2 * (Xjk[i] * P[i] + dP[j] + dP[k])
        b = s[i].d2 / s[i].v - 2 * X[i] * X[i]
        total += (X[j] * X[k] - Y[j] * Y[k]) * a + (Y[j] * X[k] - X[j] * Y[k]) * b
    return total / 4


def reference_mul(x, other):
    o = Jet2._coerce(other)
    twice = x.d1 + x.d1
    return Jet2(x.v * o.v, x.d1 * o.v + x.v * o.d1, x.d2 * o.v + twice * o.d1 + x.v * o.d2)


def _parts(x):
    return (x.v, x.d1, x.d2) if isinstance(x, Jet2) else (x,)


def assert_same_bits(got, want):
    """Same type, dtype and shape, and the same values, NaNs and signs of
    zeros; a complex result part by part, a jet component by component."""
    if isinstance(want, Jet2):
        assert type(got) is Jet2
        for g, w in zip(_parts(got), _parts(want)):
            assert_same_bits(g, w)
        return
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    for part in ((np.real, np.imag) if np.iscomplexobj(want) else (np.asarray,)):
        g, w = part(got), part(want)
        assert np.array_equal(g, w, equal_nan=True)
        assert np.array_equal(np.signbit(g), np.signbit(w))


def assert_untouched(call, *inputs):
    """call(*inputs), checked to leave every input array (an input, or a
    component of an input jet) bit for bit as it was, and to return none of
    them, nor a jet with one of them as a component."""
    arrays = list({id(a): a for x in inputs for a in _parts(x)
                   if isinstance(a, np.ndarray)}.values())
    before = [a.copy() for a in arrays]
    result = call(*inputs)
    for a, b in zip(arrays, before):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    for part in _parts(result):
        assert not any(part is a for a in arrays)
    return result


def reference_bounds(e, a=1):
    """value_bounds by a recursive walk of its own: None when some node has
    no finite enclosure."""
    try:
        return _enclose(e, float(a))
    except ArithmeticError:
        return None


def _outward(lo, hi):
    lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    if not (-_FLOAT_MAX <= lo and hi <= _FLOAT_MAX):
        raise OverflowError
    return lo, hi


def _enclose(e, a):
    kind = type(e)
    if kind is Num:
        if not -_FLOAT_MAX <= e.value <= _FLOAT_MAX:   # False on a NaN too
            raise OverflowError
        return e.value, e.value
    if kind is ParamA:
        return a, a
    if kind is Alpha:
        return 0.0, _TWO_PI_UP
    if kind is Sin or kind is Cos:
        _enclose(e.arg, a)   # a non-finite argument would make the value NaN
        return -1.0, 1.0
    if kind is Pow:
        lo, hi = _enclose(e.base, a)
        k = e.exponent
        if k < 0 and lo <= 0.0 <= hi:
            raise ZeroDivisionError
        x, y = lo ** k, hi ** k   # OverflowError past the float range
        if k % 2 == 0 and lo < 0.0 < hi:
            return _outward(0.0, max(x, y))
        return _outward(min(x, y), max(x, y))
    if kind is Div:
        (l0, l1), (r0, r1) = _enclose(e.num, a), _enclose(e.den, a)
        if r0 <= 0.0 <= r1:
            raise ZeroDivisionError
        ends = (l0 / r0, l0 / r1, l1 / r0, l1 / r1)
        return _outward(min(ends), max(ends))
    (l0, l1), (r0, r1) = _enclose(e.left, a), _enclose(e.right, a)
    if kind is Add:
        return _outward(l0 + r0, l1 + r1)
    if kind is Sub:
        return _outward(l0 - r1, l1 - r0)
    if kind is Mul:
        ends = (l0 * r0, l0 * r1, l1 * r0, l1 * r1)
        return _outward(min(ends), max(ends))
    raise TypeError(f"unknown node {kind.__name__}")


def reference_tokenize(src):
    """The tokens (kind, text, position) of src, the rest of the source
    sliced and stripped once per token."""
    tokens = []
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
