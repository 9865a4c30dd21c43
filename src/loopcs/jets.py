"""Second-order jets: exact propagation of (value, d/dalpha, d2/dalpha2).

A Jet2 carries a function value together with its first two derivatives
with respect to the circle coordinate alpha.  Arithmetic implements the
Leibniz and chain rules exactly, so derivative information never degrades
through the rational/trigonometric formulas built on top.  Components may
be floats or numpy arrays of matching shape (evaluation on a grid of
alpha values is just arithmetic on arrays).

An operation never writes into its operands' components: a compiled jet
program shares arrays between jets (a constant sum passes d1 and d2
through, a sin/cos pair's jets share its two arrays).  The product, the
one jet operation the built-in family's program runs per grid block,
writes into its own temporaries instead: a temporary that is the left
operand of its last use takes the result by augmented assignment
(d1 = self.d1 * o.v; d1 += self.v * o.d1), with the same operands in the
same order as the one-line formula, so the bits are the same and a grid
product allocates two fewer arrays.  On a float, a numpy scalar or a
symbolic component the assignment rebinds.  The writes need each
temporary to have the shape and dtype of the result already, which holds
when each jet's array components share one shape and dtype (jets of
different grids then broadcast, and a real jet meets a complex one), and
when all arrays of both jets do, as in one evaluation on one grid.  A
jet with a Python number beside an array (a jet linear in alpha has
d1 = k, d2 = 0.0) times a jet of another grid raises ValueError, and
times a jet of a wider dtype (float64 against float32) it is cast to the
narrower one, where the one-line formula broadcast and widened.

A Jet2 opts out of numpy's ufunc dispatch (__array_ufunc__ = None), so an
ndarray on the left of an operator returns NotImplemented and the jet's
reflected method runs: array * jet is the jet of the array as a constant
times jet, not an object array of one jet per element.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

Number = Union[int, float, np.ndarray]


@dataclass(frozen=True)
class Jet2:
    """(value, first derivative, second derivative) with exact arithmetic."""

    v: Number
    d1: Number
    d2: Number

    # an ndarray operand on the left defers to the reflected methods below
    __array_ufunc__ = None

    def __init__(self, v: Number, d1: Number, d2: Number):
        # the fields go straight into the instance dict: every jet op builds
        # a Jet2, and the generated frozen __init__ calls object.__setattr__
        # once per field
        fields = self.__dict__
        fields["v"] = v
        fields["d1"] = d1
        fields["d2"] = d2

    @staticmethod
    def constant(c: Number) -> "Jet2":
        c = np.asarray(c, dtype=float) if isinstance(c, np.ndarray) else float(c)
        return Jet2(c, 0.0 * c, 0.0 * c)

    @staticmethod
    def _coerce(x: Union["Jet2", Number]) -> "Jet2":
        return x if isinstance(x, Jet2) else Jet2.constant(x)

    def __add__(self, other):
        o = Jet2._coerce(other)
        return Jet2(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = Jet2._coerce(other)
        return Jet2(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, other):
        return Jet2._coerce(other).__sub__(self)

    def __neg__(self):
        return Jet2(-self.v, -self.d1, -self.d2)

    def __mul__(self, other):
        o = Jet2._coerce(other)
        twice = self.d1 + self.d1   # 2 * d1, without a Python number operand
        v = self.v * o.v
        d1 = self.d1 * o.v
        d1 += self.v * o.d1
        d2 = self.d2 * o.v
        d2 += twice * o.d1   # twice holds self's shape and dtype only
        d2 += self.v * o.d2
        return Jet2(v, d1, d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Jet2._coerce(other)
        q0 = self.v / o.v
        q1 = (self.d1 - q0 * o.d1) / o.v
        q2 = (self.d2 - (q1 + q1) * o.d1 - q0 * o.d2) / o.v
        return Jet2(q0, q1, q2)

    def __rtruediv__(self, other):
        return Jet2._coerce(other).__truediv__(self)

    def __pow__(self, k: int):
        if not isinstance(k, (int, np.integer)):
            raise TypeError("jet exponent must be an integer")
        if k == 0:
            one = 1.0 + 0.0 * self.v
            return Jet2(one, 0.0 * one, 0.0 * one)
        if k == 1:
            return self
        # f = u^k, f' = k u^(k-1) u', f'' = k(k-1) u^(k-2) u'^2 + k u^(k-1) u''
        vk2 = self.v ** (k - 2.0)
        vk1 = vk2 * self.v
        return Jet2(
            vk1 * self.v,
            k * vk1 * self.d1,
            k * (k - 1) * vk2 * self.d1 * self.d1 + k * vk1 * self.d2,
        )

    def sin(self) -> "Jet2":
        s, c = np.sin(self.v), np.cos(self.v)
        return Jet2(s, c * self.d1, -s * self.d1 * self.d1 + c * self.d2)

    def cos(self) -> "Jet2":
        s, c = np.sin(self.v), np.cos(self.v)
        return Jet2(c, -s * self.d1, -c * self.d1 * self.d1 - s * self.d2)
