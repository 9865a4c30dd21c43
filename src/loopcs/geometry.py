"""Berger-type metrics on S^3 x S^1 and their frame geometry.

The round 3-sphere carries left-invariant vector fields E1, E2, E3 with

    [E1,E2] = 2 E3,   [E2,E3] = 2 E1,   [E1,E3] = -2 E2,

and E4 is the unit coordinate field of the S^1 factor.  A metric in this
family makes the scaled frame

    F1 = lam*E1,  F2 = mu*E2,  F3 = nu*E3,  F4 = E4

orthonormal, where lam, mu, nu are positive functions of the circle
coordinate alpha.  Everything downstream (structure constants, Christoffel
symbols, connection symbols) is a function of alpha alone: the frame is
left-invariant on the S^3 factor, so spatial derivatives of all these
quantities vanish identically.  Rank-3 tables of them index the frame
labels 1..4 by 0-based array axes (loopcs.oracle builds them).

A BergerMetric built from trees compiles them once into a jet program
(expressions.compile_jets, which rejects an a too large for a float).
That one walk also reads off the frequency certificate and the trees'
interval enclosures over the circle (JetProgram.frequencies and .bounds),
and every scale_jets call only runs the program.  The constructor
rejects trees without a certificate as not provably 2*pi-periodic, and
proves the scales positive from the enclosures when it can: a metric
whose enclosures (BergerMetric.scale_bounds) all have a positive lower
end is positive and finite at every alpha, and is built without
evaluating anything.  Every other metric runs its program once on a
fixed 1025-point grid, which checks positivity and finiteness there.  A
copy of a metric (pickle, copy.copy, copy.deepcopy) is rebuilt by the
constructor from the trees and a, so it compiles its own program and is
proved or checked as the original was; the program itself is never
pickled.  scale_jets tests positivity on real alpha only: complex scales
are not ordered.  The built-in family compiles its trees once, with a
free (expressions.compile_template): builtin_family binds an a into that
template, and FamilyRows a column of them, one member per row.

The class path reads only the scale jets of one scale_jets call: its
kernel (chern_simons.connection_trace) forms the log-rates lam'/lam and
the S^3 brackets from the (v, d1, d2) jets, evaluating no derivative
tree; the derivatives are exact, never finite differences.

scale_jets is pure over immutable inputs and accepts either a scalar
alpha or a grid of alphas, so evaluation parallelizes trivially.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import (Alpha, Cos, Div, Expr, JetProgram, Mul, Num, ParamA, Sin, Sub, bind,
                          compile_jets, compile_template)
from .jets import Number

# the constructor's check points, alpha = 0 and 2*pi included, for metrics
# the scale bounds do not prove; read-only, since every metric shares it
_CHECK_GRID = np.linspace(0.0, 2.0 * np.pi, 1025)
_CHECK_GRID.flags.writeable = False


@dataclass(frozen=True)
class BergerMetric:
    """Scale functions lam, mu, nu of alpha plus the integer parameter a.

    The constructor compiles the three trees once into a jet program, in
    one walk that visits each tree node once, and sets two attributes from
    what that walk read off the trees:

    - certificate: (g, K) (JetProgram.frequencies): the scales are 2*pi/g
      periodic, and K is the largest alpha-frequency of their linear
      sin/cos arguments; constant scales give (1, 0).  Never None: trees
      that show no period raise ValueError.
    - scale_bounds: enclosures (lo, hi) of lam, mu, nu over alpha in
      [0, 2*pi] (JetProgram.bounds) when they prove the metric: every
      scale has lo > 0 (the bounds are finite).  Then the scales are
      positive and finite at every alpha, and the constructor samples
      nothing.  None otherwise: the constructor's 1025-point grid decides.
    """

    lam: Expr
    mu: Expr
    nu: Expr
    a: int = 1

    def __post_init__(self):
        program = compile_jets((self.lam, self.mu, self.nu), self.a)
        found, bounds = program.frequencies, program.bounds
        if found is None:
            name = next(name for name in ("lam", "mu", "nu")
                        if compile_jets((getattr(self, name),), self.a).frequencies is None)
            raise ValueError(f"{name} is not provably 2*pi-periodic: every alpha must sit "
                             "in a sin/cos argument k*alpha + c with integer k")
        self._accept(program, (math.gcd(*found), max(found)) if found else (1, 0), bounds)

    def _accept(self, program: JetProgram, certificate: tuple, bounds: tuple):
        # set as plain attributes, not cached properties: every constructor
        # reads all three, and before Python 3.12 a cached_property's first
        # read takes a lock.  The enclosures prove the metric when every
        # lower end is positive; else the fixed grid is sampled.
        if any(b is None or not b[0] > 0.0 for b in bounds):
            bounds = None
        self.__dict__.update(_scales=program, certificate=certificate, scale_bounds=bounds)
        if bounds is None:
            self._check_grid()

    def _check_grid(self):
        """The checks on the fixed 1025-point grid: positivity (in
        scale_jets) and finiteness on [0, 2*pi)."""
        grid = _CHECK_GRID
        # a scale that overflows or turns NaN is reported below, not warned of
        with np.errstate(invalid="ignore", over="ignore"):
            jets = self.scale_jets(grid)
        # scale_jets leaves no -inf, so the largest scale is finite exactly
        # where all three are
        top = np.maximum(np.maximum(jets[0].v, jets[1].v), jets[2].v)
        if not np.isfinite(np.broadcast_to(top, grid.shape)[:-1]).all():
            for name, jet in zip(("lam", "mu", "nu"), jets):
                if not np.all(np.isfinite(np.broadcast_to(jet.v, grid.shape)[:-1])):
                    raise ValueError(f"{name} is not finite on [0, 2*pi)")

    def __reduce__(self):
        # every copy (pickle, copy, deepcopy) is rebuilt by the constructor,
        # which compiles its own program
        return type(self), (self.lam, self.mu, self.nu, self.a)

    def scale_jets(self, alpha: Number):
        """Jets of (lam, mu, nu) at alpha from one run of the metric's
        program: the one-metric case of scale_jets."""
        return scale_jets(self._scales, alpha)


def scale_jets(program: JetProgram, alpha: Number):
    """Jets of (lam, mu, nu) at alpha from one run of program.

    One test checks all three scales positive at every point (a
    constructor's fixed grid can miss a fast oscillation); only when it
    fails does a per-scale pass name the scale and the first alpha at
    fault, in row-major order.  Positivity is a property of the real
    circle: complex scales, at an alpha off the real axis, are not
    tested."""
    jets = program(alpha)
    # fmin, unlike minimum, skips a NaN scale, so a negative one beside it
    # still shows
    low = np.fmin(np.fmin(jets[0].v, jets[1].v), jets[2].v)
    if low.dtype.kind != "c" and (low <= 0.0).any():
        for name, jet in zip(("lam", "mu", "nu"), jets):
            alphas, values = np.broadcast_arrays(alpha, jet.v)
            if np.any(values <= 0.0):
                bad = float(alphas[values <= 0.0].flat[0])
                raise ValueError(f"{name} is not positive at alpha={bad:.6f}")
    return jets


# the built-in one-parameter family: lam = 1, mu = 2 + (1/a) cos(a alpha)
# sin(a alpha), nu = 2 - cos(a alpha); a is carried symbolically so one tree
# serves every parameter value (builtin_family)
_LAM = Num(1.0)
_MU = 2.0 + Div(Num(1.0), ParamA()) * Cos(Mul(ParamA(), Alpha())) * Sin(Mul(ParamA(), Alpha()))
_NU = Sub(Num(2.0), Cos(Mul(ParamA(), Alpha())))
_PROVED_A = 2.0 ** 1021


def _member(a) -> tuple:
    """(a, float(a), certificate (|a|, |a|)) of the family's member a;
    ValueError for a = 0 and for an a past the float range."""
    a = int(a)
    if a == 0:
        raise ValueError("family parameter a must be a nonzero integer")
    try:
        x = float(a)
    except OverflowError:
        raise ValueError("the parameter a is too large for a float") from None
    return a, x, (abs(int(x)),) * 2


def family_members(a_values) -> list:
    """_member of each a, in order, raising as builtin_family(a) would: a
    member the enclosures may not prove builds its metric here."""
    members = []
    for a in a_values:
        members.append(_member(a))
        if not abs(members[-1][1]) < _PROVED_A:
            builtin_family(a)
    return members


class FamilyRows:
    """Members of the family (family_members) as the rows of one program
    run, with no metric built: the family's template bound to the (rows, 1)
    column of their a.  Row i of scale_jets on a (rows, n) alpha has the
    bits of builtin_family(a_i).scale_jets on that row."""

    def __init__(self, members: list):
        self.members = members
        self._scales = bind(compile_template((_LAM, _MU, _NU)),
                            np.array([x for _, x, _ in members])[:, None])

    def scale_jets(self, alpha: Number):
        return scale_jets(self._scales, alpha)


def builtin_family(a: int) -> BergerMetric:
    """The built-in oscillating family of Berger-type metrics: its template
    bound to a, with certificate (|a|, |a|) and the template's enclosures
    at a, each with the bits of BergerMetric(_LAM, _MU, _NU, a).

    The family is positive for every nonzero integer a (mu >= 1.5, nu >=
    1), and its enclosures prove that for every |a| below _PROVED_A, where
    a * 2*pi stays finite: mu's is widest at |a| = 1, where its lower end
    is 0.9999999999999992."""
    a, x, certificate = _member(a)
    template = compile_template((_LAM, _MU, _NU))
    m = object.__new__(BergerMetric)
    m.__dict__.update(lam=_LAM, mu=_MU, nu=_NU, a=a)
    m._accept(bind(template, x), certificate,
              tuple(b(x) if callable(b) else b for b in template.bounds))
    return m


def round_metric() -> BergerMetric:
    return BergerMetric(Num(1.0), Num(1.0), Num(1.0))
