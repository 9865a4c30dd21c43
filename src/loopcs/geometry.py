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

A BergerMetric compiles its three scale trees once into a jet program
(expressions.compile_jets).  That one walk over the trees also reads off
the frequency certificate and the trees' interval enclosures over the
circle, and every scale_jets call only runs the program.  The
constructor proves the scales positive from those enclosures when it
can: a certified metric whose enclosures (BergerMetric.scale_bounds, the
same as expressions.value_bounds) all have a positive lower end is
positive and finite at every alpha, and is built without evaluating
anything.  Every other metric runs its program once on a fixed
1025-point grid, which checks positivity and finiteness there and, for
an uncertified metric, periodicity from the jets at 0 and 2*pi.  A
copy of a metric (pickle, copy.copy, copy.deepcopy) is rebuilt by the
constructor from the trees and a, so it compiles its own program and is
proved or checked as the original was; the program itself, a list of
closures, is never pickled.  scale_jets tests positivity on real alpha
only: complex scales are not ordered.

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

from .expressions import Alpha, Cos, Div, Expr, Mul, Num, ParamA, Sin, Sub, compile_jets
from .jets import Number

# relative agreement demanded of the scale jets at alpha = 0 and 2*pi
PERIODICITY_TOLERANCE = 1e-9

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

    - certificate: (g, K) (alpha_frequencies): the scales are 2*pi/g
      periodic, and K is the largest alpha-frequency of their sin/cos
      arguments.  None when some tree shows no period; constant scales
      give (1, 0).
    - scale_bounds: enclosures (lo, hi) of lam, mu, nu over alpha in
      [0, 2*pi] (expressions.value_bounds) when they prove the metric: it
      has a certificate and every scale has lo > 0 (the bounds are
      finite).  Then the scales are positive and finite at every alpha,
      and the constructor samples nothing.  None otherwise: the
      constructor's 1025-point grid decides, and it checks an uncertified
      metric's periodicity too.
    """

    lam: Expr
    mu: Expr
    nu: Expr
    a: int = 1

    def __post_init__(self):
        # set as plain attributes, not cached properties: every constructor
        # reads all three, and before Python 3.12 a cached_property's first
        # read takes a lock
        program = compile_jets((self.lam, self.mu, self.nu), self.a)
        found, bounds = program.frequencies, program.bounds
        if found is None:
            certificate = None
        else:
            certificate = (math.gcd(*found), max(found)) if found else (1, 0)
        # the enclosures prove the metric when it has a certificate and
        # every scale's lower end is positive
        if certificate is None or any(b is None or not b[0] > 0.0 for b in bounds):
            bounds = None
        self.__dict__.update(_scales=program, certificate=certificate, scale_bounds=bounds)
        # proved periodic, positive and finite at every alpha, or else sampled
        if bounds is None:
            self._check_grid()

    def _check_grid(self):
        """The checks on the fixed 1025-point grid: positivity (in
        scale_jets), finiteness and, without a certificate, periodicity."""
        # points 0 and 1024 (alpha = 0 and 2*pi) feed the periodicity check
        grid = _CHECK_GRID
        names = ("lam", "mu", "nu")
        # a scale that overflows or turns NaN is reported below, not warned of
        with np.errstate(invalid="ignore", over="ignore"):
            jets = self.scale_jets(grid)
        # scale_jets leaves no -inf, so the largest scale is finite exactly
        # where all three are
        top = np.maximum(np.maximum(jets[0].v, jets[1].v), jets[2].v)
        if not np.isfinite(np.broadcast_to(top, grid.shape)[:-1]).all():
            for name, jet in zip(names, jets):
                if not np.all(np.isfinite(np.broadcast_to(jet.v, grid.shape)[:-1])):
                    raise ValueError(f"{name} is not finite on [0, 2*pi)")
        if self.certificate is not None:
            return
        # the circle quadrature is spectral only for periodic integrands: with
        # no period read off the trees, the (v, d1, d2) jets at 0 and 2*pi
        # must agree, relative to the largest jet entry of the metric
        # (rounding in 2*pi grows with the frequency)
        end_jets = [np.array([np.broadcast_to(x, grid.shape)[[0, -1]]
                              for x in (jet.v, jet.d1, jet.d2)]) for jet in jets]
        allowed = PERIODICITY_TOLERANCE * max(1.0, max(np.max(np.abs(j)) for j in end_jets))
        for name, j in zip(names, end_jets):
            gap = float(np.max(np.abs(j[:, 1] - j[:, 0])))
            if not gap <= allowed:
                raise ValueError(f"{name} is not 2*pi-periodic: its jets at 0 and "
                                 f"2*pi differ by {gap:.3e}")

    def __reduce__(self):
        # every copy (pickle, copy, deepcopy) is rebuilt by the constructor,
        # which compiles its own program: closures do not pickle
        return type(self), (self.lam, self.mu, self.nu, self.a)

    def scale_jets(self, alpha: Number):
        """Jets of (lam, mu, nu) at alpha from one run of the program the
        trees were compiled into once, per metric.  One test checks all
        three positive there (the constructor's fixed grid can miss a fast
        oscillation); only when it fails does a per-scale pass name the
        scale and the first alpha at fault.  Positivity is a property of
        the real circle: complex scales, at an alpha off the real axis, are
        not tested."""
        jets = self._scales(alpha)
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
# serves every parameter value
_LAM = Num(1.0)
_MU = 2.0 + Div(Num(1.0), ParamA()) * Cos(Mul(ParamA(), Alpha())) * Sin(Mul(ParamA(), Alpha()))
_NU = Sub(Num(2.0), Cos(Mul(ParamA(), Alpha())))


def builtin_family(a: int) -> BergerMetric:
    """The built-in oscillating family of Berger-type metrics."""
    if a == 0:
        raise ValueError("family parameter a must be a nonzero integer")
    return BergerMetric(_LAM, _MU, _NU, a=int(a))


def round_metric() -> BergerMetric:
    return BergerMetric(Num(1.0), Num(1.0), Num(1.0))
