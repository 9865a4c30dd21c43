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
are not ordered.  MetricRows evaluates metrics whose programs share one
structure as the rows of one program run, with one positivity test over
all of them; BergerMetric.scale_jets is its one-metric case.

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

from .expressions import (Alpha, Cos, Div, Expr, JetProgram, Mul, Num, ParamA, Sin, Sub,
                          compile_jets, stack_constants)
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
        # set as plain attributes, not cached properties: every constructor
        # reads all three, and before Python 3.12 a cached_property's first
        # read takes a lock
        program = compile_jets((self.lam, self.mu, self.nu), self.a)
        found, bounds = program.frequencies, program.bounds
        if found is None:
            name = next(name for name in ("lam", "mu", "nu")
                        if compile_jets((getattr(self, name),), self.a).frequencies is None)
            raise ValueError(f"{name} is not provably 2*pi-periodic: every alpha must sit "
                             "in a sin/cos argument k*alpha + c with integer k")
        certificate = (math.gcd(*found), max(found)) if found else (1, 0)
        # the enclosures prove the metric when every lower end is positive
        if any(b is None or not b[0] > 0.0 for b in bounds):
            bounds = None
        self.__dict__.update(_scales=program, certificate=certificate, scale_bounds=bounds)
        # proved positive and finite at every alpha, or else sampled
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
        """Jets of (lam, mu, nu) at alpha from one run of the program the
        trees were compiled into once, per metric: the one-metric case of
        scale_jets."""
        return scale_jets(self._scales, alpha)


def scale_jets(program: JetProgram, alpha: Number, constants: list | None = None):
    """Jets of (lam, mu, nu) at alpha from one run of program (with the
    stacked constants of MetricRows over a (rows, n) alpha, if given).

    One test checks all three scales positive at every point (a
    constructor's fixed grid can miss a fast oscillation); only when it
    fails does a per-scale pass name the scale and the first alpha at
    fault, in row-major order.  Positivity is a property of the real
    circle: complex scales, at an alpha off the real axis, are not
    tested."""
    jets = program(alpha, constants)
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


class MetricRows:
    """Metrics whose programs share one structure, as the rows of one
    evaluation: scale_jets on a (rows, n) alpha runs the first metric's
    program once with every metric's constants stacked (stack_constants),
    row i of alpha for metrics[i], and tests positivity once over all rows.
    A row of the result has the bits of that metric's own scale_jets on
    that row of alpha."""

    def __init__(self, metrics: list, constants: list | None = None):
        self.metrics = metrics
        self._program = metrics[0]._scales
        self._constants = (stack_constants([m._scales for m in metrics])
                           if constants is None else constants)

    def take(self, indices: np.ndarray) -> "MetricRows":
        """The rows of the index array indices, their stacked constants
        taken from these rather than stacked again."""
        return MetricRows([self.metrics[i] for i in indices],
                          [tuple(c[indices] if type(c) is np.ndarray else c for c in op)
                           for op in self._constants])

    def scale_jets(self, alpha: Number):
        return scale_jets(self._program, alpha, self._constants)


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
