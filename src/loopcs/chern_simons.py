"""Assembly of the degree-3 secondary-class density and its circle integral.

The transgression of the Wodzicki-residue trace, pulled back by the global
frame and evaluated on the constant-loop S^3, reduces to a single circle
integral: a density f(alpha) built from the connection symbols, with

    class value v = (s/4) * integral of f over the circle,

taken mod Z.  The density is the connection trace, evaluated on the S^3
frame triple, where only the psi^1^psi^2^psi^3 coefficient survives:

    T_conn = Tr[ sigma_-1(theta) ^ sigma_0 ^ sigma_0 ] = sum Tr(M_i [S_j, S_k])

summed over the cyclic triples (i,j,k) of (1,2,3), with S_p, M_p the psi^p
coefficients of sigma_0, sigma_-1(theta).  It carries exactly one factor
of the order-(-1) prefactor 2 i s / xi.  The transgression's other term,
the curvature trace Tr[ sigma_0 ^ sigma_-1(Omega) ], vanishes identically
on constant loops: every surviving term of the curvature symbol needs a
fourth (circle) frame component, absent on S^3 tangents, as derived in
tests/test_kernel_derivation.py.

connection_trace forms T_conn straight from the scale jets of one
scale_jets call, evaluating no derivative tree: in terms of the log-rates
X_i = s_i'/s_i and the halved S^3 brackets P_i = s_j s_k / s_i, each
cyclic term of the sum is a handful of scalar products.
tests/test_kernel_derivation.py derives that identity symbolically, and
the verify suite checks it against the generic wedge algebra over the
reference tables and symbols of loopcs.oracle, which this module does
not import.  The
complex constant chain kappa(s) multiplying T_conn must collapse to a
real scalar; a residual imaginary part signals a convention bug and is
rejected.

cs_density is a pure function of (metric, config, alpha) and vectorizes
over alpha grids; every density sample passes through it.  Its metric
may also be a geometry.FamilyRows of several members of the built-in
family and alpha a (rows, n) array, row i for member i: one program run,
one connection_trace pass and one finiteness test for all of them.  A 1-D grid of
at least 2 * BLOCK points is evaluated in len // BLOCK equal blocks of
BLOCK to 2 * BLOCK - 1 points, each written in place into one output
array: the kernel's temporaries then stay small enough to be reused from
block to block instead of freshly mapped and page-faulted on every call,
and more than half of its operations write into a temporary of the same
block that is still in cache (connection_trace).
Every kernel step is elementwise, so the samples are bit-identical to a
whole-grid evaluation.  An error in any block falls back to that whole-grid
evaluation, so the error names the grid's first failing scale and alpha,
or the first failing op in program order, as it would unblocked.  Smaller
grids (most ladder levels, a 4097-point report grid) run the kernel once.
A class value is one integrate_circle call (:mod:`loopcs.quadrature`)
over one period 2*pi/g, rescaled to [0, 2*pi], which equals the integral
over the whole circle.  The metric's frequency certificate (g, K)
(BergerMetric.certificate) alone sizes the ladder: its first level is
SAMPLES_PER_PERIOD samples per period of the K-th harmonic, whatever the
report grid's N (65 samples for the built-in family), and raises past
MAX_SAMPLES.  The K of a nested argument counts only its linear
frequencies; the ladder's doublings carry the rest.  The report grid
(CSReport.alphas, .densities) only reports: it is evaluated the first
time it is read, by one cs_density call on that grid.

sweep computes its class values in batches and builds no metric: the
family's template program, compiled once, is bound to a batch's a as one
column (geometry.FamilyRows), and every member starts its ladder at one
n, so consecutive members are the rows of one integrate_circle call,
each level one cs_density call over the rows still refining.  A row's
samples, sums and report have the bits of cs_class on its metric.

A class value of the family samples 65 points, so it costs one kernel pass
plus a fixed number of numpy and Python calls around it, not per-sample
arithmetic, and a batch of up to 63 rows shares those calls.  The
wrappers therefore make only the calls their result needs: cs_density
broadcasts the trace to alpha's shape only when it is not already an
array of that shape (a constant metric's trace is a scalar), and
cs_class reduces max|f| only when Im kappa(s) is nonzero, which no
accepted s gives: CSConfig keeps s below 2**1023, where the chain's
2 i s would overflow.  The first ladder level reads quadrature's shared
grid of each n, copied rather than rebuilt by np.linspace.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .geometry import BergerMetric, FamilyRows, builtin_family, family_members
from .jets import Jet2
from .quadrature import (MAX_SAMPLES, QuadratureConvergenceError, QuadratureSpec, circle_grid,
                         integrate_circle)

# Constants of the transgression expansion for the first (l=2) class:
# TP = 2 * int_0^1 P(theta ^ phi_t) dt splits into a curvature trace and a
# triple-connection trace; the symbol calculus turns the latter into three
# equal copies of the single-sigma_-1 product.  The curvature trace's
# constant, -i / (8 pi^3), multiplies Tr[sigma_0 ^ sigma_-1(Omega)], which
# vanishes on constant loops, so only the connection chain enters the density.
CONNECTION_TRACE_CONSTANT = 1j / (48.0 * math.pi ** 3)
CONNECTION_MULTIPLICITY = 3

# Convention constant for the cosphere integral over the two-point bundle
# S*S^1, applied to the stripped 2 i s / xi prefactor.  Its value is pinned
# by two requirements: (i) the reported density must be the alternating
# symbol trace itself, the normalization under which the class arithmetic
# v = (s/4) * integral(f) is consistent, and (ii) the full complex constant
# chain (_constant_chain) must then collapse to a real scalar.  With
# R = -4*pi the connection term's prefactor chain is
#     (2 pi^2 / s) * R * (2 i s) * (i / 48 pi^3) * 3 = +1.
RESIDUE_CONVENTION = -4.0 * math.pi

IMAG_TOLERANCE = 1e-10

# Sobolev exponents s must lie below this bound (CSConfig)
MAX_S = 2.0 ** 1023

# First ladder level, in samples per period of the metric's highest
# harmonic K.  The density's harmonics decay exponentially past K, so T_64
# and T_32 of one period both resolve it (for the built-in family T_32 is
# within 4e-15 relative of a 40-digit value, a up to 4096), and their
# difference is a true error estimate.  A level of the report grid's N
# aliases when K is a multiple of N: T_N and T_{N/2} agree on a wrong value.
SAMPLES_PER_PERIOD = 64

# Samples per block of a large density grid (cs_density).  On a 2^15+1
# point grid, blocks of 2048 or 8192 points were slower: more calls, or
# temporaries large enough to be page-faulted in again.
BLOCK = 4096


class ResidueConventionError(ArithmeticError):
    """The density came out non-real: a sign/factor convention is broken."""


class NonFiniteDensityError(ArithmeticError):
    """The density overflowed or hit a pole at some sample."""


class NonFiniteClassError(ArithmeticError):
    """The class value (s/4) * integral overflowed a float."""


@dataclass(frozen=True)
class CSConfig:
    """Sobolev exponent, quadrature choice and integrality tolerance."""

    s: float = 1.0
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    integrality_tol: float = 1e-3

    def __post_init__(self):
        # from s = 2**1023 on, the 2 i s of the constant chain overflows and
        # kappa(s) comes out NaN; a NaN fails both comparisons
        if not 0.5 < self.s < MAX_S:
            raise ValueError("Sobolev exponent s must be above 1/2 and below 2**1023")
        # a distance to the integers is at most 1/2, so a tolerance of 1/2
        # or more would call every class "indeterminate"
        if not 0.0 < self.integrality_tol < 0.5:
            raise ValueError("integrality tolerance must be above 0 and below 1/2")


@dataclass(frozen=True)
class CSReport:
    """Result of one class computation.

    alphas and densities are the report grid circle_grid(quadrature_n) and
    cs_density on it, evaluated the first time they are read and kept.  A
    sweep row is given no metric (None): its metric is builtin_family(a),
    built the same way.
    """

    metric: BergerMetric
    config: CSConfig
    integral: float
    class_value: float     # (s/4) * integral
    mod_z: float           # class value reduced to [0, 1)
    nontrivial: bool
    verdict: str           # "nontrivial" or "indeterminate"
    s: float
    a: int
    max_imag: float
    quadrature_n: int      # report grid N: N + 1 points from 0 to 2*pi
    samples_evaluated: int  # density samples the integral used

    def __init__(self, metric: BergerMetric, config: CSConfig, integral: float,
                 class_value: float, mod_z: float, nontrivial: bool, verdict: str,
                 s: float, a: int, max_imag: float, quadrature_n: int,
                 samples_evaluated: int):
        # the fields go straight into the instance dict, as in Jet2: the
        # generated frozen __init__ calls object.__setattr__ once per field
        self.__dict__.update(
            config=config, integral=integral, class_value=class_value,
            mod_z=mod_z, nontrivial=nontrivial, verdict=verdict, s=s, a=a,
            max_imag=max_imag, quadrature_n=quadrature_n,
            samples_evaluated=samples_evaluated)
        if metric is not None:
            self.__dict__["metric"] = metric

    def __getattr__(self, name: str):
        # reached only for a name the instance dict lacks
        if name != "metric":
            raise AttributeError(f"'CSReport' object has no attribute {name!r}")
        metric = self.__dict__["metric"] = builtin_family(self.a)
        return metric

    @property
    def distance_to_integers(self) -> float:
        return min(self.mod_z, 1.0 - self.mod_z)

    @cached_property
    def alphas(self) -> np.ndarray:
        return circle_grid(self.quadrature_n)

    @cached_property
    def densities(self) -> np.ndarray:
        return cs_density(self.metric, self.config, self.alphas)


def connection_trace(lam: Jet2, mu: Jet2, nu: Jet2):
    """T_conn = sum over cyclic (i,j,k) of Tr(M_i [S_j, S_k]), from the
    scale jets (s_1, s_2, s_3) = (lam, mu, nu) of one scale_jets call.

    With primes for d/dalpha, P_i = s_j s_k / s_i (half the S^3 bracket
    c^i_jk of the scaled frame) and the log-rate X_i = s_i'/s_i have

        P_i' = P_i (X_j + X_k - X_i),   X_i' - X_i^2 = s_i''/s_i - 2 X_i^2.

    The order-0 coefficients are the symmetric matrices (frame labels 1..4)

        S_i = (X_i/2)(E_i4 + E_4i) + (Y_i/2)(E_jk + E_kj),   Y_i = 2 (P_j - P_k),

    and each cyclic term reads two numbers off the order-(-1) coefficient M_i:

        Tr(M_i [S_j, S_k]) = ((X_j X_k - Y_j Y_k) a_i + (Y_j X_k - X_j Y_k) b_i) / 4,
        a_i = M_i[k,j] - M_i[j,k] = 2 (X_j + X_k) P_i + 2 (P_j' + P_k'),
        b_i = M_i[4,i] = X_i' - X_i^2.

    Only + - * / act on the jet components, so symbolic and complex jets
    pass through.  The three cyclic terms are written out, one numpy call
    per operation and no Python number between two arrays: a doubling is
    y + y, which rounds as 2 * y does, and the sum of the terms gets its
    + 0.0 and its factor 1/4 last.  Each T_i is the same sequence of
    operations as the cyclic loop of the derivation, so a float trace is
    bit-identical to it; the + 0.0 keeps that loop's 0 start, which makes
    a sum of three -0.0 terms +0.0.

    An operation whose left operand is a temporary of this function that
    dies there writes its result into it by augmented assignment
    (t -= Y2 * Y3, t *= r): 40 of the 75 operations reuse an array that is
    already in cache instead of a fresh one.  Two rules keep the bits:
    only the left operand is written into, and every operation keeps its
    left and right operand (complex multiplication is not bitwise
    commutative), so P1 * (X23 - X1) still allocates; and no scale
    component is written into, since the jet program shares arrays
    between jets and lam, mu, nu may be one jet.  On a float, a numpy
    scalar or a symbolic temporary the assignment rebinds, so the result
    types stay those of the plain expression.  The writes rely on what
    one scale_jets call gives: array components of one shape and dtype.
    Scales of different grids raise ValueError, and a float64 scale
    beside float32 ones gives a float32 trace, where the cyclic loop
    broadcasts and widens: no check guards this, because the 65-sample
    pass of a class value pays for every Python step.
    """
    X1 = lam.d1 / lam.v
    X2 = mu.d1 / mu.v
    X3 = nu.d1 / nu.v
    X23 = X2 + X3
    X31 = X3 + X1
    X12 = X1 + X2
    P1 = mu.v * nu.v
    P1 /= lam.v
    P2 = nu.v * lam.v
    P2 /= mu.v
    P3 = lam.v * mu.v
    P3 /= nu.v
    dP1 = P1 * (X23 - X1)
    dP2 = P2 * (X31 - X2)
    dP3 = P3 * (X12 - X3)
    Y1 = P2 - P3
    Y1 += Y1
    Y2 = P3 - P1
    Y2 += Y2
    Y3 = P1 - P2
    Y3 += Y3
    # T1 = (X2 X3 - Y2 Y3)(a + a) + (Y2 X3 - X2 Y3)(lam''/lam - b X1)
    a = X23 * P1
    a += dP2
    a += dP3
    b = X1 + X1
    T1 = X2 * X3
    T1 -= Y2 * Y3
    a += a
    T1 *= a
    t = Y2 * X3
    t -= X2 * Y3
    r = lam.d2 / lam.v
    b *= X1
    r -= b
    t *= r
    T1 += t
    # T2 = (X3 X1 - Y3 Y1)(a + a) + (Y3 X1 - X3 Y1)(mu''/mu - b X2)
    a = X31 * P2
    a += dP3
    a += dP1
    b = X2 + X2
    T2 = X3 * X1
    T2 -= Y3 * Y1
    a += a
    T2 *= a
    t = Y3 * X1
    t -= X3 * Y1
    r = mu.d2 / mu.v
    b *= X2
    r -= b
    t *= r
    T2 += t
    # T3 = (X1 X2 - Y1 Y2)(a + a) + (Y1 X2 - X1 Y2)(nu''/nu - b X3)
    a = X12 * P3
    a += dP1
    a += dP2
    b = X3 + X3
    T3 = X1 * X2
    T3 -= Y1 * Y2
    a += a
    T3 *= a
    t = Y1 * X2
    t -= X1 * Y2
    r = nu.d2 / nu.v
    b *= X3
    r -= b
    t *= r
    T3 += t
    # (T1 + T2 + T3 + 0.0) * 0.25
    T1 += T2
    T1 += T3
    T1 += 0.0
    T1 *= 0.25
    return T1


def _constant_chain(s: float) -> complex:
    """kappa(s) = (2 pi^2 / s) R (2 i s) * 3 * C_conn, the complex constant
    chain multiplying T_conn; it must collapse to a real number."""
    return ((2.0 * math.pi ** 2 / s) * RESIDUE_CONVENTION * (2j * s)
            * CONNECTION_MULTIPLICITY * CONNECTION_TRACE_CONSTANT)


def _blocked_density(m: BergerMetric, scale: float, alpha):
    """scale * T_conn on a 1-D grid of at least 2 * BLOCK points, in
    len // BLOCK equal blocks written into one array; None for any other
    alpha."""
    if not (isinstance(alpha, np.ndarray) and alpha.ndim == 1 and alpha.size >= 2 * BLOCK):
        return None
    alpha = np.asarray(alpha)
    f = np.empty(alpha.shape, np.result_type(alpha, scale))
    parts = alpha.size // BLOCK
    for x, out in zip(np.array_split(alpha, parts), np.array_split(f, parts)):
        np.multiply(scale, connection_trace(*m.scale_jets(x)), out=out)
    return f


def cs_density(m: BergerMetric | FamilyRows, cfg: CSConfig, alpha):
    """The secondary-class density f = Re kappa(s) * T_conn at alpha (scalar,
    ndarray, or a list or tuple of floats, taken as an array); every
    density sample passes here.

    Normalized to be independent of s, so values are directly comparable
    across Sobolev exponents; the s-dependence of the class sits entirely
    in the s/4 prefactor of cs_class.
    """
    if type(alpha) is list or type(alpha) is tuple:
        # the kernel takes scalars and arrays; a sequence of any length
        # becomes an array here, before the first kernel call
        alpha = np.asarray(alpha, float)
    kappa = _constant_chain(cfg.s)
    if not abs(kappa.imag) < IMAG_TOLERANCE:
        raise ResidueConventionError(
            f"the density's constant chain has imaginary part {kappa.imag:.3e}, "
            f"not below {IMAG_TOLERANCE:.0e}; the constant conventions are inconsistent")
    # overflow shows up as non-finite samples, which are reported below
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            f = _blocked_density(m, kappa.real, alpha)
        except Exception:
            # a block names its own first failure; the whole grid names the
            # grid's first (scale, alpha) or the first failing op in order
            f = None
        if f is None:
            t_conn = connection_trace(*m.scale_jets(alpha))
            # a constant metric's trace is a scalar; a scalar alpha keeps
            # the 0-d broadcast, so f is a numpy scalar as for any metric
            if not (type(t_conn) is np.ndarray and type(alpha) is np.ndarray
                    and t_conn.shape == alpha.shape):
                t_conn = np.broadcast_to(t_conn, np.shape(alpha))
            f = kappa.real * t_conn
    finite = np.isfinite(f)
    if not finite.all():
        raise NonFiniteDensityError(
            f"density is not finite at {np.size(finite) - np.count_nonzero(finite)} "
            f"of {np.size(finite)} samples; the metric overflows or hits a pole")
    return f


def reduce_mod_z(value: float) -> float:
    """value mod 1 in [0, 1).

    value - floor(value) rounds to exactly 1.0 for tiny negative values;
    that representative of the class 0 is mapped to 0.0.
    """
    frac = value - math.floor(value)
    return 0.0 if frac == 1.0 else frac


def _ladder_start(certificate: tuple) -> tuple[int, int]:
    """(g, n): the ladder runs over one period 2*pi/g of the certificate
    (g, K) and starts at n = max(16, SAMPLES_PER_PERIOD * K // g) samples,
    whatever the report grid's N.  An n past MAX_SAMPLES raises."""
    g, K = certificate
    n = max(16, SAMPLES_PER_PERIOD * K // g)
    if n > MAX_SAMPLES:
        raise QuadratureConvergenceError(
            f"the frequency certificate (g, K) = ({g}, {K}) needs a first ladder level of "
            f"{n} samples per period, past the cap 2**20 = {MAX_SAMPLES}")
    return g, n


@lru_cache(maxsize=32)
def _ladder_spec(n: int, tol: float, max_refinements: int) -> QuadratureSpec:
    """The ladder's QuadratureSpec, built and validated once per key: n
    (SAMPLES_PER_PERIOD * K / g) takes few values."""
    return QuadratureSpec(n, tol, max_refinements)


def _class_report(m: BergerMetric | None, a: int, cfg: CSConfig, integral: float,
                  samples: int, max_imag: float) -> CSReport:
    """The report of the class value of m (of builtin_family(a) if None):
    (s/4) * integral reduced mod Z, and its verdict."""
    value = cfg.s / 4.0 * integral
    if not math.isfinite(value):
        raise NonFiniteClassError(
            f"class value (s/4) * integral overflows a float (s = {cfg.s:.6g}, "
            f"integral {integral:.6f})")
    mod_z = reduce_mod_z(value)
    distance = min(mod_z, 1.0 - mod_z)
    nontrivial = distance > cfg.integrality_tol
    return CSReport(
        metric=m,
        config=cfg,
        integral=integral,
        class_value=value,
        mod_z=mod_z,
        nontrivial=nontrivial,
        verdict="nontrivial" if nontrivial else "indeterminate",
        s=cfg.s,
        a=a,
        max_imag=max_imag,
        quadrature_n=cfg.quadrature.n,
        samples_evaluated=samples,
    )


def _class_reports(rows: BergerMetric | FamilyRows, periods: list, n: int,
                   cfg: CSConfig) -> list:
    """The reports of one metric or of the family's rows, whose ladders all
    start at n samples, row i's over its period 2*pi/periods[i]
    (_ladder_start): one integrate_circle call over all of them as rows.

    Each ladder level is one cs_density call: one program run over a
    (rows, n + 1) alpha (FamilyRows binds the rows' a as one column), one
    connection_trace pass and one finiteness test.  Only the rows that
    have not converged take the next doubling.  One metric runs its own
    program on a 1-D alpha, and cs_class is that case.  Every sample, sum
    and report field of a row has the bits of that one-metric run.
    """
    spec = cfg.quadrature
    count = len(periods)
    if type(rows) is FamilyRows:
        g = np.array(periods, float)[:, None]
        members = [(None, a) for a, _, _ in rows.members]
    else:
        g, members = periods[0], [(rows, rows.a)]
    imag = abs(_constant_chain(cfg.s).imag)
    samples, max_abs = [0] * count, [0.0] * count

    def density(x, live=None):
        # x in [0, 2*pi] covers one period 2*pi/g of each row
        evaluated, period = rows, g
        if live is not None and live.size < count:
            evaluated, period = FamilyRows([rows.members[i] for i in live]), g[live]
        f = cs_density(evaluated, cfg, x / period).reshape(-1, x.size)
        which = range(count) if live is None else live.tolist()
        for i in which:
            samples[i] += x.size
        # max|f| only scales Im kappa, which is exactly 0.0 for every s
        # CSConfig accepts; 0.0 * max|f| would be 0.0 anyway
        if imag:
            for i, top in zip(which, np.abs(f).max(axis=1).tolist()):
                max_abs[i] = max(max_abs[i], top)
        return f

    integrals = integrate_circle(density, _ladder_spec(n, spec.tol, spec.max_refinements))
    return [_class_report(m, a, cfg, integral, samples[i], imag * max_abs[i])
            for i, ((m, a), integral) in enumerate(zip(members, integrals))]


def cs_class(m: BergerMetric, cfg: CSConfig = CSConfig()) -> CSReport:
    """Integrate the density, form (s/4)*integral, reduce mod Z, decide.

    The integral is one ladder over the period 2*pi/g from the metric's
    certificate (_ladder_start), rescaled to [0, 2*pi]; cfg.quadrature
    gives its tolerance and doubling cap, and its n sizes only the report
    grid, whose densities are evaluated when first read.  The verdict is
    "nontrivial" when the reduced value keeps at least the integrality
    tolerance away from the integers, and "indeterminate" otherwise (never
    coerced to a trivial/nontrivial claim the numerics cannot support).
    The one-metric case of _class_reports.
    """
    g, n = _ladder_start(m.certificate)
    return _class_reports(m, [g], n, cfg)[0]


def sweep(a_values, cfg: CSConfig = CSConfig()):
    """One report per parameter of the built-in family, computed in
    batches, with no metric built (a report's is built when first read).
    Every a is checked first (family_members), so an a that builtin_family
    rejects raises before any class is computed.  Every certificate is
    (|a|, |a|), so every ladder starts at one n, and the members are cut,
    in order, into batches of BLOCK // (n + 1) rows (63 at n = 64), each
    one _class_reports call over FamilyRows.  Should a batch raise, its
    members run one at a time through cs_class, in order, so the first
    failing one raises as a loop of cs_class calls would."""
    members = family_members(a_values)
    if not members:
        return []
    starts = [_ladder_start(certificate) for _, _, certificate in members]
    n = starts[0][1]
    size = BLOCK // (n + 1)
    reports = []
    for i in range(0, len(members), size):
        batch = members[i:i + size]
        try:
            reports += _class_reports(FamilyRows(batch), [g for g, _ in starts[i:i + size]],
                                      n, cfg)
        except Exception:
            # whatever a batch raised, the rows alone raise (or not) as a
            # loop of cs_class calls would, as cs_density's blocks fall back
            reports += [cs_class(builtin_family(a), cfg) for a, _, _ in batch]
    return reports
