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

connection_trace forms T_conn straight from the six Christoffel
coefficient functions and their first derivatives (first_order_coefficients,
from one scale_jets call and no derivative tree): S_p has four nonzero
entries and M_l three, so each cyclic term is three scalar products.  The
verify suite checks it against the generic wedge algebra.  The complex
constant chain kappa(s) multiplying T_conn must collapse to a real scalar;
a residual imaginary part signals a convention bug and is rejected.

cs_density is a pure function of (metric, config, alpha) and vectorizes
over alpha grids.  cs_class evaluates it once on the report grid and hands
those samples to the trapezoid ladder of :mod:`loopcs.quadrature` as its
first level, so the reported density and the integral share one pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .forms import evaluate3, trace, wedge
from .geometry import (BergerMetric, ChristoffelCoefficients, builtin_family,
                       first_order_coefficients)
from .quadrature import QuadratureSpec, circle_grid, trapezoid_ladder
from .symbols import sigma0_connection

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

# the cyclic triples (i, j, k) of (1, 2, 3) summed by the trace
_CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


class ResidueConventionError(ArithmeticError):
    """The density came out non-real: a sign/factor convention is broken."""


class NonFiniteDensityError(ArithmeticError):
    """The density overflowed or hit a pole at some sample."""


@dataclass(frozen=True)
class CSConfig:
    """Sobolev exponent, quadrature choice and integrality tolerance."""

    s: float = 1.0
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    integrality_tol: float = 1e-3

    def __post_init__(self):
        if not self.s > 0.5:
            raise ValueError("Sobolev exponent s must exceed 1/2")
        if not self.integrality_tol > 0.0:
            raise ValueError("integrality tolerance must be positive")


@dataclass(frozen=True)
class CSReport:
    """Result of one class computation."""

    alphas: np.ndarray
    densities: np.ndarray
    integral: float
    class_value: float     # (s/4) * integral
    mod_z: float           # class value reduced to [0, 1)
    nontrivial: bool
    verdict: str           # "nontrivial" or "indeterminate"
    s: float
    a: int
    max_imag: float
    quadrature_n: int

    @property
    def distance_to_integers(self) -> float:
        return min(self.mod_z, 1.0 - self.mod_z)


def connection_trace(c: ChristoffelCoefficients):
    """T_conn = sum over cyclic (i,j,k) of Tr(M_i [S_j, S_k]), sparse.

    With frame labels 1..4 and primes for d/dalpha, the order-0
    coefficients are the symmetric matrices

        S_1: A/2 at (1,4),(4,1);  (q+r)/2 at (2,3),(3,2)
        S_2: (p-r)/2 at (1,3),(3,1);  B/2 at (2,4),(4,2)
        S_3: -(p+q)/2 at (1,2),(2,1);  C/2 at (3,4),(4,3)

    and the order-(-1) coefficients M_l (sigma_minus1_connection_beta on
    the sparse table) have three nonzero entries each.  Only + - * act on
    the jets' values and first derivatives, so symbolic coefficients pass
    through unchanged.
    """
    p, q, r, A, B, C = c.p.v, c.q.v, c.r.v, c.A.v, c.B.v, c.C.v
    dp, dq, dr, dA, dB, dC = c.p.d1, c.q.d1, c.r.d1, c.A.d1, c.B.d1, c.C.d1
    S = {}
    for l, entries in ((1, {(1, 4): 0.5 * A, (2, 3): 0.5 * (q + r)}),
                       (2, {(1, 3): 0.5 * (p - r), (2, 4): 0.5 * B}),
                       (3, {(1, 2): -0.5 * (p + q), (3, 4): 0.5 * C})):
        S[l] = {**entries, **{(b, a): x for (a, b), x in entries.items()}}
    M = {
        1: {(2, 3): (C - B) * p + (B + C) * q - dp + dq,
            (3, 2): (C - B) * p + (B + C) * r + dp + dr,
            (4, 1): dA - A * A},
        2: {(1, 3): (A + C) * p + (C - A) * q + dp - dq,
            (3, 1): (C - A) * q - (A + C) * r + dq - dr,
            (4, 2): dB - B * B},
        3: {(1, 2): -(A + B) * p + (B - A) * r - dp - dr,
            (2, 1): -(A + B) * q + (B - A) * r - dq + dr,
            (4, 3): dC - C * C},
    }

    def product_entry(x, y, a, b):
        # (x @ y)[a, b] of two matrices held as {(row, col): entry}
        return sum(xv * y[k, b] for (row, k), xv in x.items()
                   if row == a and (k, b) in y)

    return sum(m_ab * (product_entry(S[j], S[k], b, a) - product_entry(S[k], S[j], b, a))
               for i, j, k in _CYCLIC for (a, b), m_ab in M[i].items())


def _constant_chain(s: float) -> complex:
    """kappa(s) = (2 pi^2 / s) R (2 i s) * 3 * C_conn, the complex constant
    chain multiplying T_conn; it must collapse to a real number."""
    return ((2.0 * math.pi ** 2 / s) * RESIDUE_CONVENTION * (2j * s)
            * CONNECTION_MULTIPLICITY * CONNECTION_TRACE_CONSTANT)


def _density_complex(m: BergerMetric, s: float, alpha) -> np.ndarray:
    """f = Re kappa(s) * T_conn on alpha; every density sample passes here.

    The density is real; the name is kept because profilers and the
    sample-count tests hook this function."""
    kappa = _constant_chain(s)
    if not abs(kappa.imag) < IMAG_TOLERANCE:
        raise ResidueConventionError(
            f"the density's constant chain has imaginary part {kappa.imag:.3e}, "
            f"not below {IMAG_TOLERANCE:.0e}; the constant conventions are inconsistent")
    # overflow shows up as non-finite samples, which _require_finite reports
    with np.errstate(over="ignore", invalid="ignore"):
        t_conn = connection_trace(first_order_coefficients(*m.scale_jets(alpha)))
        return kappa.real * np.broadcast_to(t_conn, np.shape(alpha))


def _require_finite(values: np.ndarray) -> np.ndarray:
    finite = np.isfinite(values)
    if not np.all(finite):
        raise NonFiniteDensityError(
            f"density is not finite at {np.size(finite) - np.count_nonzero(finite)} "
            f"of {np.size(finite)} samples; the metric overflows or hits a pole")
    return values


def cs_density(m: BergerMetric, cfg: CSConfig, alpha):
    """The secondary-class density f at alpha (scalar or ndarray).

    Normalized to be independent of s, so values are directly comparable
    across Sobolev exponents; the s-dependence of the class sits entirely
    in the s/4 prefactor of cs_class.
    """
    return _require_finite(_density_complex(m, cfg.s, alpha))


def reduce_mod_z(value: float) -> float:
    """value mod 1 in [0, 1).

    value - floor(value) rounds to exactly 1.0 for tiny negative values;
    that representative of the class 0 is mapped to 0.0.
    """
    frac = value - math.floor(value)
    return 0.0 if frac == 1.0 else frac


def cs_class(m: BergerMetric, cfg: CSConfig = CSConfig()) -> CSReport:
    """Integrate the density, form (s/4)*integral, reduce mod Z, decide.

    The density is evaluated once on the report grid; those samples are
    the first level of the trapezoid ladder, which evaluates more only if
    T_N and T_{N/2} disagree.  The verdict is "nontrivial" when the reduced
    value keeps at least the integrality tolerance away from the integers,
    and "indeterminate" otherwise (never coerced to a trivial/nontrivial
    claim the numerics cannot support).
    """
    grid = circle_grid(cfg.quadrature.n)
    densities = _require_finite(_density_complex(m, cfg.s, grid))
    # the imaginary part the density would carry: |Im kappa| max |f|
    max_imag = abs(_constant_chain(cfg.s).imag) * float(np.max(np.abs(densities)))
    integral = trapezoid_ladder(lambda x: cs_density(m, cfg, x), densities, cfg.quadrature)
    value = cfg.s / 4.0 * integral
    mod_z = reduce_mod_z(value)
    distance = min(mod_z, 1.0 - mod_z)
    nontrivial = distance > cfg.integrality_tol
    return CSReport(
        alphas=grid,
        densities=densities,
        integral=integral,
        class_value=value,
        mod_z=mod_z,
        nontrivial=nontrivial,
        verdict="nontrivial" if nontrivial else "indeterminate",
        s=cfg.s,
        a=m.a,
        max_imag=max_imag,
        quadrature_n=cfg.quadrature.n,
    )


def leading_order_density(m: BergerMetric, alpha):
    """Tr[sigma_0 ^ sigma_0 ^ sigma_0] on the S^3 frame.

    Identically zero for this metric family (the order-0 symbol is a
    symmetric matrix of one-forms); the function exists to verify that the
    leading-order secondary class vanishes, which is what forces the
    computation down to the Wodzicki-residue level.
    """
    s0 = sigma0_connection(m, alpha)
    return evaluate3(trace(wedge(wedge(s0, s0), s0)))


def sweep(a_values, cfg: CSConfig = CSConfig()):
    """One report per parameter of the built-in family."""
    reports = []
    for a in a_values:
        if a == 0:
            raise ValueError("family parameter a must be a nonzero integer")
        reports.append(cs_class(builtin_family(a), cfg))
    return reports
