"""Deterministic invariant suite covering every layer of the pipeline.

Each check returns a CheckResult; run_all runs the lot with a fixed seed,
so the CLI `verify` subcommand (and the test suite, which reuses these)
is reproducible, and counts a check that raises as failed.  Checks
compare independent computational routes wherever one exists.  What each
one guards:

- jet_finite_differences: the compiled jet program (lines, trig pairs,
  constant and jet ops) against central finite differences;
- quadrature_exactness: the trapezoid weights and the ladder's doublings,
  exact on trigonometric polynomials;
- christoffel_oracle: the closed-form Christoffel table against the
  Koszul formula over the structure constants;
- trace_cyclicity: the sign and scalar algebra of MatrixForm, wedge and
  trace;
- sigma_minus1_routes: the vectorized sigma_-1 against its loop route;
- density_traces_oracle: cs_density, the class path's kernel, against
  the generic wedge algebra over the reference symbols of loopcs.oracle;
- leading_order_vanishing: the symmetry of sigma_0, through Tr sigma_0^3;
- s_linearity: the class value (s/4) I, its integral independent of s,
  and its reduction mod Z;
- density_reality: the constant chain kappa(s) is the real number +1;
- quadrature_stability: the certified period, against the whole circle.

For every check, tests/test_mutants.py holds a mutation under which the
whole suite runs and that check alone fails.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .chern_simons import CSConfig, _constant_chain, cs_class, cs_density
from .expressions import Alpha, Cos, Expr, Num, Sin, evaluate
from .forms import MatrixForm, basis_indices, evaluate3, trace, wedge
from .geometry import BergerMetric, builtin_family
from .oracle import (christoffel_koszul, christoffel_table, leading_order_density,
                     sigma0_connection, sigma_minus1_connection_beta,
                     sigma_minus1_connection_dot)
from .quadrature import TWO_PI, QuadratureSpec, integrate_circle


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_scale_expression(rng: np.random.Generator) -> Expr:
    """A random smooth positive function of alpha from the grammar.

    Constant term dominates the oscillating terms, keeping the scales (and
    hence all derived coefficients) in a regime where the 1e-12 exact-
    cancellation checks are meaningful in double precision.
    """
    base = rng.uniform(1.0, 2.2)
    budget = base - rng.uniform(0.25, 0.5)
    n_terms = rng.integers(1, 4)
    amps = rng.uniform(0.1, 1.0, n_terms)
    amps *= budget / amps.sum()
    e: Expr = Num(round(base, 6))
    for amp in amps:
        k = int(rng.integers(1, 4))
        trig = Sin(Num(float(k)) * Alpha()) if rng.random() < 0.5 else Cos(Num(float(k)) * Alpha())
        if rng.random() < 0.3:
            trig = trig ** 2  # squares stay in [0,1], budget still valid
        term = Num(round(float(amp) * (1 if rng.random() < 0.5 else -1), 6)) * trig
        e = e + term
    if rng.random() < 0.3:
        # rational piece with a denominator bounded away from zero
        e = e / (Num(round(rng.uniform(1.5, 2.5), 6)) + Num(0.3) * Cos(Alpha()))
        e = e * Num(2.0)
    return e


def random_metric(rng: np.random.Generator) -> BergerMetric:
    return BergerMetric(random_scale_expression(rng),
                        random_scale_expression(rng),
                        random_scale_expression(rng))


def _table_max_diff(m: BergerMetric, alphas) -> float:
    t = christoffel_table(m, alphas)
    k = christoffel_koszul(m, alphas)
    return max(float(np.max(np.abs(t.v - k.v))),
               float(np.max(np.abs(t.d1 - k.d1))))


def check_jet_finite_differences(rng: np.random.Generator) -> CheckResult:
    """Jets of random expressions against central finite differences."""
    h1, h2 = 1e-5, 1e-4  # d2 backs off: h^-2 roundoff at 1e-5 eats the budget
    worst = 0.0
    exprs = [random_scale_expression(rng) for _ in range(12)]
    exprs += [Sin(Alpha()) ** 3, Cos(Num(2.0) * Alpha()) / (Num(2.0) + Sin(Alpha())),
              (Num(2.0) + Sin(Alpha())) ** -2,
              Alpha() * Num(0.1) + Num(1.0)]
    x = rng.uniform(0.0, TWO_PI, 100)
    for e in exprs:
        f = lambda x: evaluate(e, x, 2).v
        jet = evaluate(e, x, 2)
        fd1 = (f(x + h1) - f(x - h1)) / (2 * h1)
        fd2 = (f(x + h2) - 2.0 * jet.v + f(x - h2)) / h2 ** 2
        for d, fd in ((jet.d1, fd1), (jet.d2, fd2)):
            worst = max(worst, float(np.max(np.abs(d - fd) / np.maximum(1.0, np.abs(fd)))))
    return CheckResult("jets match finite differences", worst < 1e-6,
                       f"max rel err {worst:.2e} (tol 1e-6)")


def check_quadrature_exactness(rng: np.random.Generator) -> CheckResult:
    """The periodic trapezoid sum is exact on trig polynomials of degree < n.

    The ladder starts at n = 16, so the degrees from 8 to 16 take it
    through one or two doublings."""
    spec = QuadratureSpec(n=16, tol=1e-10)
    worst = 0.0
    for _ in range(20):
        deg = int(rng.integers(1, 17))
        coeffs = rng.uniform(-2.0, 2.0, (deg, 2))
        c0 = rng.uniform(-2.0, 2.0)

        def f(x, c0=c0, coeffs=coeffs):
            out = c0 * np.ones_like(x)
            for k, (ak, bk) in enumerate(coeffs, start=1):
                out = out + ak * np.cos(k * x) + bk * np.sin(k * x)
            return out

        worst = max(worst, abs(integrate_circle(f, spec) - TWO_PI * c0))
    return CheckResult("quadrature exact on trig polynomials", worst < 1e-12,
                       f"max error {worst:.2e} (tol 1e-12)")


def check_christoffel_oracle(rng: np.random.Generator) -> CheckResult:
    """Closed-form table vs Koszul formula, values and alpha-derivatives."""
    worst = 0.0
    for _ in range(200):
        m = random_metric(rng)
        worst = max(worst, _table_max_diff(m, float(rng.uniform(0.0, TWO_PI))))
    return CheckResult("christoffel table matches koszul oracle", worst < 1e-12,
                       f"max entry diff {worst:.2e} over 200 samples (tol 1e-12)")


def check_trace_cyclicity(rng: np.random.Generator) -> CheckResult:
    """Tr(A ^ B) = (-1)^{pq} Tr(B ^ A) for all degree pairs with p+q <= 4."""
    worst = 0.0
    for p in range(1, 4):
        for q in range(1, 5 - p):
            for _ in range(20):
                a = MatrixForm(p, {idx: rng.normal(size=(4, 4)) for idx in basis_indices(p)})
                b = MatrixForm(q, {idx: rng.normal(size=(4, 4)) for idx in basis_indices(q)})
                lhs = trace(wedge(a, b))
                rhs = (-1.0) ** (p * q) * trace(wedge(b, a))
                worst = max(worst, (lhs - rhs).max_abs())
    return CheckResult("graded trace cyclicity", worst < 1e-12,
                       f"max violation {worst:.2e} (tol 1e-12)")


def check_sigma_minus1_routes(rng: np.random.Generator) -> CheckResult:
    """Vectorized beta-restricted symbol vs naive per-vector loops at xdot=0."""
    worst = 0.0
    for _ in range(200):
        m = random_metric(rng)
        alpha = float(rng.uniform(0.0, TWO_PI))
        table = christoffel_table(m, alpha)
        beta_form = sigma_minus1_connection_beta(table)
        for direction in (1, 2, 3):
            loops = sigma_minus1_connection_dot(m, alpha, direction, None, table=table)
            worst = max(worst, float(np.max(np.abs(beta_form.coeff((direction,)) - loops))))
    return CheckResult("sigma_-1 vectorized route equals loop route", worst < 1e-12,
                       f"max entry diff {worst:.2e} over 200 samples (tol 1e-12)")


def check_density_traces_oracle(rng: np.random.Generator) -> CheckResult:
    """The class path's density vs the generic MatrixForm wedge.

    cs_density, kappa(s) times the scale-jet kernel, is compared with
    Tr(sigma_-1 ^ sigma_0 ^ sigma_0); check_density_reality holds kappa
    at +1.  The wedge route takes both symbols from the dense Christoffel
    table, so it shares no symbol or trace code with the kernel it checks,
    nor derivative code: its log-rate derivatives come from symbolically
    differentiated trees, the kernel's from the scale jets.  Errors are relative to max(1, max |T|) over the
    sample grid of each metric.
    """
    worst = 0.0
    alphas = rng.uniform(0.0, TWO_PI, 50)
    metrics = [random_metric(rng) for _ in range(10)] + [builtin_family(2), builtin_family(8)]
    for m in metrics:
        s0 = sigma0_connection(m, alphas)
        sm1 = sigma_minus1_connection_beta(christoffel_table(m, alphas))
        want = evaluate3(trace(wedge(wedge(sm1, s0), s0)))
        got = cs_density(m, CSConfig(), alphas)
        scale = max(1.0, float(np.max(np.abs(want))))
        worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    return CheckResult("density traces match the wedge-algebra route", worst < 1e-12,
                       f"max rel diff {worst:.2e} over 12 metrics (tol 1e-12)")


def check_leading_order_vanishing(rng: np.random.Generator) -> CheckResult:
    # Tr sigma0^3 cancels products of three sigma_0 entries, so its rounding
    # residual scales with max|sigma_0|^3: per metric it stays below
    # 0.2 eps max|sigma_0|^3 (1200 random metrics), while an asymmetry of
    # relative size d in sigma_0 leaves one of about d max|sigma_0|^3
    worst = 0.0
    alphas = rng.uniform(0.0, TWO_PI, 100)
    for _ in range(20):
        m = random_metric(rng)
        s0 = sigma0_connection(m, alphas)
        largest = max(float(np.max(np.abs(s0.coeff(p)))) for p in s0.indices())
        residual = float(np.max(np.abs(leading_order_density(m, alphas))))
        worst = max(worst, residual / (sys.float_info.epsilon * largest ** 3))
    return CheckResult("leading-order trace vanishes", worst < 1.0,
                       f"max |Tr sigma0^3| / (eps max|sigma0|^3) {worst:.2e} (tol 1)")


def check_s_linearity(_: np.random.Generator) -> CheckResult:
    """v(s) = (s/4) I(s) with I(s) = I(1), and mod Z the fraction of v(s)
    in [0, 1): kappa(s) = +1 up to rounding, so I does not depend on s."""
    m = builtin_family(2)
    integral = cs_class(m, CSConfig()).integral
    drift, exact = 0.0, True
    for s in (0.6, 2.0, 3.5):
        r = cs_class(m, CSConfig(s=s))
        drift = max(drift, abs(r.integral - integral) / abs(integral))
        exact = (exact and r.class_value == s / 4.0 * r.integral
                 and 0.0 <= r.mod_z < 1.0 and (r.class_value - r.mod_z).is_integer())
    return CheckResult("class value (s/4) I, reduced mod Z", drift < 1e-12 and exact,
                       f"max |I(s) - I(1)| / |I(1)| {drift:.2e} (tol 1e-12); "
                       f"v(s) = (s/4) I(s), v - mod Z an integer, mod Z in [0, 1): {exact}")


def check_density_reality(_: np.random.Generator) -> CheckResult:
    """The constant chain multiplying T_conn is the real number +1.

    kappa(s) = (2 pi^2 / s) R (2 i s) * 3 * C_conn collapses to +1 for
    every s (see chern_simons); a flipped sign or a lost factor of i in
    any of its constants moves it off 1.
    """
    worst = max(abs(_constant_chain(s) - 1.0) for s in (0.6, 1.0, 2.0, 3.5))
    return CheckResult("density constant chain is +1", worst < 1e-12,
                       f"max |kappa(s) - 1| {worst:.2e} over 4 exponents (tol 1e-12)")


def check_quadrature_stability(_: np.random.Generator) -> CheckResult:
    """The class integral, taken over one certified period, against the
    ladder over the whole circle from the report grid, which ignores the
    certificate.  The last metric mixes the frequencies 2 and 3, so its
    period is their gcd, not the largest."""
    cfg = CSConfig()
    mixed = BergerMetric(Num(2.0) + Sin(Num(2.0) * Alpha()), Num(2.0) + Cos(Num(3.0) * Alpha()),
                         Num(1.0))
    worst = 0.0
    for m in [builtin_family(2), builtin_family(8), builtin_family(32), mixed]:
        circle = integrate_circle(lambda x: cs_density(m, cfg, x), cfg.quadrature)
        worst = max(worst, abs(cs_class(m, cfg).integral - circle))
    return CheckResult("per-period integral matches the full circle", worst < 1e-8,
                       f"max |I_period - I_circle| {worst:.2e} over a in {{2, 8, 32}} "
                       f"and one metric of frequencies 2 and 3 (tol 1e-8)")


ALL_CHECKS: List[Callable[[np.random.Generator], CheckResult]] = [
    check_jet_finite_differences,
    check_quadrature_exactness,
    check_christoffel_oracle,
    check_trace_cyclicity,
    check_sigma_minus1_routes,
    check_density_traces_oracle,
    check_leading_order_vanishing,
    check_s_linearity,
    check_density_reality,
    check_quadrature_stability,
]


def run_check(check: Callable[[np.random.Generator], CheckResult],
              seed: int = 20240) -> CheckResult:
    """check on a fresh generator of seed.  A check that raises has
    failed; its detail names the exception."""
    try:
        return check(np.random.default_rng(seed))
    except Exception as exc:
        return CheckResult(check.__name__, False, f"raised {type(exc).__name__}: {exc}")


def run_all(seed: int = 20240) -> List[CheckResult]:
    return [run_check(check, seed) for check in ALL_CHECKS]
