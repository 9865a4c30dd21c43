"""Deterministic invariant suite covering every layer of the pipeline.

Each check returns a CheckResult; run_all executes the lot with a fixed
seed so the CLI `verify` subcommand (and the test suite, which reuses
these) is reproducible.  Checks compare independent computational routes
wherever one exists: closed-form Christoffel table against the Koszul
formula, vectorized symbol assembly against naive loops, jets against
finite differences, the scale-jet connection-trace kernel of the density
against the generic wedge algebra over the reference symbols of
loopcs.oracle, the density's constant chain against its derived value
+1.  Every check is one that a plausible mutation of the code makes fail.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .chern_simons import (CSConfig, _constant_chain, connection_trace,
                           cs_class, cs_density, reduce_mod_z)
from .expressions import Alpha, Cos, Expr, Num, Sin, evaluate
from .forms import MatrixForm, evaluate3, trace, wedge
from .geometry import BergerMetric, builtin_family
from .oracle import (christoffel_koszul, christoffel_table, leading_order_density,
                     sigma0_connection, sigma_minus1_connection_beta,
                     sigma_minus1_connection_dot, structure_constants)
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
    points = rng.uniform(0.0, TWO_PI, 100)
    for e in exprs:
        f = lambda x: evaluate(e, x, 2).v
        for x in points:
            jet = evaluate(e, float(x), 2)
            fd1 = (f(x + h1) - f(x - h1)) / (2 * h1)
            fd2 = (f(x + h2) - 2.0 * f(x) + f(x - h2)) / h2 ** 2
            worst = max(worst,
                        abs(jet.d1 - fd1) / max(1.0, abs(fd1)),
                        abs(jet.d2 - fd2) / max(1.0, abs(fd2)))
    return CheckResult("jets match finite differences", worst < 1e-6,
                       f"max rel err {worst:.2e} (tol 1e-6)")


def check_quadrature_exactness(rng: np.random.Generator) -> CheckResult:
    """The periodic trapezoid sum is exact on trig polynomials of degree < n."""
    spec = QuadratureSpec(n=64, tol=1e-10)
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


def check_density_periodicity(_: np.random.Generator) -> CheckResult:
    worst = 0.0
    cfg = CSConfig()
    for a in (2, 5):
        m = builtin_family(a)
        worst = max(worst, abs(float(cs_density(m, cfg, 0.0))
                               - float(cs_density(m, cfg, TWO_PI))))
    return CheckResult("density periodicity", worst < 1e-10,
                       f"max |f(0)-f(2pi)| {worst:.2e} (tol 1e-10)")


def check_christoffel_oracle(rng: np.random.Generator) -> CheckResult:
    """Closed-form table vs Koszul formula, values and alpha-derivatives."""
    worst = 0.0
    for _ in range(200):
        m = random_metric(rng)
        worst = max(worst, _table_max_diff(m, float(rng.uniform(0.0, TWO_PI))))
    return CheckResult("christoffel table matches koszul oracle", worst < 1e-12,
                       f"max entry diff {worst:.2e} over 200 samples (tol 1e-12)")


def check_metric_compatibility(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(40):
        m = random_metric(rng)
        g = christoffel_table(m, rng.uniform(0.0, TWO_PI, 5)).v
        worst = max(worst, float(np.max(np.abs(g + np.einsum("...kij->...jik", g)))))
    return CheckResult("metric compatibility", worst < 1e-12,
                       f"max |gamma^k_ij + gamma^j_ik| {worst:.2e} (tol 1e-12)")


def check_torsion_freedom(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(40):
        m = random_metric(rng)
        alphas = rng.uniform(0.0, TWO_PI, 5)
        g = christoffel_table(m, alphas).v
        c = structure_constants(m, alphas).v
        torsion = g - np.einsum("...kij->...kji", g) - c
        worst = max(worst, float(np.max(np.abs(torsion))))
    return CheckResult("torsion freedom", worst < 1e-12,
                       f"max |gamma^k_ij - gamma^k_ji - c^k_ij| {worst:.2e} (tol 1e-12)")


def check_jacobi_identity(rng: np.random.Generator) -> CheckResult:
    """Jacobi identity with the alpha-derivative terms of the F4 brackets."""
    worst = 0.0
    for _ in range(40):
        m = random_metric(rng)
        sc = structure_constants(m, rng.uniform(0.0, TWO_PI, 5))
        c, cd = sc.v, sc.d1
        t = np.einsum("...mij,...nmk->...nijk", c, c)
        d = np.zeros_like(t)
        d[..., :, :, :, 3] = cd
        j = t - d
        total = (j + np.einsum("...njki->...nijk", j)
                 + np.einsum("...nkij->...nijk", j))
        worst = max(worst, float(np.max(np.abs(total))))
    return CheckResult("jacobi identity", worst < 1e-12,
                       f"max residual {worst:.2e} (tol 1e-12)")


def check_round_degeneracy(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(10):
        e = random_scale_expression(rng)
        m = BergerMetric(e, e, e)
        s0 = sigma0_connection(m, rng.uniform(0.0, TWO_PI, 20))
        # U, V, W sit at psi^3 (1,2), psi^2 (1,3) and psi^1 (2,3)
        uvw = [s0.coeff((3,))[..., 0, 1], s0.coeff((2,))[..., 0, 2],
               s0.coeff((1,))[..., 1, 2]]
        worst = max(worst, float(np.max(np.abs(uvw))))
    return CheckResult("equal scales degenerate to U=V=W=0", worst < 1e-12,
                       f"max |U,V,W| {worst:.2e} (tol 1e-12)")


def _random_one_form(rng: np.random.Generator) -> MatrixForm:
    coeffs = {(p,): rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
              for p in (1, 2, 3, 4)}
    return MatrixForm(1, coeffs)


def check_wedge_associativity(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(100):
        a, b, c = (_random_one_form(rng) for _ in range(3))
        worst = max(worst, (a.wedge(b).wedge(c) - a.wedge(b.wedge(c))).max_abs())
    return CheckResult("wedge associativity", worst < 1e-12,
                       f"max |(AB)C - A(BC)| {worst:.2e} over 100 triples (tol 1e-12)")


def check_trace_cyclicity(rng: np.random.Generator) -> CheckResult:
    """Tr(A ^ B) = (-1)^{pq} Tr(B ^ A) for all degree pairs with p+q <= 4."""
    worst = 0.0
    from .forms import basis_indices
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


def check_wedge_bilinearity(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        a, b, c = (_random_one_form(rng) for _ in range(3))
        z = complex(rng.normal(), rng.normal())
        worst = max(worst, ((z * a + b).wedge(c) - (z * (a.wedge(c)) + b.wedge(c))).max_abs())
        worst = max(worst, (a.wedge(z * b + c) - (z * (a.wedge(b)) + a.wedge(c))).max_abs())
    return CheckResult("wedge bilinearity", worst < 1e-11,
                       f"max violation {worst:.2e} (tol 1e-11)")


def check_sigma_minus1_routes(rng: np.random.Generator) -> CheckResult:
    """Vectorized beta-restricted symbol vs naive per-vector loops at xdot=0."""
    worst = 0.0
    for _ in range(200):
        m = random_metric(rng)
        alpha = float(rng.uniform(0.0, TWO_PI))
        beta_form = sigma_minus1_connection_beta(christoffel_table(m, alpha))
        for direction in (1, 2, 3):
            loops = sigma_minus1_connection_dot(m, alpha, direction, None)
            worst = max(worst, float(np.max(np.abs(beta_form.coeff((direction,)) - loops))))
    return CheckResult("sigma_-1 vectorized route equals loop route", worst < 1e-12,
                       f"max entry diff {worst:.2e} over 200 samples (tol 1e-12)")


def check_density_traces_oracle(rng: np.random.Generator) -> CheckResult:
    """The class path's scale-jet kernel vs the generic MatrixForm wedge.

    connection_trace over the scale jets is compared with
    Tr(sigma_-1 ^ sigma_0 ^ sigma_0).  The wedge route takes both symbols
    from the dense Christoffel table, so it shares no symbol or trace code
    with the kernel it checks, nor derivative code: its log-rate
    derivatives come from symbolically differentiated trees, the kernel's
    from the scale jets.  Errors are relative to max(1, max |T|) over the
    sample grid of each metric.
    """
    worst = 0.0
    alphas = rng.uniform(0.0, TWO_PI, 50)
    metrics = [random_metric(rng) for _ in range(10)] + [builtin_family(2), builtin_family(8)]
    for m in metrics:
        s0 = sigma0_connection(m, alphas)
        sm1 = sigma_minus1_connection_beta(christoffel_table(m, alphas))
        want = evaluate3(trace(wedge(wedge(sm1, s0), s0)))
        got = connection_trace(*m.scale_jets(alphas))
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


def check_constant_metric_vanishing(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    cfg = CSConfig()
    alphas = np.linspace(0.0, TWO_PI, 200)
    for _ in range(10):
        m = BergerMetric(Num(float(rng.uniform(0.5, 2.0))),
                         Num(float(rng.uniform(0.5, 2.0))),
                         Num(float(rng.uniform(0.5, 2.0))))
        worst = max(worst, float(np.max(np.abs(cs_density(m, cfg, alphas)))))
    return CheckResult("constant metrics give zero density", worst < 1e-12,
                       f"max |f| {worst:.2e} (tol 1e-12)")


def check_s_linearity(_: np.random.Generator) -> CheckResult:
    m = builtin_family(2)
    v1 = cs_class(m, CSConfig(s=1.0)).class_value
    worst = max(abs(cs_class(m, CSConfig(s=s)).class_value - s * v1)
                for s in (0.6, 2.0, 3.5))
    return CheckResult("class value linear in s", worst < 1e-10,
                       f"max |v(s) - s v(1)| {worst:.2e} (tol 1e-10)")


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
    certificate."""
    cfg = CSConfig()
    worst = 0.0
    for a in (2, 8, 32):
        m = builtin_family(a)
        circle = integrate_circle(lambda x: cs_density(m, cfg, x), cfg.quadrature)
        worst = max(worst, abs(cs_class(m, cfg).integral - circle))
    return CheckResult("per-period integral matches the full circle", worst < 1e-8,
                       f"max |I_period - I_circle| {worst:.2e} over a in {{2, 8, 32}} "
                       f"(tol 1e-8)")


def check_normalization_robustness(_: np.random.Generator) -> CheckResult:
    """The nontriviality verdict survives the s/4-vs-s normalization choice."""
    tol = CSConfig().integrality_tol
    worst = np.inf
    for a in (2, 8):
        report = cs_class(builtin_family(a), CSConfig())
        for value in (report.class_value, report.s * report.integral):
            frac = reduce_mod_z(value)
            worst = min(worst, min(frac, 1.0 - frac))
    return CheckResult("verdict robust to class normalization", worst > tol,
                       f"min distance to integers {worst:.2e} "
                       f"(must exceed integrality tol {tol:.0e})")


ALL_CHECKS: List[Callable[[np.random.Generator], CheckResult]] = [
    check_jet_finite_differences,
    check_quadrature_exactness,
    check_density_periodicity,
    check_christoffel_oracle,
    check_metric_compatibility,
    check_torsion_freedom,
    check_jacobi_identity,
    check_round_degeneracy,
    check_wedge_associativity,
    check_trace_cyclicity,
    check_wedge_bilinearity,
    check_sigma_minus1_routes,
    check_density_traces_oracle,
    check_leading_order_vanishing,
    check_constant_metric_vanishing,
    check_s_linearity,
    check_density_reality,
    check_quadrature_stability,
    check_normalization_robustness,
]


def run_all(seed: int = 20240) -> List[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        rng = np.random.default_rng(seed)
        results.append(check(rng))
    return results
