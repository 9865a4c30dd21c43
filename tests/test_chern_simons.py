import dataclasses
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import loopcs.chern_simons
import loopcs.expressions
import loopcs.geometry
import loopcs.oracle
from bitwise_references import assert_same_bits, assert_untouched, cyclic_connection_trace
from loopcs.chern_simons import (BLOCK, IMAG_TOLERANCE, MAX_S, SAMPLES_PER_PERIOD, CSConfig,
                                 CSReport, NonFiniteClassError, NonFiniteDensityError,
                                 ResidueConventionError, _constant_chain, connection_trace,
                                 cs_class, cs_density, reduce_mod_z, sweep)
from loopcs.expressions import EvalDomainError, JetProgram, evaluate, parse_expression
from loopcs.forms import evaluate3, trace, wedge
from loopcs.geometry import BergerMetric, builtin_family, round_metric
from loopcs.jets import Jet2
from loopcs.oracle import (christoffel_table, leading_order_density, sigma0_connection,
                           sigma_minus1_connection_beta)
from loopcs.quadrature import (QuadratureConvergenceError, QuadratureSpec, circle_grid,
                               integrate_circle)
from loopcs.verify import (check_density_reality, check_leading_order_vanishing,
                           random_metric)

CFG = CSConfig()
SRC = Path(__file__).resolve().parent.parent / "src"

# Density values for the a=2 family, frozen from an independent symbolic
# derivation (sympy expression trees for the full Christoffel/symbol/trace
# chain, evaluated in 25-digit arithmetic).
ORACLE_SAMPLES_A2 = {
    0.0: 7.5,
    0.7: 28.36483993396713,
    np.pi / 3.0: 63.5333244216818151,
    2.1: -215.404651185927317,
    5.5: -108.363324885324081,
}
# Circle integrals from the same derivation (mpmath quadrature, 30 digits)
ORACLE_INTEGRAL_A2 = -26.0686813921976406
ORACLE_INTEGRAL_A3 = -32.3825332294523161
ORACLE_INTEGRAL_A8 = -100.991657755131744


def test_density_matches_symbolic_oracle_pointwise():
    m = builtin_family(2)
    for alpha, want in ORACLE_SAMPLES_A2.items():
        got = float(cs_density(m, CFG, alpha))
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_density_vectorized_matches_scalar():
    m = builtin_family(3)
    grid = np.linspace(0.0, 2 * np.pi, 17)
    batch = cs_density(m, CFG, grid)
    single = np.array([float(cs_density(m, CFG, float(x))) for x in grid])
    assert np.allclose(batch, single, atol=1e-13)


def test_connection_trace_matches_wedge_route():
    # the class path's kernel reads the scale jets; the wedge route takes
    # sigma_0 and sigma_-1 from the dense table, with log-rates from
    # symbolically differentiated trees
    rng = np.random.default_rng(7)
    metrics = [builtin_family(a) for a in (2, 8, 32, 256)]
    metrics += [random_metric(rng) for _ in range(40)]
    grid = circle_grid(4096)
    for m in metrics:
        got = connection_trace(*m.scale_jets(grid))
        s0 = sigma0_connection(m, grid)
        sm1 = sigma_minus1_connection_beta(christoffel_table(m, grid))
        want = evaluate3(trace(wedge(wedge(sm1, s0), s0)))
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, m


def test_integral_a2():
    report = cs_class(builtin_family(2), CFG)
    assert abs(report.integral - ORACLE_INTEGRAL_A2) < 1e-6 * abs(ORACLE_INTEGRAL_A2)
    assert abs(report.class_value - ORACLE_INTEGRAL_A2 / 4.0) < 1e-6
    assert abs(report.mod_z - 0.48282965) < 1e-4
    assert report.nontrivial and report.verdict == "nontrivial"


def test_integral_a3_regression():
    # pinned by the high-resolution self-oracle (N = 2^16) and the
    # independent symbolic route; guards against silent convention drift
    spec = QuadratureSpec(n=2 ** 16)
    report = cs_class(builtin_family(3), CSConfig(quadrature=spec))
    assert abs(report.integral - ORACLE_INTEGRAL_A3) < 1e-6 * abs(ORACLE_INTEGRAL_A3)
    default = cs_class(builtin_family(3), CFG)
    assert abs(default.integral - report.integral) < 1e-8


def test_integral_a8():
    report = cs_class(builtin_family(8), CFG)
    assert abs(report.integral - ORACLE_INTEGRAL_A8) < 1e-6 * abs(ORACLE_INTEGRAL_A8)


def test_constant_metric_density_identically_zero():
    m = BergerMetric(parse_expression("1.3"), parse_expression("0.8"),
                     parse_expression("2.1"))
    grid = np.linspace(0.0, 2 * np.pi, 256)
    assert np.max(np.abs(cs_density(m, CFG, grid))) == 0.0


def test_round_metric_class():
    report = cs_class(round_metric(), CFG)
    assert report.integral == 0.0
    assert report.class_value == 0.0
    assert report.mod_z == 0.0
    assert not report.nontrivial
    assert report.verdict == "indeterminate"


def test_s_linearity():
    m = builtin_family(2)
    v1 = cs_class(m, CSConfig(s=1.0)).class_value
    for s in (0.6, 2.0, 3.5):
        v = cs_class(m, CSConfig(s=s)).class_value
        assert abs(v - s * v1) < 1e-10


def test_density_is_s_independent():
    m = builtin_family(2)
    grid = np.linspace(0.0, 2 * np.pi, 64)
    f1 = cs_density(m, CSConfig(s=1.0), grid)
    f2 = cs_density(m, CSConfig(s=3.5), grid)
    assert np.allclose(f1, f2, atol=1e-12)


def test_leading_order_density_vanishes():
    grid = np.linspace(0.0, 2 * np.pi, 100)
    assert np.max(np.abs(leading_order_density(builtin_family(2), grid))) < 1e-12
    assert np.max(np.abs(leading_order_density(round_metric(), grid))) == 0.0
    rng = np.random.default_rng(43)
    for _ in range(10):
        assert np.max(np.abs(leading_order_density(random_metric(rng), grid))) < 1e-12


def test_leading_order_check_sees_an_asymmetric_sigma0(monkeypatch):
    assert check_leading_order_vanishing(np.random.default_rng(20240)).passed
    original = loopcs.oracle.sigma0_connection

    def asymmetric(m, alpha):
        # the psi^3 entry U loses its symmetric partner by one part in 1e12
        s0 = original(m, alpha)
        s0.coeff((3,))[..., 1, 0] *= 1.0 + 1e-12
        return s0

    monkeypatch.setattr(loopcs.oracle, "sigma0_connection", asymmetric)
    assert not check_leading_order_vanishing(np.random.default_rng(20240)).passed


def test_reality_guard():
    report = cs_class(builtin_family(2), CFG)
    assert report.max_imag < 1e-10


# s from just above 1/2 to the largest float below 2**1023
S_SPREAD = [math.nextafter(0.5, 1.0), 0.51, 0.75, 1.0, 2.0, 3.5, 10.0, 1e5, 1e100,
            1e300, 8.98e307, math.nextafter(MAX_S, 0.0)]


@pytest.mark.parametrize("s", S_SPREAD)
def test_constant_chain_imaginary_part_is_exactly_zero(s):
    # cs_class skips the max|f| reduction, whose only use is |Im kappa| max|f|,
    # when Im kappa == 0.0; that holds for every s CSConfig accepts
    kappa = _constant_chain(CSConfig(s=s).s)
    assert kappa.imag == 0.0
    assert kappa.real == pytest.approx(1.0, rel=1e-15)


def test_max_imag_is_imag_kappa_times_max_abs_density(monkeypatch):
    # a constant off by 1e-15 relative gives 0 < |Im kappa| < IMAG_TOLERANCE:
    # the density is accepted and max_imag must still read |Im kappa| max|f|
    c = loopcs.chern_simons.CONNECTION_TRACE_CONSTANT
    monkeypatch.setattr(loopcs.chern_simons, "CONNECTION_TRACE_CONSTANT",
                        c + 1e-15 * abs(c))
    imag = abs(_constant_chain(CFG.s).imag)
    assert 0.0 < imag < IMAG_TOLERANCE
    for a in (2, 8):
        m = builtin_family(a)
        report = cs_class(m, CFG)
        assert report.samples_evaluated == 65
        f = cs_density(m, CFG, circle_grid(64) / a)   # the one level it sampled
        assert report.max_imag == imag * float(np.max(np.abs(f))) > 0.0


@pytest.mark.parametrize("metric", [builtin_family(2), round_metric()], ids=["family", "constant"])
def test_density_type_shape_and_writeability(metric):
    # a scalar alpha gives a numpy scalar, an array a fresh writable array of
    # its shape, also for a constant metric whose trace is a scalar
    for alpha, shape in [(0.3, ()), (np.float64(0.3), ()), (np.array(0.3), ()),
                         (np.linspace(0.0, 1.0, 5), (5,)),
                         (np.linspace(0.0, 1.0, 6).reshape(2, 3), (2, 3)),
                         (np.linspace(0.0, 6.0, 2 * BLOCK + 1), (2 * BLOCK + 1,))]:
        f = cs_density(metric, CFG, alpha)
        assert np.shape(f) == shape
        if shape:
            assert type(f) is np.ndarray and f.flags.writeable and f.dtype == np.float64
            assert not np.shares_memory(f, alpha)
        else:
            assert type(f) is np.float64


def test_class_value_overflow_is_one_error():
    # s below 2**1023 is accepted, but (s/4) * integral overflows a float
    for s in (8.98e307, math.nextafter(MAX_S, 0.0)):
        with pytest.raises(NonFiniteClassError, match="overflows a float"):
            cs_class(builtin_family(2), CSConfig(s=s))


def test_density_reality_check_catches_a_flipped_convention(monkeypatch):
    assert check_density_reality(np.random.default_rng(0)).passed
    # R = +4 pi leaves the chain real but equal to -1: the density flips sign
    monkeypatch.setattr(loopcs.chern_simons, "RESIDUE_CONVENTION", 4.0 * np.pi)
    assert not check_density_reality(np.random.default_rng(0)).passed


def test_real_connection_constant_trips_reality_guard(monkeypatch):
    # a real constant leaves the chain (2 pi^2/s) R (2 i s) 3 C purely imaginary
    monkeypatch.setattr(loopcs.chern_simons, "CONNECTION_TRACE_CONSTANT", 1.0)
    with pytest.raises(ResidueConventionError):
        cs_density(builtin_family(2), CFG, np.linspace(0.0, 2 * np.pi, 9))


def _count_density_samples(monkeypatch):
    # every density evaluation, on the report grid or on a refinement,
    # passes through cs_density; one entry per call, its sample count
    sizes = []
    original = loopcs.chern_simons.cs_density

    def counting(m, cfg, alpha):
        sizes.append(np.size(alpha))
        return original(m, cfg, alpha)

    monkeypatch.setattr(loopcs.chern_simons, "cs_density", counting)
    return sizes


@pytest.mark.parametrize("a", [2, 8, 32])
def test_class_samples_one_period_and_reads_grid_lazily(a, monkeypatch):
    sizes = _count_density_samples(monkeypatch)
    report = cs_class(builtin_family(a), CFG)
    assert sum(sizes) == report.samples_evaluated == 65
    grid = report.densities
    assert sum(sizes) == 65 + CFG.quadrature.n + 1 == 65 + grid.size
    assert report.densities is grid
    assert sum(sizes) == 65 + CFG.quadrature.n + 1


# a fast harmonic: 64 samples per period of the 128th harmonic, over the
# one period 2*pi, would be more than the report grid's 4097 samples
FAST_HARMONIC = "2+sin(alpha)+0.1*cos(128*alpha)"
# no certificate: sin(sin(alpha)) has no integer alpha-frequency
UNCERTIFIED = "2+sin(sin(alpha))"


def test_fast_harmonic_keeps_full_circle_ladder(monkeypatch):
    # the fast harmonic and the uncertified metric both start the ladder on
    # the report grid, and reading .densities adds no density samples
    sizes = _count_density_samples(monkeypatch)
    for lam, certificate in ((FAST_HARMONIC, (1, 128)), (UNCERTIFIED, None)):
        m = BergerMetric(parse_expression(lam), parse_expression("1"),
                         parse_expression("2-cos(alpha)"))
        assert m.certificate == certificate
        sizes.clear()
        report = cs_class(m, CFG)
        assert sum(sizes) == report.samples_evaluated == CFG.quadrature.n + 1
        assert report.densities.size == CFG.quadrature.n + 1
        assert sum(sizes) == CFG.quadrature.n + 1


@pytest.mark.parametrize("m", [
    builtin_family(8),
    BergerMetric(parse_expression(FAST_HARMONIC), parse_expression("1"),
                 parse_expression("2-cos(alpha)")),
    BergerMetric(parse_expression(UNCERTIFIED), parse_expression("1"),
                 parse_expression("2-cos(alpha)")),
], ids=["certified", "fast_harmonic", "uncertified"])
def test_every_class_is_one_integrate_circle_call(m, monkeypatch):
    calls = {"integrate_circle": 0}
    monkeypatch.setattr(loopcs.chern_simons, "integrate_circle",
                        _counting(calls, "integrate_circle", integrate_circle))
    cs_class(m, CFG)
    assert calls == {"integrate_circle": 1}


def test_rejected_metric_raises_from_one_density_call(monkeypatch):
    # lam = cos(1024 alpha) is 1 on the constructor's grid and negative
    # between; the first per-period level finds it, and the quadrature must
    # not retry the rejected metric point by point
    m = BergerMetric(parse_expression("1-2*sin(512*alpha)^2"),
                     parse_expression("1"), parse_expression("1"))
    sizes = _count_density_samples(monkeypatch)
    with pytest.raises(ValueError, match="lam is not positive at alpha=0.001726"):
        cs_class(m, CSConfig(quadrature=QuadratureSpec(n=1024)))
    assert sizes == [SAMPLES_PER_PERIOD + 1]


@pytest.mark.parametrize("a", [4096, 8192, 12288])
def test_large_a_integral_is_not_aliased(a):
    # every sample of the report grid sits at the same phase of a period
    # when a is a multiple of N; a plain trapezoid over one period does not
    m = builtin_family(a)
    n = 2 ** 12
    h = 2.0 * np.pi / a / n
    want = a * h * float(np.sum(cs_density(m, CFG, h * np.arange(n))))
    got = cs_class(m, CFG).integral
    assert abs(got - want) < 1e-9 * abs(want)


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("a", [2, 8, 32])
def test_no_table_no_log_rates_one_evaluate_per_class(a, monkeypatch):
    # that the class path uses no table, log-rate program or wedge is a fact
    # of the import graph (test_class_path_imports_no_oracle); this counts
    # what it does run
    m = builtin_family(a)  # the constructor's own evaluations are not counted
    calls = {"scale_jets": 0, "evaluate": 0}
    monkeypatch.setattr(BergerMetric, "scale_jets",
                        _counting(calls, "scale_jets", BergerMetric.scale_jets))
    # runs of a compiled program: the three scale trees go in one run
    monkeypatch.setattr(JetProgram, "__call__",
                        _counting(calls, "evaluate", JetProgram.__call__))
    cs_class(m, CFG)
    assert calls == {"scale_jets": 1, "evaluate": 1}


def test_class_path_imports_no_oracle():
    # in a fresh interpreter: compute loads none of the reference routes,
    # and verify still loads them and passes
    script = (
        "import sys, loopcs, loopcs.cli\n"
        "code = loopcs.cli.main(['compute', '--family', 'paper', '--a', '2'])\n"
        "loaded = [n for n in ('loopcs.oracle', 'loopcs.forms', 'loopcs.verify')\n"
        "          if n in sys.modules]\n"
        "assert (code, loaded) == (0, []), (code, loaded)\n"
        "assert loopcs.cli.main(['verify']) == 0\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _huge_s_class():
    """The a=2 class at an s near 5.2e14 chosen from the computed integral
    so that the class value is a half-integer of float spacing 0.5, and
    (s/4) |T_64 - T_32| of its ladder, the last two estimates
    integrate_circle compares.  Deriving s keeps the class value's
    fraction at 0.5 whatever the integral's last bits are."""
    m = builtin_family(2)
    integral = cs_class(m).integral
    target = -3 * 2.0 ** 50 - 0.5   # in [2**51, 2**52) the float spacing is 0.5
    # one step of s/4 moves (s/4) * integral by ~0.4, so target / integral
    # or a neighbour rounds to the target
    quarter = target / integral
    quarter = next(q for q in (quarter, math.nextafter(quarter, 0.0),
                               math.nextafter(quarter, math.inf))
                   if q * integral == target)
    cfg = CSConfig(s=4.0 * quarter)
    report = cs_class(m, cfg)
    f = cs_density(m, cfg, circle_grid(64) / 2.0)   # one period, g = 2
    h = 2.0 * np.pi / 64
    ends = 0.5 * (f[0] + f[-1])
    t64, t32 = h * (ends + f[1:-1].sum()), 2.0 * h * (ends + f[2:-1:2].sum())
    return report, cfg.s / 4.0 * abs(t64 - t32)


def test_huge_s_class_value_has_no_resolved_fraction():
    # the class value (about -3.4e15) is a half-integer of float spacing
    # 0.5, and the quadrature's own error estimate, scaled by s/4, exceeds
    # 1: its distance to the integers means nothing
    report, budget = _huge_s_class()
    assert report.samples_evaluated == 65
    assert report.mod_z == 0.5
    assert math.ulp(report.class_value) == 0.5
    assert budget > 1.0


@pytest.mark.xfail(strict=True, reason="the verdict reads only integrality_tol, not "
                   "the quadrature error or the class value's float spacing "
                   "(ROADMAP item 1): mod Z 0.5 here is called nontrivial")
def test_huge_s_verdict_is_not_nontrivial():
    report, _ = _huge_s_class()
    assert report.verdict == "indeterminate"


@pytest.mark.xfail(strict=True, raises=QuadratureConvergenceError,
                   reason="the ladder's tol is absolute (ROADMAP item 1): two "
                   "estimates of ~2.2e12 that agree to ~1e-13 relative never "
                   "differ by less than 1e-8")
def test_large_integral_ladder_converges():
    # a valid, provably positive metric whose integral is ~2.2e12; two
    # doublings leave T_N and T_N/2 at ...189.169 and ...188.870
    m = BergerMetric(parse_expression("1.0001+sin(alpha)"),
                     parse_expression("1-0.999*cos(alpha)^2"),
                     parse_expression("1.02+sin(64*alpha)"))
    report = cs_class(m, CSConfig(quadrature=QuadratureSpec(max_refinements=2)))
    assert report.integral == pytest.approx(2.2127291441889e12, rel=1e-12)


def _recording_compiles(monkeypatch) -> list:
    trees = []
    original = loopcs.geometry.compile_jets

    def recording(e, a=1):
        trees.append(e)
        return original(e, a)

    monkeypatch.setattr(loopcs.geometry, "compile_jets", recording)
    return trees


def _custom(lam: str) -> BergerMetric:
    return BergerMetric(parse_expression(lam), parse_expression("1"), parse_expression("1"))


def test_metric_constructor_evaluates_each_tree_once(monkeypatch):
    # a metric whose scale bounds prove it evaluates nothing; any other one
    # runs its compiled program once, on the 1025-point grid
    trees = _recording_compiles(monkeypatch)
    runs = {"evaluate": 0}
    monkeypatch.setattr(JetProgram, "__call__",
                        _counting(runs, "evaluate", JetProgram.__call__))
    for build, grid_runs in [
        (lambda: builtin_family(8), 0),
        (round_metric, 0),
        # positive, but its one interval over the circle reaches below 0
        (lambda: _custom("1.5+sin(alpha)-0.8*sin(alpha)"), 1),
        # provably positive, but uncertified: the grid checks its periodicity
        (lambda: _custom("2+sin(sin(alpha))"), 1),
    ]:
        trees.clear()
        runs["evaluate"] = 0
        m = build()
        assert trees == [(m.lam, m.mu, m.nu)]
        assert runs == {"evaluate": grid_runs}
        assert (m.scale_bounds is None) == bool(grid_runs)


def test_scale_trees_compile_once_per_metric(monkeypatch):
    trees = _recording_compiles(monkeypatch)
    m = builtin_family(8)
    first = cs_class(m, CFG).integral
    assert trees == [(m.lam, m.mu, m.nu)]

    def no_walk(self, e):
        raise AssertionError("a compiled metric walked its trees again")

    monkeypatch.setattr(loopcs.expressions._Compiler, "walk", no_walk)
    m.scale_jets(np.linspace(0.0, 2 * np.pi, 33))
    assert cs_class(m, CFG).integral == first
    assert trees == [(m.lam, m.mu, m.nu)]


def test_scale_jets_share_one_sin_cos_pair(monkeypatch):
    # mu = 2 + (1/a) cos(a alpha) sin(a alpha) and nu = 2 - cos(a alpha)
    # have one argument between them, so one np.sin and one np.cos of it
    m = builtin_family(8)
    grid = np.linspace(0.0, 2 * np.pi, 4097)
    calls = {"sin": 0, "cos": 0}
    for name in calls:
        original = getattr(np, name)

        def counting(x, *args, _name=name, _original=original, **kwargs):
            calls[_name] += np.ndim(x) > 0
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    m.scale_jets(grid)
    assert calls == {"sin": 1, "cos": 1}


def test_non_finite_density_rejected(monkeypatch):
    grid = np.linspace(0.0, 2 * np.pi, 9)
    for bad in (np.nan, np.inf):
        with monkeypatch.context() as patch:
            patch.setattr(loopcs.chern_simons, "connection_trace",
                          lambda lam, mu, nu, bad=bad: bad)
            with pytest.raises(NonFiniteDensityError):
                cs_density(builtin_family(2), CFG, grid)
    sizes = _count_density_samples(monkeypatch)
    m = BergerMetric(parse_expression("(2+sin(alpha))^300"),
                     parse_expression("1"), parse_expression("1"))
    with pytest.raises(NonFiniteDensityError):
        cs_class(m, CFG)
    assert sizes == [SAMPLES_PER_PERIOD + 1]  # fails on the first per-period level


LARGE_GRID = np.linspace(0.0, 2 * np.pi, 2 ** 15 + 1)


@pytest.mark.parametrize("a", [2, 8, 32, 4096])
def test_large_grid_density_is_bit_identical_in_blocks(a):
    m = builtin_family(a)
    blocks = np.array_split(LARGE_GRID, LARGE_GRID.size // BLOCK)
    assert len(blocks) == 8 and all(BLOCK <= x.size < 2 * BLOCK for x in blocks)
    f = cs_density(m, CFG, LARGE_GRID)
    assert np.array_equal(f, np.concatenate([cs_density(m, CFG, x) for x in blocks]))
    # the whole-grid product of the constant chain and the kernel
    whole = _constant_chain(CFG.s).real * connection_trace(*m.scale_jets(LARGE_GRID))
    assert np.array_equal(f, whole)


def _bump(center: float) -> str:
    # cos(1024 alpha) where ((1 + cos(alpha - center)) / 2)^200 is near 1:
    # 1 on the constructor's grid, negative between its points near center
    return f"1-2*sin(512*alpha)^2*((1+cos(alpha-{center}))/2)^200"


def _with_points(*points) -> np.ndarray:
    grid = LARGE_GRID.copy()
    for x in points:
        grid[np.argmin(np.abs(grid - x))] = x
    return grid


# The sign and pole metrics fail in mu in the first block and in lam in a
# later one; the overflow fails in many blocks.  The whole grid names the
# scale tested first (lam), the first failing op in program order (lam's
# Div) or the count over all samples; the first block alone would not.
@pytest.mark.parametrize("scales, grid, error, message", [
    ((_bump(5), _bump(0.4), "1"), LARGE_GRID, ValueError,
     "lam is not positive at alpha=4.886879"),
    (("1+0.001/sin(alpha-5)^2", "1+0.001/sin(alpha-0.5)^2", "1"), _with_points(0.5, 5.0),
     EvalDomainError, "division by zero in '(sin((alpha - 5.0)))^2'"),
    (("(2+sin(alpha))^300", "1", "1"), LARGE_GRID, NonFiniteDensityError,
     "density is not finite at 14477 of 32769 samples; the metric overflows or hits a pole"),
], ids=["sign", "pole", "overflow"])
def test_large_grid_errors_name_the_whole_grid(scales, grid, error, message, monkeypatch):
    m = BergerMetric(*(parse_expression(e) for e in scales))
    with pytest.raises(error) as blocked:
        cs_density(m, CFG, grid)
    with pytest.raises(error) as first_block:
        cs_density(m, CFG, grid[:BLOCK])
    monkeypatch.setattr(loopcs.chern_simons, "BLOCK", grid.size)
    with pytest.raises(error) as whole:
        cs_density(m, CFG, grid)
    assert str(blocked.value) == str(whole.value) == message != str(first_block.value)


@pytest.mark.parametrize("n, runs", [(65, 1), (1025, 1), (4097, 1), (2 * BLOCK - 1, 1),
                                     (2 * BLOCK, 2), (2 ** 15 + 1, 8)])
def test_density_runs_the_program_once_below_two_blocks(n, runs, monkeypatch):
    m = builtin_family(8)
    calls = {"run": 0}
    monkeypatch.setattr(JetProgram, "__call__", _counting(calls, "run", JetProgram.__call__))
    cs_density(m, CFG, np.linspace(0.0, 2 * np.pi, n))
    assert calls == {"run": runs}


def test_mod_z_in_unit_interval():
    assert reduce_mod_z(-5e-17) == 0.0
    assert reduce_mod_z(-0.25) == 0.75
    assert reduce_mod_z(3.0) == 0.0
    scale = parse_expression("2+sin(alpha)")
    report = cs_class(BergerMetric(scale, scale, scale), CFG)
    assert 0.0 <= report.mod_z < 1.0
    assert not report.nontrivial


def test_per_period_integral_matches_full_circle():
    # the ladder over the whole circle on the report grid ignores the
    # frequency certificate: it sees a wrong period or a wrong factor g
    for a in (2, 3):
        m = builtin_family(a)
        circle = integrate_circle(lambda x: cs_density(m, CFG, x), CFG.quadrature)
        assert abs(cs_class(m, CFG).integral - circle) < 1e-8


def test_sweep():
    reports = sweep([2, 3], CFG)
    assert [r.a for r in reports] == [2, 3]
    assert abs(reports[0].integral - ORACLE_INTEGRAL_A2) < 1e-4
    assert abs(reports[1].integral - ORACLE_INTEGRAL_A3) < 1e-4
    with pytest.raises(ValueError):
        sweep([2, 0], CFG)


def test_report_contents():
    report = cs_class(builtin_family(2), CFG)
    assert report.alphas.shape == (CFG.quadrature.n + 1,)
    assert report.densities.shape == report.alphas.shape
    assert report.quadrature_n == CFG.quadrature.n
    assert abs(report.mod_z - (report.class_value - np.floor(report.class_value))) < 1e-15
    assert abs(report.densities[0] - 7.5) < 1e-12
    assert abs(report.densities[-1] - 7.5) < 1e-10  # periodicity
    assert report.distance_to_integers == min(report.mod_z, 1.0 - report.mod_z)


def test_config_validation():
    # from s = 2**1023 on, 2 i s overflows and the constant chain is NaN; a
    # distance to the integers is at most 1/2, so a tolerance of 1/2 or more
    # would make every verdict "indeterminate"
    for bad in ({"s": 0.5}, {"s": np.inf}, {"s": np.nan}, {"s": MAX_S}, {"s": 1e308},
                {"integrality_tol": 0.0}, {"integrality_tol": np.inf},
                {"integrality_tol": np.nan}, {"integrality_tol": 0.5},
                {"integrality_tol": 0.6}):
        with pytest.raises(ValueError):
            CSConfig(**bad)
    assert MAX_S == 2.0 ** 1023
    CSConfig(s=math.nextafter(MAX_S, 0.0), integrality_tol=math.nextafter(0.5, 0.0))


TRACE_LINE = np.linspace(0.0, 2.0 * np.pi, 65)
TRACE_ALPHAS = [0.7, np.float64(0.7), np.array(0.7), TRACE_LINE,
                np.linspace(0.0, 2.0 * np.pi, 64).reshape(8, 8),
                TRACE_LINE + 0.01j, TRACE_LINE + 0j]


@pytest.mark.parametrize("metric", [
    *(builtin_family(a) for a in (1, 2, 3, 8, 32, 4096, -3)),
    *(random_metric(np.random.default_rng(seed)) for seed in range(4)),
    round_metric()])
def test_connection_trace_is_the_cyclic_loop_bitwise(metric):
    # the straight-line kernel against the loop it was unrolled from, on
    # scalar, 0-d, 1-D, 2-D and complex alpha
    for alpha in TRACE_ALPHAS:
        jets = evaluate((metric.lam, metric.mu, metric.nu), alpha, metric.a)
        assert_same_bits(connection_trace(*jets), cyclic_connection_trace(*jets))


def test_connection_trace_keeps_the_signs_of_zeros():
    # every scale in {1, -1, 2} with derivatives in {0, -0, 1, -1}, for all
    # three scales at once: the loop's sum starts from 0, so three -0.0
    # terms sum to +0.0, and every doubling rounds as 2 * y does
    values, derivatives = (1.0, -1.0, 2.0), (0.0, -0.0, 1.0, -1.0)
    jets = np.array(list(itertools.product(values, derivatives, derivatives)))
    pick = np.array(list(itertools.product(range(len(jets)), repeat=3)))
    scales = [Jet2(*jets[pick[:, n]].T) for n in range(3)]
    with np.errstate(all="ignore"):
        got, want = connection_trace(*scales), cyclic_connection_trace(*scales)
    assert_same_bits(got, want)
    assert np.count_nonzero(want == 0.0) > 1000


def test_kernel_leaves_its_inputs_untouched():
    # connection_trace writes in place only into its own temporaries: never
    # into a scale component (a constant sum passes d1 and d2 through, a
    # sin/cos pair's jets share its arrays), nor into one jet passed as two
    # scales, nor, through cs_density blocked or whole, into the caller's alpha
    long = np.linspace(0.0, 2.0 * np.pi, 2 * BLOCK + 1)
    for m in (builtin_family(3), random_metric(np.random.default_rng(5))):
        for alpha in (*TRACE_ALPHAS, long, long + 0.01j):
            assert_untouched(connection_trace, *m.scale_jets(alpha))
            assert_untouched(lambda x: cs_density(m, CFG, x), alpha)
    rng = np.random.default_rng(11)
    j, k = (Jet2(*rng.uniform(0.5, 2.0, (3, 65))) for _ in range(2))
    assert_same_bits(assert_untouched(connection_trace, j, j, k),
                     cyclic_connection_trace(j, j, k))


def test_connection_trace_needs_one_grid_and_dtype():
    # the contract of the in-place kernel (connection_trace docstring): the
    # scales share one grid and one dtype, as one scale_jets call gives.
    # Outside it, another grid raises where the cyclic loop broadcast, and
    # float32 scales narrow the float64 trace the loop widened
    rng = np.random.default_rng(13)
    lam, mu, nu = (Jet2(*rng.uniform(0.5, 2.0, (3, 16))) for _ in range(3))
    column = Jet2(lam.v[:, None], lam.d1[:, None], lam.d2[:, None])
    assert cyclic_connection_trace(column, mu, nu).shape == (16, 16)
    with pytest.raises(ValueError):
        connection_trace(column, mu, nu)
    mu32, nu32 = (Jet2(*(np.float32(c) for c in (j.v, j.d1, j.d2))) for j in (mu, nu))
    want, got = cyclic_connection_trace(lam, mu32, nu32), connection_trace(lam, mu32, nu32)
    assert want.dtype == np.float64 and got.dtype == np.float32
    assert np.allclose(got, want, rtol=1e-4)


def test_density_off_the_real_axis_is_not_tested_for_positivity():
    # complex scales are not ordered: the density is Re kappa times the
    # trace of the program's jets, with no warning and no positivity error
    m = builtin_family(8)
    alpha = np.linspace(0, 2 * np.pi, 65) + 0.5j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cs_density(m, CFG, alpha)
        want = _constant_chain(CFG.s).real * connection_trace(*m._scales(alpha))
    assert_same_bits(got, want)


def test_density_takes_lists_and_tuples_of_any_length():
    # below and above the blocked size alike, a sequence is read as the
    # array of its floats
    m = builtin_family(2)
    for n in (1, 2, 65, 9000):
        grid = np.linspace(0.0, 6.0, n)
        want = cs_density(m, CFG, grid)
        for alpha in (grid.tolist(), tuple(grid.tolist())):
            got = cs_density(m, CFG, alpha)
            assert type(got) is np.ndarray and got.flags.writeable
            assert_same_bits(got, want)


def test_report_stays_frozen_and_compares_equal():
    m = builtin_family(8)
    report, again = cs_class(m, CFG), cs_class(m, CFG)
    assert report == again and repr(report) == repr(again)
    assert [f.name for f in dataclasses.fields(CSReport)][-1] == "_grid_densities"
    for name in ("integral", "verdict", "metric", "samples_evaluated", "_grid_densities"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(report, name, None)
    assert report.alphas is report.alphas and report.densities is report.densities
    assert np.array_equal(report.densities, cs_density(m, CFG, circle_grid(report.quadrature_n)))
    changed = dataclasses.replace(report, verdict="indeterminate")
    assert changed.verdict == "indeterminate" and changed != report
    assert changed.integral == report.integral


def test_ladder_spec_is_built_once_per_key(monkeypatch):
    specs = []
    integrate = loopcs.chern_simons.integrate_circle
    monkeypatch.setattr(loopcs.chern_simons, "integrate_circle",
                        lambda f, spec: specs.append(spec) or integrate(f, spec))
    for a in (2, 8, 2):   # certificates (a, a): 64 samples per period each
        cs_class(builtin_family(a), CFG)
    q = CFG.quadrature
    assert specs[0] is specs[1] is specs[2]
    assert specs[0] == QuadratureSpec(SAMPLES_PER_PERIOD, q.tol, q.max_refinements)
    # and a key the ladder never takes is refused as QuadratureSpec refuses it
    for args in ((15, 1e-8, 8), (2 ** 21, 1e-8, 8), (64, math.inf, 8), (64, 1e-8, 0)):
        with pytest.raises(ValueError) as want:
            QuadratureSpec(*args)
        with pytest.raises(ValueError) as got:
            loopcs.chern_simons._ladder_spec(*args)
        assert str(got.value) == str(want.value)
