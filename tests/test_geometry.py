import copy
import pickle

import numpy as np
import pytest

import loopcs
import loopcs.geometry
from loopcs.expressions import compile_jets, parse_expression
from loopcs.geometry import BergerMetric, builtin_family, round_metric
from loopcs.oracle import (christoffel_koszul, christoffel_table, log_rate_jets,
                           sigma0_connection, structure_constants)
from loopcs.verify import check_christoffel_oracle, random_metric, random_scale_expression


def metric(lam="1", mu="1", nu="1"):
    return BergerMetric(parse_expression(lam), parse_expression(mu),
                        parse_expression(nu))


# ---------------------------------------------------------------- structure

def test_round_metric_brackets():
    c = structure_constants(round_metric(), 0.3).v
    assert c[2, 0, 1] == 2.0      # c^3_12
    assert c[0, 1, 2] == 2.0      # c^1_23
    assert c[1, 0, 2] == -2.0     # c^2_13
    assert np.all(c[3] == 0.0)    # no bracket has an F4 component
    assert np.all(c[:, 3, :] == 0.0) and np.all(c[:, :, 3] == 0.0)


def test_constant_scales_bracket():
    c = structure_constants(metric("1", "2", "3"), 1.0).v
    assert abs(c[2, 0, 1] - 4.0 / 3.0) < 1e-15  # 2 lam mu / nu


def test_circle_bracket_picks_up_scale_rate():
    m = metric("1+0.1*sin(alpha)", "1", "1")
    c = structure_constants(m, 0.0)
    assert abs(c.v[0, 3, 0] - 0.1) < 1e-15  # c^1_41 = lam'/lam = 0.1 at 0
    assert c.v[1, 3, 1] == 0.0 and c.v[2, 3, 2] == 0.0


def test_antisymmetry_and_jacobi():
    rng = np.random.default_rng(3)
    m = builtin_family(3)
    c = structure_constants(m, rng.uniform(0, 2 * np.pi, 7)).v
    assert np.max(np.abs(c + np.einsum("...kij->...kji", c))) == 0.0
    # the Jacobi identity, with the alpha-derivative terms of the F4 brackets
    rng = np.random.default_rng(20240)
    for _ in range(40):
        m = random_metric(rng)
        sc = structure_constants(m, rng.uniform(0.0, 2 * np.pi, 5))
        j = np.einsum("...mij,...nmk->...nijk", sc.v, sc.v)
        j[..., :, :, :, 3] -= sc.d1
        total = j + np.einsum("...njki->...nijk", j) + np.einsum("...nkij->...nijk", j)
        assert np.max(np.abs(total)) < 1e-12


# -------------------------------------------------------------- christoffel

def test_round_metric_koszul():
    g = christoffel_koszul(round_metric(), 0.0).v
    assert g[2, 0, 1] == 1.0    # gamma^3_12
    assert g[2, 1, 0] == -1.0   # gamma^3_21
    assert g[1, 2, 0] == 1.0    # gamma^2_31
    assert g[0, 2, 1] == -1.0   # gamma^1_32
    # no alpha dependence: every scale-rate entry vanishes
    assert np.max(np.abs(g[:, :, 3])) == 0.0
    assert np.max(np.abs(g[3])) == 0.0


def test_constant_scales_table_values():
    g = christoffel_table(metric("1", "2", "3"), 0.5).v
    assert abs(g[2, 0, 1] - (-23.0 / 6.0)) < 1e-14   # (4 - 36 + 9)/6
    assert abs(g[2, 1, 0] - (-31.0 / 6.0)) < 1e-14   # (-4 - 36 + 9)/6
    # torsion against the bracket: gamma^3_12 - gamma^3_21 = c^3_12 = 4/3
    assert abs((g[2, 0, 1] - g[2, 1, 0]) - 4.0 / 3.0) < 1e-14
    # constants: every F4-related entry is zero
    assert np.max(np.abs(g[:, :, 3])) == 0.0
    assert np.max(np.abs(g[3])) == 0.0


def test_scale_rate_entries():
    m = metric("1", "2+0.25*cos(2*alpha)*sin(2*alpha)", "2-cos(2*alpha)")
    g = christoffel_table(m, 0.0).v
    assert g[0, 0, 3] == 0.0  # gamma^1_14 = -lam'/lam = 0 (lam = 1)
    # mu = 2 + (1/8) sin(4 alpha): mu'(0) = 1/2, mu(0) = 2, B = 1/4
    assert abs(g[1, 1, 3] - (-0.25)) < 1e-14   # gamma^2_24 = -B
    assert abs(g[3, 1, 1] - 0.25) < 1e-14      # gamma^4_22 = +B


def test_sparsity_pattern():
    g = christoffel_table(builtin_family(5), 1.1).v
    assert np.max(np.abs(g[:, 3, :])) == 0.0   # gamma^i_4j and gamma^i_44
    assert np.max(np.abs(g[3, :, 3])) == 0.0   # gamma^4_j4


def test_table_matches_koszul_oracle():
    result = check_christoffel_oracle(np.random.default_rng(20240))
    assert result.passed, result.detail


def test_metric_compatibility_and_torsion():
    rng = np.random.default_rng(20240)
    for _ in range(40):
        m = random_metric(rng)
        alphas = rng.uniform(0.0, 2 * np.pi, 5)
        g = christoffel_table(m, alphas).v
        c = structure_constants(m, alphas).v
        assert np.max(np.abs(g + np.einsum("...kij->...jik", g))) < 1e-12
        assert np.max(np.abs(g - np.einsum("...kij->...kji", g) - c)) < 1e-12


# -------------------------------------------------------------- coefficients

def coefficients(m, alpha):
    """U, V, W and the log-rates A, B, C, read off the order-0 symbol."""
    s0 = sigma0_connection(m, alpha)
    return (s0.coeff((3,))[0, 1], -s0.coeff((2,))[0, 2], s0.coeff((1,))[1, 2],
            *(2.0 * s0.coeff((p,))[p - 1, 3] for p in (1, 2, 3)))


def test_coefficient_values_constant_scales():
    U, V, W, A, B, C = coefficients(metric("1", "2", "3"), 0.7)
    assert abs(U - 4.5) < 1e-14          # nu^2 (mu^2-lam^2) / (lam mu nu)
    assert abs(W - 5.0 / 6.0) < 1e-14    # lam^2 (nu^2-mu^2) / (lam mu nu)
    # V = mu^2 (nu^2 - lam^2) / (lam mu nu): the combination the Christoffel
    # table produces, -(gamma^1_32 + gamma^3_12)/2 = -(-41/6 - 23/6)/2 = 16/3,
    # here from the Koszul route
    g = christoffel_koszul(metric("1", "2", "3"), 0.7).v
    assert abs(V - 16.0 / 3.0) < 1e-14
    assert abs(V - (-(g[0, 2, 1] + g[2, 0, 1]) / 2.0)) < 1e-14
    assert A == B == C == 0.0


def test_round_metric_coefficients_vanish():
    U, V, W = coefficients(round_metric(), 1.3)[:3]
    assert U == V == W == 0.0
    # equal non-constant scales: U, V, W sit at psi^3 (1,2), psi^2 (1,3)
    # and psi^1 (2,3) of sigma_0
    rng = np.random.default_rng(20240)
    for _ in range(10):
        e = random_scale_expression(rng)
        s0 = sigma0_connection(BergerMetric(e, e, e), rng.uniform(0.0, 2 * np.pi, 20))
        uvw = [s0.coeff((3,))[..., 0, 1], s0.coeff((2,))[..., 0, 2], s0.coeff((1,))[..., 1, 2]]
        assert np.max(np.abs(uvw)) < 1e-12


def test_log_rate():
    m = metric("1", "1", "2-cos(alpha)")
    C = coefficients(m, np.pi / 2.0)[5]
    assert abs(C - 0.5) < 1e-15  # nu'/nu = 1/2 at pi/2
    lam, mu, nu = m.scale_jets(np.pi / 2.0)
    assert abs(C - nu.d1 / nu.v) < 1e-15
    rate = log_rate_jets(m, np.pi / 2.0, (lam, mu, nu))[2]
    assert abs(rate.d1 - (nu.d2 / nu.v - (nu.d1 / nu.v) ** 2)) < 1e-15


# ------------------------------------------------------------------ metrics

def test_positivity_enforced():
    with pytest.raises(ValueError) as err:
        metric("1", "cos(alpha)", "1")
    assert "alpha" in str(err.value)


def test_periodicity_enforced():
    # no certificate, no metric: alpha outside a sin/cos argument, or a
    # non-integer frequency, even where the scale is periodic after all
    for scale in ("1+0.1*alpha", "2+sin(0.5*alpha)", "alpha", "2+sin(0.5*alpha)^2",
                  "2+alpha^2-alpha^2"):
        with pytest.raises(ValueError) as err:
            metric(scale, "1", "2-cos(alpha)")
        assert str(err.value).startswith("lam is not provably 2*pi-periodic")
    for a in range(1, 65):
        builtin_family(a)
    round_metric()
    rng = np.random.default_rng(20240)
    for _ in range(50):
        random_metric(rng)


def test_proved_metrics_pass_the_grid_check():
    # every metric the scale bounds prove passes the 1025-point check the
    # constructor runs on the others
    rng = np.random.default_rng(20241)
    metrics = [builtin_family(a) for a in (1, 2, 3, 8, 32, 4096, -5)]
    metrics += [random_metric(rng) for _ in range(40)]
    metrics += [metric("1.0001+sin(alpha)", "1-0.999*cos(alpha)^2", "1.02+sin(64*alpha)"),
                metric("1/(2+sin(3*alpha))^2", "(cos(alpha)-1.5)^-3*(0-1)", "2+cos(alpha)^7")]
    for m in metrics:
        assert m.scale_bounds is not None, m
        m._check_grid()
        for e, (lo, hi) in zip((m.lam, m.mu, m.nu), m.scale_bounds):
            assert (lo, hi) == compile_jets((e,), m.a).bounds[0] and 0.0 < lo <= hi


@pytest.mark.parametrize("src", ["alpha", "sin(0.5*alpha)", "sin(alpha^2)"])
def test_no_frequency_certificate(src):
    assert compile_jets((parse_expression(src),)).frequencies is None


def test_frequency_certificate():
    assert metric("2+cos(3*alpha)*sin(6*alpha)").certificate == (3, 6)
    for a in (1, 2, 7, 32, 4096, -8):
        assert builtin_family(a).certificate == (abs(a), abs(a))
    assert round_metric().certificate == (1, 0)


@pytest.mark.parametrize("src, want", [
    pytest.param(src, want, id=src) for src, want in [
        ("sin(sin(alpha))", (1, 1)),
        ("sin(sin(64*alpha))", (64, 64)),
        ("cos(3*sin(4*alpha)+sin(6*alpha))", (2, 6))]])
def test_nested_frequency_certificate(src, want):
    # a sin/cos of a non-linear argument keeps the argument's period, and
    # K counts the linear frequencies inside it
    assert metric(f"2+{src}").certificate == want


def test_metric_pickles_without_its_compiled_programs():
    m = builtin_family(8)
    grid = np.linspace(0.0, 2 * np.pi, 17)
    christoffel_table(m, grid)   # its derivative program is kept off the metric
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m and copy.certificate == m.certificate
    for got, want in zip(copy.scale_jets(grid), m.scale_jets(grid)):
        assert all(np.array_equal(x, y) for x, y in zip((got.v, got.d1, got.d2),
                                                        (want.v, want.d1, want.d2)))


@pytest.mark.parametrize("build", [lambda: builtin_family(8),
                                   lambda: metric("1.5+sin(alpha)-0.8*sin(alpha)")])
@pytest.mark.parametrize("duplicate", [lambda m: pickle.loads(pickle.dumps(m)),
                                       copy.copy, copy.deepcopy])
def test_every_copy_is_rebuilt_by_the_constructor(monkeypatch, build, duplicate):
    # a proved metric and a grid-checked one: each copy compiles its trees
    # once, as the constructor does, and nothing compiled is pickled
    m = build()
    assert (m.scale_bounds is None) == (m.a == 1)   # the family is proved, the other sampled
    compiled = []
    compile_jets = loopcs.geometry.compile_jets
    monkeypatch.setattr(loopcs.geometry, "compile_jets",
                        lambda *args: compiled.append(args) or compile_jets(*args))
    twin = duplicate(m)
    assert len(compiled) == 1 and twin is not m
    assert twin == m and (twin.certificate, twin.scale_bounds) == (m.certificate, m.scale_bounds)
    assert twin._scales is not m._scales
    grid = np.linspace(0.0, 2 * np.pi, 65)
    for got, want in zip(twin.scale_jets(grid), m.scale_jets(grid)):
        for x, y in zip((got.v, got.d1, got.d2), (want.v, want.d1, want.d2)):
            assert np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
    assert b"JetProgram" not in pickle.dumps(m)


def test_family_parameter_zero_rejected():
    with pytest.raises(ValueError):
        builtin_family(0)


def _bits(x):
    # a float by its hex, signed zeros apart, and its type
    return (type(x), x.hex()) if isinstance(x, float) else (type(x), x)


def test_builtin_family_is_the_compiled_family_bit_for_bit():
    # the compiler is the binding's oracle: the same ops, constants,
    # certificate and enclosures as the family's trees compiled at a
    family = (loopcs.geometry._LAM, loopcs.geometry._MU, loopcs.geometry._NU)
    for a in [*range(-300, 0), *range(1, 301), 4096, 10 ** 6, 2 ** 53 + 1, 3 ** 40]:
        got, want = builtin_family(a), BergerMetric(*family, a)
        assert (got._scales.fns, got._scales.ins) == (want._scales.fns, want._scales.ins)
        assert ([[_bits(c) for c in op] for op in got._scales.constants]
                == [[_bits(c) for c in op] for op in want._scales.constants]), a
        assert [_bits(g) for g in got.certificate] == [_bits(g) for g in want.certificate], a
        assert ([[_bits(x) for x in box] for box in got.scale_bounds]
                == [[_bits(x) for x in box] for box in want.scale_bounds]), a


def test_family_enclosures_prove_every_member_below_the_bound():
    # below 2**1021 a member needs no grid check, so sweep builds no metric
    # for it; past the bound its grid check may raise, in sweep too
    top = int(np.nextafter(loopcs.geometry._PROVED_A, 0.0))
    for a in (1, -1, top, -top):
        assert builtin_family(a).scale_bounds is not None
    with pytest.raises(ValueError, match="mu is not finite"):
        builtin_family(2 ** 1022)
    for a_values in ([2, 2 ** 1022, 0], [2, 0, 2 ** 1022], [2, 10 ** 400, 2 ** 1022]):
        with pytest.raises(ValueError) as swept:
            loopcs.sweep(a_values)
        with pytest.raises(ValueError) as built:
            [builtin_family(a) for a in a_values]
        assert str(swept.value) == str(built.value)


def test_batched_tables_match_pointwise():
    m = builtin_family(2)
    alphas = np.linspace(0.0, 2 * np.pi, 9)
    batched = christoffel_table(m, alphas)
    for i, alpha in enumerate(alphas):
        single = christoffel_table(m, float(alpha))
        assert np.allclose(batched.v[i], single.v, atol=1e-15)
        assert np.allclose(batched.d1[i], single.d1, atol=1e-15)
