import copy
import pickle

import numpy as np
import pytest

import loopcs.geometry
from loopcs.expressions import alpha_frequencies, parse_expression, value_bounds
from loopcs.geometry import BergerMetric, builtin_family, round_metric
from loopcs.oracle import (christoffel_koszul, christoffel_table, log_rate_jets,
                           sigma0_connection, structure_constants)
from loopcs.verify import (check_christoffel_oracle, check_jacobi_identity,
                           check_metric_compatibility, check_round_degeneracy,
                           check_torsion_freedom, random_metric)


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
    result = check_jacobi_identity(np.random.default_rng(20240))
    assert result.passed, result.detail


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
    assert check_metric_compatibility(np.random.default_rng(20240)).passed
    assert check_torsion_freedom(np.random.default_rng(20240)).passed


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
    result = check_round_degeneracy(np.random.default_rng(20240))
    assert result.passed, result.detail


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
    for scale in ("1+0.1*alpha", "2+sin(0.5*alpha)"):
        with pytest.raises(ValueError) as err:
            metric(scale, "1", "2-cos(alpha)")
        assert "periodic" in str(err.value)
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
            assert (lo, hi) == value_bounds(e, m.a) and 0.0 < lo <= hi


@pytest.mark.parametrize("src", ["alpha", "sin(0.5*alpha)", "sin(sin(alpha))",
                                 "sin(alpha^2)"])
def test_no_frequency_certificate(src):
    assert alpha_frequencies(parse_expression(src)) is None


def test_frequency_certificate():
    assert metric("2+cos(3*alpha)*sin(6*alpha)").certificate == (3, 6)
    for a in (1, 2, 7, 32, 4096, -8):
        assert builtin_family(a).certificate == (abs(a), abs(a))
    assert round_metric().certificate == (1, 0)
    # periodic, but no period can be read off the tree: the numeric test
    # at 0 and 2*pi accepts it
    assert metric("2+sin(sin(alpha))").certificate is None


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


def test_batched_tables_match_pointwise():
    m = builtin_family(2)
    alphas = np.linspace(0.0, 2 * np.pi, 9)
    batched = christoffel_table(m, alphas)
    for i, alpha in enumerate(alphas):
        single = christoffel_table(m, float(alpha))
        assert np.allclose(batched.v[i], single.v, atol=1e-15)
        assert np.allclose(batched.d1[i], single.d1, atol=1e-15)
