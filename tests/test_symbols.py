import numpy as np
import pytest

from loopcs.expressions import parse_expression
from loopcs.geometry import BergerMetric, builtin_family, round_metric
from loopcs.oracle import (christoffel_table, sigma0_connection,
                           sigma_minus1_connection_beta, sigma_minus1_connection_dot)
from loopcs.verify import check_sigma_minus1_routes, random_metric


def metric(lam, mu, nu):
    return BergerMetric(parse_expression(lam), parse_expression(mu),
                        parse_expression(nu))


# ------------------------------------------------------------------ sigma_0

def test_round_metric_sigma0_vanishes():
    assert sigma0_connection(round_metric(), 0.9).max_abs() == 0.0


def test_sigma0_constant_scales():
    s0 = sigma0_connection(metric("1", "2", "3"), 0.4)
    psi3 = s0.coeff((3,))
    assert abs(psi3[0, 1] - 4.5) < 1e-14   # U in position (1,2)
    assert abs(psi3[1, 0] - 4.5) < 1e-14
    assert s0.coeff((3,))[2, 3] == 0.0              # C/2 entry: zero for constants
    assert np.max(np.abs(s0.coeff((4,)))) == 0.0    # -A,-B,-C diagonal: zero


def test_sigma0_matrix_is_symmetric():
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = random_metric(rng)
        s0 = sigma0_connection(m, float(rng.uniform(0, 2 * np.pi)))
        for p in (1, 2, 3, 4):
            mat = s0.coeff((p,))
            assert np.array_equal(mat, mat.T)


def test_sigma0_coefficients_are_real():
    s0 = sigma0_connection(builtin_family(2), 1.0)
    for p in (1, 2, 3, 4):
        assert np.isrealobj(s0.coeff((p,)))


# ----------------------------------------------------------------- sigma_-1

def test_constant_scales_sigma_minus1_vanishes():
    # every term carries either a gamma^._{.4} factor or an alpha-derivative
    assert sigma_minus1_connection_beta(
        christoffel_table(metric("1", "2", "3"), 0.8)).max_abs() == 0.0


def test_hand_expanded_entry():
    # lam = 1, mu = nu: gamma^1_32 = -mu^2 and gamma^2_13 = -(2 - mu^2), so
    # M_3[1,2] = B(mu^2 - (2 - mu^2)) + d_alpha(-mu^2 - (2 - mu^2))
    #          = 2 B (mu^2 - 1)
    # with mu = 2 - cos(alpha) at alpha = pi/3: mu = 3/2, B = (sqrt3/2)/(3/2),
    # so M_3[1,2] = 2 * sqrt(3)/3 * 5/4 = 5 sqrt(3) / 6
    m = metric("1", "2-cos(alpha)", "2-cos(alpha)")
    got = sigma_minus1_connection_beta(christoffel_table(m, np.pi / 3.0)).coeff((3,))[0, 1]
    assert abs(got - 5.0 * np.sqrt(3.0) / 6.0) < 1e-13


def test_builtin_family_sigma_minus1_finite_and_consistent():
    m = builtin_family(2)
    form = sigma_minus1_connection_beta(christoffel_table(m, 0.0))
    assert np.all(np.isfinite(form.coeff((1,))))
    assert form.max_abs() > 0.0
    for direction in (1, 2, 3):
        loops = sigma_minus1_connection_dot(m, 0.0, direction, None)
        assert np.allclose(form.coeff((direction,)), loops, atol=1e-13)


def test_loop_route_takes_the_callers_table():
    # the table a caller passes in is the one the route would build
    rng = np.random.default_rng(31)
    for _ in range(5):
        m = random_metric(rng)
        alpha = float(rng.uniform(0, 2 * np.pi))
        table = christoffel_table(m, alpha)
        for direction in (1, 2, 3, 4):
            for xdot in (None, rng.normal(size=4)):
                want = sigma_minus1_connection_dot(m, alpha, direction, xdot)
                got = sigma_minus1_connection_dot(m, alpha, direction, xdot, table=table)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_dot_route_matches_beta_route():
    assert check_sigma_minus1_routes(np.random.default_rng(20240)).passed


def test_drift_term_is_twice_sigma0():
    # the coefficient of xdot^l is gamma[a,b,l] + gamma[b,a,l], i.e. exactly
    # twice the psi^l coefficient of the order-0 symbol
    rng = np.random.default_rng(29)
    for _ in range(20):
        m = random_metric(rng)
        alpha = float(rng.uniform(0, 2 * np.pi))
        s0 = sigma0_connection(m, alpha)
        for l in (1, 2, 3, 4):
            xdot = np.zeros(4)
            xdot[l - 1] = 1.0
            drift = (sigma_minus1_connection_dot(m, alpha, 1, xdot)
                     - sigma_minus1_connection_dot(m, alpha, 1, None))
            assert np.allclose(drift, 2.0 * s0.coeff((l,)), atol=1e-12)


def test_round_metric_drift_vanishes():
    # round metric: sigma0 = 0, so the drift contribution cancels entirely
    out = sigma_minus1_connection_dot(round_metric(), 0.5, 1, np.array([0.0, 1.0, 0.0, 0.0]))
    assert np.max(np.abs(out)) == 0.0


def test_constant_scales_drift_entry():
    # lam=1, mu=2, nu=3: drift on xdot = e_2 has (1,3)/(3,1) entries -32/3,
    # twice the -V psi^2 entry of sigma0
    m = metric("1", "2", "3")
    out = sigma_minus1_connection_dot(m, 0.0, 1, np.array([0.0, 1.0, 0.0, 0.0]))
    assert abs(out[0, 2] - (-32.0 / 3.0)) < 1e-13
    assert abs(out[2, 0] - (-32.0 / 3.0)) < 1e-13


def test_dot_rejects_bad_input():
    m = round_metric()
    with pytest.raises(ValueError):
        sigma_minus1_connection_dot(m, 0.0, 5, None)
    with pytest.raises(ValueError):
        sigma_minus1_connection_dot(m, 0.0, 1, np.zeros(3))
