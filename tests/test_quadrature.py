import numpy as np
import pytest

from loopcs.quadrature import (MAX_SAMPLES, QuadratureConvergenceError, QuadratureSpec,
                               integrate_circle)
from loopcs.verify import check_quadrature_exactness

TWO_PI = 2.0 * np.pi


def test_constant_integrand():
    assert abs(integrate_circle(lambda x: np.ones_like(x)) - TWO_PI) < 1e-14


def test_sine_squared():
    assert abs(integrate_circle(lambda x: np.sin(x) ** 2) - np.pi) < 1e-12


def test_closed_form_high_frequency():
    # cos(8a)^2 + 1/4 integrates to pi + pi/2 = 3 pi / 2
    got = integrate_circle(lambda x: np.cos(8 * x) ** 2 + 0.25)
    assert abs(got - 1.5 * np.pi) < 1e-10


def test_trig_polynomial_exactness():
    result = check_quadrature_exactness(np.random.default_rng(20240))
    assert result.passed, result.detail


def test_scalar_only_integrand():
    # integrands are called once on the whole grid, never point by point:
    # one that cannot take an array raises from that call
    calls = []

    def f(x):
        calls.append(np.size(x))
        return float(np.cos(x)) ** 2

    with pytest.raises(TypeError):
        integrate_circle(f, QuadratureSpec(n=64))
    assert calls == [65]


def test_wrong_shape_integrand_rejected():
    with pytest.raises(ValueError, match="shape"):
        integrate_circle(lambda x: 1.0, QuadratureSpec(n=64))


def test_refinement_samples_only_new_midpoints():
    # T_N integrates cos(kx) to 2*pi when N divides k, else exactly to 0:
    # T_16, T_32 and T_64 all differ, T_64 and T_128 are exact, so the
    # ladder doubles twice and stops
    calls = []

    def f(x):
        calls.append(np.array(x, dtype=float))
        return 1.0 + np.cos(48.0 * x) + 0.5 * np.cos(96.0 * x)

    got = integrate_circle(f, QuadratureSpec(n=32, tol=1e-10))
    assert abs(got - TWO_PI) < 1e-12
    assert [c.size for c in calls] == [33, 32, 64]
    seen = np.concatenate(calls)
    assert np.unique(np.round(seen, 12)).size == seen.size  # no point twice
    assert np.allclose(calls[1], TWO_PI / 32 * (np.arange(32) + 0.5))
    assert np.allclose(calls[2], TWO_PI / 64 * (np.arange(64) + 0.5))


def test_non_convergence_carries_estimates():
    # wildly oscillating near 0; no hope at this tolerance within two doublings
    spec = QuadratureSpec(n=16, tol=1e-15, max_refinements=2)
    with pytest.raises(QuadratureConvergenceError) as err:
        integrate_circle(lambda x: np.sin(1.0 / (x + 0.01)), spec)
    assert isinstance(err.value.last, float)
    assert isinstance(err.value.previous, float)
    assert err.value.last != err.value.previous


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(n=8)
    with pytest.raises(ValueError):
        QuadratureSpec(n=17)
    assert QuadratureSpec(n=MAX_SAMPLES).n == 2 ** 20
    with pytest.raises(ValueError):
        QuadratureSpec(n=MAX_SAMPLES + 2)
    with pytest.raises(ValueError):
        QuadratureSpec(tol=0.0)
    with pytest.raises(ValueError, match="finite and positive"):
        QuadratureSpec(tol=float("inf"))
