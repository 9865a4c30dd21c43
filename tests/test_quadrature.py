import numpy as np
import pytest

from loopcs.chern_simons import cs_class
from loopcs.geometry import builtin_family
from loopcs.quadrature import (MAX_SAMPLES, QuadratureConvergenceError, QuadratureSpec,
                               circle_grid, integrate_circle)
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


def test_integrand_writing_its_argument_cannot_corrupt_the_grid():
    # the first-level grid is built once per n and shared: each integrand,
    # circle_grid caller and report gets a copy of its own
    spec = QuadratureSpec(n=64)
    expected = np.linspace(0.0, TWO_PI, 65)

    def spoiler(x):
        y = np.sin(x) ** 2
        x[:] = 7.0
        return y

    for _ in range(2):
        assert integrate_circle(spoiler, spec) == pytest.approx(np.pi, abs=1e-12)
    seen = []
    integrate_circle(lambda x: seen.append(x.copy()) or np.ones_like(x), spec)
    assert seen[0].tobytes() == expected.tobytes()
    grid = circle_grid(64)
    assert grid.flags.writeable and grid.tobytes() == expected.tobytes()
    grid[:] = -1.0
    assert circle_grid(64).tobytes() == expected.tobytes()
    report = cs_class(builtin_family(2))
    assert report.alphas.flags.writeable
    assert report.alphas.tobytes() == np.linspace(0.0, TWO_PI, report.quadrature_n + 1).tobytes()
