import numpy as np
import pytest

from loopcs.expressions import (EvalDomainError, ParseError, derivative,
                                evaluate, parse_expression)
from loopcs.geometry import builtin_family
from loopcs.verify import random_scale_expression


def test_parse_family_strings_match_builtin():
    lam = parse_expression("1")
    mu = parse_expression("2+(1/2)*cos(2*alpha)*sin(2*alpha)")
    nu = parse_expression("2-cos(2*alpha)")
    family = builtin_family(2)
    grid = np.linspace(0.0, 2 * np.pi, 57)
    for parsed, built in ((lam, family.lam), (mu, family.mu), (nu, family.nu)):
        p = evaluate(parsed, grid, 2)
        b = evaluate(built, grid, 2)
        assert np.allclose(p.v, b.v, atol=1e-15)
        assert np.allclose(p.d1, b.d1, atol=1e-15)
        assert np.allclose(p.d2, b.d2, atol=1e-14)


def test_parse_round_metric():
    e = parse_expression("1")
    assert evaluate(e, 1.234).v == 1.0


def test_unbalanced_parenthesis_position():
    with pytest.raises(ParseError) as err:
        parse_expression("sin(alpha")
    assert err.value.position == 9
    assert "')'" in str(err.value)


def test_unexpected_character_position():
    with pytest.raises(ParseError) as err:
        parse_expression("2 + $")
    assert err.value.position == 4


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_expression("1 2")


def test_precedence_and_power():
    assert evaluate(parse_expression("1+2*3^2"), 0.0).v == 19.0
    assert evaluate(parse_expression("(1+2)*2"), 0.0).v == 6.0
    assert abs(evaluate(parse_expression("cos(alpha)^2"), 0.7).v
               - np.cos(0.7) ** 2) < 1e-15


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse_expression("2^1.5")


def test_parameter_a():
    e = parse_expression("2 - cos(a*alpha)")
    for a in (1, 3, 8):
        assert abs(evaluate(e, 0.5, a).v - (2 - np.cos(a * 0.5))) < 1e-15


def test_symbolic_derivative_matches_jet():
    # two independent routes to d/dalpha: the differentiated tree's value
    # against the original tree's jet component
    rng = np.random.default_rng(11)
    for _ in range(20):
        e = random_scale_expression(rng)
        de = derivative(e)
        for x in rng.uniform(0.0, 2 * np.pi, 10):
            assert abs(evaluate(de, float(x)).v - evaluate(e, float(x)).d1) < 1e-12
            # second route for the second derivative as well
            assert abs(evaluate(de, float(x)).d1 - evaluate(e, float(x)).d2) < 1e-12


def test_periodicity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        e = random_scale_expression(rng)
        for a in (1, 2, 5):
            x = float(rng.uniform(0.0, 2 * np.pi))
            left = evaluate(e, x, a).v
            right = evaluate(e, x + 2 * np.pi, a).v
            assert abs(left - right) < 1e-12 * max(1.0, abs(left))


def test_division_by_zero_at_point():
    e = parse_expression("1/(1-cos(alpha))")
    with pytest.raises(EvalDomainError) as err:
        evaluate(e, 0.0)
    assert "cos(alpha)" in str(err.value)  # names the offending node
    assert evaluate(e, np.pi).v == 0.5


def test_constant_zero_denominator_rejected_at_construction():
    with pytest.raises(ValueError):
        parse_expression("1/(2-2)")


def test_str_reparses():
    rng = np.random.default_rng(17)
    for _ in range(10):
        e = random_scale_expression(rng)
        back = parse_expression(str(e))
        x = float(rng.uniform(0.0, 2 * np.pi))
        assert abs(evaluate(back, x).v - evaluate(e, x).v) < 1e-14


def test_pole_in_denominator_and_numerator_reports_the_denominator():
    # both poles sit on the grid: the denominator is evaluated and checked
    # before any numerator op runs
    den = "division by zero in '(1.0 - cos(alpha))'"
    for num in ("1/alpha", "(alpha-1)^-2"):
        e = parse_expression(f"({num}) / (1-cos(alpha))")
        for alpha in (np.linspace(0.0, 2.0, 9), 0.0):
            with pytest.raises(EvalDomainError) as err:
                evaluate(e, alpha)
            assert str(err.value) == den
    # with the denominator's pole off the grid the numerator's shows
    with pytest.raises(EvalDomainError) as err:
        evaluate(e, np.array([1.0, 2.0]))
    assert str(err.value) == "negative power of zero in '((alpha - 1.0))^-2'"
