import warnings
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

import loopcs.expressions
from bitwise_references import reference_bounds, reference_tokenize
from loopcs.expressions import (Add, Alpha, Div, EvalDomainError, Expr, Mul, Num, ParamA,
                                ParseError, Pow, Sub, _Compiler, _tokenize, compile_jets,
                                derivative, evaluate, parse_expression)
from loopcs.geometry import BergerMetric, builtin_family
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


def test_value_bounds_of_the_builtin_family():
    for a in (2, 8, 32, 4096, -3):
        m = builtin_family(a)
        lam, mu, nu = compile_jets((m.lam, m.mu, m.nu), a).bounds
        assert lam == (1.0, 1.0)
        # |(1/a) cos sin| <= 1/|a|, and nu in [1, 3], each widened by a few ulps
        assert 2.0 - 1.0 / abs(a) - 1e-14 < mu[0] <= 2.0 - 1.0 / abs(a)
        assert 2.0 + 1.0 / abs(a) <= mu[1] < 2.0 + 1.0 / abs(a) + 1e-14
        assert 1.0 - 1e-15 < nu[0] < 1.0 and 3.0 < nu[1] < 3.0 + 1e-14


def test_value_bounds_hold_the_real_value():
    # the float result of each op is rounded; the enclosure must hold the
    # exact real value as well, which lies on either side of it
    x, y = Num(0.1), Num(0.2)
    for e, exact in ((Add(x, y), Fraction(0.1) + Fraction(0.2)),
                     (Sub(x, y), Fraction(0.1) - Fraction(0.2)),
                     (Mul(x, y), Fraction(0.1) * Fraction(0.2)),
                     (Div(x, Num(3.0)), Fraction(0.1) / 3),
                     (Pow(x, 3), Fraction(0.1) ** 3),
                     (Pow(Num(-0.1), -3), Fraction(-0.1) ** -3)):
        lo, hi = compile_jets((e,)).bounds[0]
        assert lo < exact < hi, e


def test_value_bounds_that_prove_nothing():
    nan = float("nan")
    # a NaN constant in a product, whichever side (min and max of a list
    # holding NaN depend on its position)
    for e in (Mul(Num(1.0), Num(nan)), Mul(Num(nan), Num(1.0)),
              Mul(Alpha(), Num(nan)), parse_expression("2+sin(alpha)") * Num(nan)):
        assert compile_jets((e,)).bounds[0] is None
    assert compile_jets((parse_expression("a^400"),), 8).bounds[0] is None     # overflows
    assert compile_jets((parse_expression("a^400-a^400"),), 8).bounds[0] is None
    assert compile_jets((parse_expression("2+sin(alpha+a^400)"),), 8).bounds[0] is None
    assert compile_jets((parse_expression("a^400"),), 2).bounds[0] is not None
    for src, a in (("1/(a-2)", 2), ("1/(1-cos(alpha))^2", 1), ("1/(0.5+cos(alpha))", 1),
                   ("(sin(alpha))^-2", 1), ("1/(alpha-1)", 1)):
        assert compile_jets((parse_expression(src),), a).bounds[0] is None, src
    # enclosures that reach 0 or below: not a proof of positivity
    for src in ("0.5+cos(alpha)", "1-2*sin(512*alpha)^2", "cos(alpha)^2",
                "1-2*cos(alpha-0.001)^2000000000", "1.5+sin(alpha)-0.8*sin(alpha)"):
        lo, hi = compile_jets((parse_expression(src),)).bounds[0]
        assert lo <= 0.0 < hi, src


def test_value_bounds_match_the_recursive_walk():
    # the compiler's enclosures against a walk of their own over the same
    # nodes, signs of zeros included, on the cases above
    nan = float("nan")
    cases = [(e, 1) for e in (Mul(Num(1.0), Num(nan)), Mul(Num(nan), Num(1.0)),
                              Mul(Alpha(), Num(nan)),
                              parse_expression("2+sin(alpha)") * Num(nan),
                              Add(Num(0.1), Num(0.2)), Pow(Num(-0.1), -3),
                              Mul(Num(-0.0), Alpha()), Num(-0.0))]
    cases += [(parse_expression(src), a) for src, a in (
        ("a^400", 8), ("a^400-a^400", 8), ("2+sin(alpha+a^400)", 8), ("a^400", 2),
        ("1/(a-2)", 2), ("1/(1-cos(alpha))^2", 1), ("1/(0.5+cos(alpha))", 1),
        ("(sin(alpha))^-2", 1), ("1/(alpha-1)", 1), ("0.5+cos(alpha)", 1),
        ("1-2*sin(512*alpha)^2", 1), ("cos(alpha)^2", 1),
        ("1-2*cos(alpha-0.001)^2000000000", 1), ("1.5+sin(alpha)-0.8*sin(alpha)", 1),
        ("2+(1/a)*cos(a*alpha)*sin(a*alpha)", -3), ("a", 10 ** 400), ("2", 10 ** 400))]
    for e, a in cases:
        if abs(a) < 10 ** 400:
            got = compile_jets((e,), a).bounds[0]
            assert repr(got) == repr(reference_bounds(e, a)), (str(e), a)
            continue
        # an a too large for a float encloses nothing, and the compiler
        # rejects it whether or not a shows
        assert reference_bounds(e, a) is None
        with pytest.raises(ValueError, match="the parameter a is too large for a float"):
            compile_jets((e,), a)


def _nodes(e):
    yield e
    for f in fields(e):
        child = getattr(e, f.name)
        if isinstance(child, Expr):
            yield from _nodes(child)


def test_metric_constructor_walks_each_node_once(monkeypatch):
    # one walk yields the jet ops, the frequencies and the enclosures
    rational = tuple(parse_expression(src) for src in (
        "(1.5+0.3*sin(alpha))/(2+cos(2*alpha))", "2+sin(3*alpha)^2", "1/(1.7-0.4*cos(alpha))"))
    visits = Counter()
    walk = _Compiler.walk

    def counting(self, e):
        visits[id(e)] += 1
        return walk(self, e)

    monkeypatch.setattr(_Compiler, "walk", counting)
    # the family's first member compiles its template, and the others walk
    # nothing
    loopcs.expressions.compile_template.cache_clear()
    for build in (lambda: builtin_family(8), lambda: BergerMetric(*rational)):
        visits.clear()
        m = build()
        assert m.scale_bounds is not None and m.certificate is not None
        assert visits == Counter(id(n) for e in (m.lam, m.mu, m.nu) for n in _nodes(e))
    visits.clear()
    builtin_family(-3)
    assert not visits


CONSTANT_SOURCES = ["2+sin(1)*cos(alpha)", "sin(1+2)", "cos(sin(0.5))*alpha",
                    "(1/3)^2*a + sin(2)/cos(1)", "-sin(-(1))", "2^-1*alpha + cos(0)",
                    "1/(2+sin(1))+alpha", "sin(alpha)^2 + cos(2)^2*(alpha-sin(3))",
                    "sin(cos(a*alpha)*sin(1))", "(1.5+0.3*sin(alpha))/(2+cos(2*alpha))",
                    "2+(1/a)*cos(a*alpha)*sin(a*alpha)"]


def test_constant_subtrees_are_numbers():
    # the operators fold Num children and the parser folds sin/cos of a
    # Num, so no parent needs to walk a constant subtree to fold it
    rng = np.random.default_rng(23)
    sources = CONSTANT_SOURCES + [str(random_scale_expression(rng)) for _ in range(20)]
    for src in sources:
        for node in _nodes(parse_expression(src)):
            if not any(isinstance(n, (Alpha, ParamA)) for n in _nodes(node)):
                assert type(node) is Num, (src, node)
    assert (parse_expression("2+sin(1)*cos(alpha)")
            == parse_expression(f"2+{float(np.sin(1.0))!r}*cos(alpha)"))
    # a literal past the float range is inf, whose sin is NaN: folded as
    # the compiler folds it, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = parse_expression("sin(1" + "0" * 400 + ")*alpha")
    assert type(e) is Mul and type(e.left) is Num and np.isnan(e.left.value)


TOKEN_SOURCES = ["", "   ", "1", "  2*alpha  ", "\t\nsin( a*alpha )\r\n",
                 "\u00a02 +\u2003cos(alpha)\u3000", "\u2028(1.5)/.5^-2\u2029\x1c",
                 "2 + $", "  \u00a0$", "2\u2003\u00a0é", "1 2", "sin(alpha", "3.", "1e5"]


def test_tokenize_matches_the_reference():
    big = " ".join(f"{n}.5*sin({n}*alpha) +" for n in range(2000)) + "\t1 \u3000"
    for src in [*TOKEN_SOURCES, big]:
        try:
            want = reference_tokenize(src)
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                _tokenize(src)
            assert (got.value.position, str(got.value)) == (err.position, str(err))
        else:
            assert _tokenize(src) == want


def test_whitespace_positions():
    # leading, trailing and Unicode whitespace; the end token sits at len(src)
    assert _tokenize("\u00a0 2\u2003") == [("number", "2", 2), ("end", "", 4)]
    assert _tokenize(" \t") == [("end", "", 2)]
    assert parse_expression("\u3000sin( alpha )\n") == parse_expression("sin(alpha)")
    for src, at in (("2 + $", 4), ("\u2003\u00a0$", 2), ("alpha\u3000*\u2003#", 8)):
        with pytest.raises(ParseError) as err:
            parse_expression(src)
        assert err.value.position == at and src[at] in str(err.value)
