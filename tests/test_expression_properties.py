"""Property tests for the expression grammar on random trees.

The printer and the parser round-trip every tree, and the symbolic
derivative agrees with jet propagation: evaluate(derivative(e)).v is
evaluate(e).d1 and its d1 is evaluate(e).d2.  The class path takes the
log-rate derivatives from the jets' d2, the oracle tables from derivative
trees, so this agreement is what lets the two routes check each other.

evaluate folds constants, keeps linear arguments symbolic and shares
sin/cos arrays.  Two oracles that do none of that check it: a plain
recursive walker that makes every node a Jet2 (oracle_evaluate below),
and central finite differences of evaluate's own values and first
derivatives.  The compiled enclosure (JetProgram.bounds) must hold every
value evaluate gives on a fine grid, and equal the enclosure of a
recursive walk of its own (tests/bitwise_references.py).  Skipped when hypothesis, which loopcs does not depend on,
is absent.
"""
import operator
from dataclasses import fields

import numpy as np
import pytest

from loopcs.expressions import (Add, Alpha, Cos, Div, EvalDomainError, Expr, Mul,
                                Num, ParamA, Pow, Sin, Sub, _trig, compile_jets, derivative,
                                evaluate, parse_expression)
from bitwise_references import reference_bounds
from loopcs.jets import Jet2
from loopcs.verify import random_scale_expression

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                               database=None)
GRID = np.linspace(0.0, 2.0 * np.pi, 33)
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}


def constants(e: Expr):
    if isinstance(e, Num):
        yield e.value
    for f in fields(e):
        child = getattr(e, f.name)
        if isinstance(child, Expr):
            yield from constants(child)


@st.composite
def trees(draw, numbers, depth=4, safe=False):
    """Trees built like the parser builds them, through the folding
    operators and the parser's sin/cos fold.  safe=True keeps every denominator at least 1 in absolute
    value and every power positive, so values stay moderate."""
    leaf = st.one_of(numbers.map(Num), st.just(Alpha()), st.just(ParamA()))
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(leaf)
    sub = trees(numbers, depth - 1, safe)
    kind = draw(st.sampled_from(["+", "-", "*", "/", "^", "sin", "cos", "neg"]))
    if kind in ("sin", "cos"):
        return _trig(Sin if kind == "sin" else Cos, draw(sub))
    if kind == "neg":
        return -draw(sub)
    if kind == "^":
        base = draw(sub)
        k = draw(st.integers(1, 3) if safe else st.integers(-3, 4))
        try:
            return base ** k
        except (ValueError, OverflowError):
            hypothesis.reject()
    left, right = draw(sub), draw(sub)
    if kind == "/" and safe:
        right = Num(draw(st.sampled_from([1.5, 2.0, 3.0]))) + _trig(Sin, right) ** 2
    try:
        return BINARY[kind](left, right)
    except (ValueError, OverflowError):
        hypothesis.reject()


# zero, and magnitudes from 1e-6 (which repr would print as 1e-06) to 1e6
WIDE = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))
MODERATE = st.sampled_from([-2.0, -1.5, -0.5, 0.25, 1.0, 2.0, 0.00001])


@SETTINGS
@hypothesis.given(trees(WIDE))
@hypothesis.example(parse_expression("0.00001*alpha+2"))
def test_print_parse_round_trip(e):
    hypothesis.assume(all(np.isfinite(x) for x in constants(e)))
    assert parse_expression(str(e)) == e


@SETTINGS
@hypothesis.given(trees(MODERATE, safe=True), st.integers(1, 8))
def test_derivative_tree_matches_jets(e, a):
    jet = evaluate(e, GRID, a)
    dotted = evaluate(derivative(e), GRID, a)
    for got, want in ((dotted.v, jet.d1), (dotted.d1, jet.d2)):
        got, want = np.broadcast_arrays(got, want, GRID)[:2]
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-11 * scale


def oracle_evaluate(e: Expr, alpha: np.ndarray, a: int) -> Jet2:
    """Jets by the plain recursive walk: every node, constants and alpha
    included, becomes an array Jet2, and every sin/cos computes its own
    np.sin and np.cos."""
    if isinstance(e, (Num, ParamA)):
        c = e.value if isinstance(e, Num) else float(a)
        return Jet2(np.full_like(alpha, c), np.zeros_like(alpha), np.zeros_like(alpha))
    if isinstance(e, Alpha):
        return Jet2(alpha, np.ones_like(alpha), np.zeros_like(alpha))
    if isinstance(e, Div):
        den = oracle_evaluate(e.den, alpha, a)
        if np.any(den.v == 0.0):
            raise EvalDomainError(f"division by zero in '{e.den}'")
        return oracle_evaluate(e.num, alpha, a) / den
    if isinstance(e, Pow):
        base = oracle_evaluate(e.base, alpha, a)
        if e.exponent < 0 and np.any(base.v == 0.0):
            raise EvalDomainError(f"negative power of zero in '{e}'")
        return base ** e.exponent
    if isinstance(e, (Sin, Cos)):
        arg = oracle_evaluate(e.arg, alpha, a)
        return arg.sin() if isinstance(e, Sin) else arg.cos()
    op = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}[type(e)]
    return op(oracle_evaluate(e.left, alpha, a), oracle_evaluate(e.right, alpha, a))


def components(jet: Jet2, alpha: np.ndarray):
    return [np.broadcast_to(x, alpha.shape) for x in (jet.v, jet.d1, jet.d2)]


@SETTINGS
@hypothesis.given(trees(MODERATE, safe=True), trees(MODERATE, safe=True),
                  st.integers(1, 8))
def test_evaluate_matches_plain_jet_walker(e, other, a):
    got, got_other = evaluate((e, other), GRID, a)
    for jet, tree in ((got, e), (got_other, other)):
        want = components(oracle_evaluate(tree, GRID, a), GRID)
        for x, y in zip(components(jet, GRID), want):
            assert np.max(np.abs(x - y)) <= 1e-13 * max(1.0, float(np.max(np.abs(y))))
    # evaluated together, the trees share sin/cos arrays and nothing else
    for x, y in zip(components(got, GRID), components(evaluate(e, GRID, a), GRID)):
        assert np.array_equal(x, y)


@SETTINGS
@hypothesis.given(trees(MODERATE), st.integers(-3, 3))
def test_evaluate_rejects_poles_like_the_plain_walker(e, a):
    # unrestricted denominators and negative powers: the same pole, or none
    with np.errstate(all="ignore"):
        try:
            oracle_evaluate(e, GRID, a)
        except EvalDomainError as want:
            with pytest.raises(EvalDomainError) as got:
                evaluate(e, GRID, a)
            assert str(got.value) == str(want)
        else:
            evaluate(e, GRID, a)


@SETTINGS
@hypothesis.given(trees(MODERATE, safe=True), st.integers(1, 4))
def test_jets_match_central_differences(e, a):
    # d1 against central differences of v, d2 against those of d1, at steps
    # h and h/2 combined by Richardson extrapolation, (4 D(h/2) - D(h)) / 3:
    # its step error is O(h^4), which an argument like alpha^3 (rate ~100
    # at 2*pi) needs; rounding adds about eps |f| / h
    h = 1e-5

    def differences(step):
        ahead = components(evaluate(e, GRID + step, a), GRID)
        behind = components(evaluate(e, GRID - step, a), GRID)
        return [(x - y) / (2.0 * step) for x, y in zip(ahead[:2], behind[:2])]

    jet = components(evaluate(e, GRID, a), GRID)
    for k, coarse, fine in zip((1, 2), differences(h), differences(h / 2.0)):
        fd = (4.0 * fine - coarse) / 3.0
        scale = max(1.0, float(np.max(np.abs(jet[k]))), float(np.max(np.abs(jet[k - 1]))))
        assert np.max(np.abs(jet[k] - fd)) <= 1e-6 * scale


BOUND_GRID = np.linspace(0.0, 2.0 * np.pi, 4097)
# some samples off the grid's points, the bound's endpoint 2*pi among them
BOUND_ALPHAS = np.concatenate([BOUND_GRID, [np.nextafter(2.0 * np.pi, 0.0), 1e-300]])


def assert_bound_holds(e: Expr, a: int):
    bound = compile_jets((e,), a).bounds[0]
    # the compile walk's enclosure is the recursive walk's, bit for bit
    assert repr(bound) == repr(reference_bounds(e, a))
    if bound is None:
        return
    lo, hi = bound
    assert np.isfinite(lo) and np.isfinite(hi) and lo <= hi
    # a bound rules out poles (EvalDomainError) and non-finite values; the
    # derivatives may still overflow or underflow
    with np.errstate(all="ignore"):
        values = np.broadcast_to(evaluate(e, BOUND_ALPHAS, a).v, BOUND_ALPHAS.shape)
    assert np.all((lo <= values) & (values <= hi)), (str(e), a, bound)


@SETTINGS
@hypothesis.given(trees(MODERATE), st.sampled_from([-3, 1, 2, 8]))
@hypothesis.example(parse_expression("1/(2+sin(alpha))^2 - cos(3*alpha)^-3*0"), 1)
@hypothesis.example(parse_expression("(alpha-3)^-2 + sin(cos(a*alpha))^4"), 2)
@hypothesis.example(parse_expression("(cos(alpha)-1.5)^-3*a"), -3)
def test_value_bounds_hold_every_value(e, a):
    # unrestricted trees: denominators, negative and even powers, nested
    # trig, alpha outside any trig function
    assert_bound_holds(e, a)


@SETTINGS
@hypothesis.given(st.integers(0, 2**32 - 1), st.sampled_from([-3, 1, 2, 8]))
def test_value_bounds_hold_on_random_scales(seed, a):
    e = random_scale_expression(np.random.default_rng(seed))
    assert_bound_holds(e, a)
    assert_bound_holds(e * Cos(ParamA() * Alpha()) / (Num(1.25) + Sin(Alpha() * 3.0)), a)
