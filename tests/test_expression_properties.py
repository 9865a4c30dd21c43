"""Property tests for the expression grammar on random trees.

The printer and the parser round-trip every tree, and the symbolic
derivative agrees with jet propagation: evaluate(derivative(e)).v is
evaluate(e).d1 and its d1 is evaluate(e).d2.  The class path takes the
log-rate derivatives from the jets' d2, the oracle tables from derivative
trees, so this agreement is what lets the two routes check each other.
Skipped when hypothesis, which loopcs does not depend on, is absent.
"""
import operator
from dataclasses import fields

import numpy as np
import pytest

from loopcs.expressions import (Alpha, Cos, Expr, Num, ParamA, Sin, derivative,
                                evaluate, parse_expression)

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
    operators.  safe=True keeps every denominator at least 1 in absolute
    value and every power positive, so values stay moderate."""
    leaf = st.one_of(numbers.map(Num), st.just(Alpha()), st.just(ParamA()))
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(leaf)
    sub = trees(numbers, depth - 1, safe)
    kind = draw(st.sampled_from(["+", "-", "*", "/", "^", "sin", "cos", "neg"]))
    if kind in ("sin", "cos"):
        return (Sin if kind == "sin" else Cos)(draw(sub))
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
        right = Num(draw(st.sampled_from([1.5, 2.0, 3.0]))) + Sin(right) ** 2
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
