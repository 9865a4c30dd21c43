import itertools

import numpy as np
import pytest

from bitwise_references import assert_same_bits, assert_untouched, reference_mul
from loopcs.expressions import Alpha, Cos, Num, Sin, evaluate, parse_expression
from loopcs.jets import Jet2
from loopcs.verify import check_jet_finite_differences


def central_differences(f, x, h1=1e-5, h2=1e-4):
    d1 = (f(x + h1) - f(x - h1)) / (2.0 * h1)
    d2 = (f(x + h2) - 2.0 * f(x) + f(x - h2)) / h2 ** 2
    return d1, d2


def test_constant_lift():
    j = Jet2.constant(2.0)
    assert j.v == 2.0 and j.d1 == 0.0 and j.d2 == 0.0


def test_sine_jet_at_zero():
    j = evaluate(Sin(Alpha()), 0.0)
    assert j.v == 0.0
    assert j.d1 == 1.0
    assert j.d2 == 0.0


def test_family_jet_matches_finite_differences():
    # mu of the a=2 family at alpha=0.3, central differences with h=1e-5
    e = parse_expression("2+(1/2)*cos(2*alpha)*sin(2*alpha)")
    f = lambda t: evaluate(e, t, 2).v
    jet = evaluate(e, 0.3, 2)
    h = 1e-5
    fd1 = (f(0.3 + h) - f(0.3 - h)) / (2 * h)
    fd2 = (f(0.3 + h) - 2 * f(0.3) + f(0.3 - h)) / h ** 2
    assert abs(jet.d1 - fd1) / max(1.0, abs(fd1)) < 1e-6
    assert abs(jet.d2 - fd2) / max(1.0, abs(fd2)) < 1e-6


def test_arithmetic_against_finite_differences():
    # every node kind, random coefficients in [-3, 3], 100 random points
    rng = np.random.default_rng(7)
    c1, c2, c3 = rng.uniform(-3.0, 3.0, 3)
    exprs = [
        Num(c1) + Sin(Alpha()) * Num(c2),
        Num(c1) - Cos(Alpha()) * Num(c3),
        Sin(Num(2.0) * Alpha()) * Cos(Num(3.0) * Alpha()),
        (Num(c1) + Sin(Alpha())) / (Num(4.0) + Cos(Alpha())),
        Cos(Alpha()) ** 3,
        (Num(4.0) + Sin(Alpha())) ** -1,
        Sin(Cos(Alpha()) * Num(c2)),
    ]
    for e in exprs:
        f = lambda t: evaluate(e, t).v
        for x in rng.uniform(0.0, 2 * np.pi, 100):
            jet = evaluate(e, float(x))
            fd1, fd2 = central_differences(f, float(x))
            assert abs(jet.d1 - fd1) / max(1.0, abs(fd1)) < 1e-6
            assert abs(jet.d2 - fd2) / max(1.0, abs(fd2)) < 1e-6


def test_power_special_cases():
    j = Jet2(2.0, 3.0, 4.0)
    p0 = j ** 0
    assert (p0.v, p0.d1, p0.d2) == (1.0, 0.0, 0.0)
    assert (j ** 1) is j
    p2 = j ** 2
    assert p2.v == 4.0 and p2.d1 == 12.0  # 2 u u' = 12
    assert p2.d2 == 2 * 3.0 ** 2 + 2 * 2.0 * 4.0  # 2 u'^2 + 2 u u''
    pm1 = j ** -1
    assert pm1.v == 0.5 and abs(pm1.d1 - (-3.0 / 4.0)) < 1e-15
    with pytest.raises(TypeError):
        j ** 0.5


def test_array_jets_broadcast():
    grid = np.linspace(0.0, 2 * np.pi, 33)
    jet = evaluate(Sin(Alpha()) + Num(1.0), grid)
    assert jet.v.shape == grid.shape
    assert np.allclose(jet.v, np.sin(grid) + 1.0)
    assert np.allclose(jet.d1, np.cos(grid))
    assert np.allclose(jet.d2, -np.sin(grid))


def test_random_expression_sweep():
    result = check_jet_finite_differences(np.random.default_rng(20240))
    assert result.passed, result.detail


def jet_pairs():
    """Pairs of jets whose components are Python floats, numpy scalars, 0-d,
    1-D, 2-D or complex arrays, and a pair of different shapes and dtypes:
    values with a positive real part, derivatives of either sign."""
    rng = np.random.default_rng(3)
    v, d = rng.uniform(0.5, 2.0, (2, 256)), rng.uniform(-2.0, 2.0, (4, 256))
    rows = [(v[0], d[0], d[1]), (v[1], d[2], d[3])]
    imag = rng.uniform(-1.0, 1.0, 256)
    kinds = [lambda c: float(c[0]), lambda c: np.float64(c[0]), lambda c: np.array(c[0]),
             lambda c: c.copy(), lambda c: c.reshape(16, 16).copy(),
             lambda c: c + 1j * imag]
    pairs = [tuple(Jet2(*map(make, row)) for row in rows) for make in kinds]
    # a real jet on 16 points and a complex one on a (16, 1) column, both ways
    x, y = pairs[3][0], pairs[5][1]
    row = Jet2(x.v[:16], x.d1[:16], x.d2[:16])
    column = Jet2(y.v[:16, None], y.d1[:16, None], y.d2[:16, None])
    return pairs + [(row, column), (column, row)]


# every component of each operand from {0, -0, 1, -1}, against every other
_SIGNED = np.array(list(itertools.product((0.0, -0.0, 1.0, -1.0), repeat=3)))
_PICK = np.array(list(itertools.product(range(len(_SIGNED)), repeat=2)))
SIGNED_ZEROS = tuple(Jet2(*_SIGNED[_PICK[:, n]].T) for n in range(2))

# the product, which writes into its temporaries in place, next to the
# formula it was written as, one fresh array per temporary
REFERENCES = {
    "x * y": (lambda x, y: x * y, reference_mul),
    "2.5 * x": (lambda x, y: 2.5 * x, lambda x, y: reference_mul(x, 2.5)),
    "x * 2.5": (lambda x, y: x * 2.5, lambda x, y: reference_mul(x, 2.5)),
}


@pytest.mark.parametrize("name", REFERENCES)
def test_jet_ops_are_their_reference_formulas_bitwise(name):
    op, reference = REFERENCES[name]
    pairs = jet_pairs() + [SIGNED_ZEROS]
    with np.errstate(all="ignore"):
        for x, y in pairs:
            assert_same_bits(op(x, y), reference(x, y))


def test_jet_ops_leave_their_inputs_untouched():
    # an op writes in place only into its own temporaries; j ** 1 is j
    # itself by design (test_power_special_cases)
    ops = [lambda x, y: x + y, lambda x, y: x - y, lambda x, y: -x,
           lambda x, y: 1.5 + x, lambda x, y: 1.5 - x,
           lambda x, y: x * x, lambda x, y: x / x, lambda x, y: x ** 0,
           lambda x, y: x / y, lambda x, y: x / 2.5, lambda x, y: 2.5 / x,
           *(lambda x, y, k=k: x ** k for k in (2, 3, -1, -2)),
           lambda x, y: x.sin(), lambda x, y: x.cos(),
           *(op for op, _ in REFERENCES.values())]
    for x, y in jet_pairs():
        for pair in ((x, y), (Jet2(x.v, x.v, x.v), y)):
            for op in ops:
                assert_untouched(op, *pair)


def test_product_of_a_linear_jet_needs_one_grid_and_dtype():
    # the contract of the in-place product (jets.py docstring): a jet with
    # a Python number beside an array meets jets of its own grid and dtype.
    # Outside it, another grid raises where the formula broadcast, and a
    # float32 jet narrows the float64 derivatives the formula widened
    x = np.linspace(0.5, 2.0, 16)
    linear = Jet2(x, 2.0, 0.0)
    column = Jet2(x[:, None], x[:, None], x[:, None])
    assert reference_mul(linear, column).d1.shape == (16, 16)
    with pytest.raises(ValueError):
        linear * column
    narrow = Jet2(*(x.astype(np.float32),) * 3)
    want, got = reference_mul(linear, narrow), linear * narrow
    assert want.d1.dtype == want.d2.dtype == np.float64
    assert got.v.dtype == np.float64 and got.d1.dtype == got.d2.dtype == np.float32
    assert np.allclose(got.d1, want.d1, rtol=1e-6) and np.allclose(got.d2, want.d2, rtol=1e-6)


# an ndarray on the left of a jet: Jet2 opts out of numpy's ufunc dispatch,
# so the jet's reflected method runs and the result is one jet, with the
# bits of the same operation on the array as a constant jet
LEFT = np.array([2.0, -3.0, 0.5])
RIGHT = Jet2(np.array([1.5, 2.5, -0.75]), np.array([0.25, -1.0, 3.0]),
             np.array([-2.0, 0.5, 1.25]))


def test_array_plus_jet_is_a_jet():
    assert_same_bits(LEFT + RIGHT, Jet2.constant(LEFT) + RIGHT)


def test_array_minus_jet_is_a_jet():
    assert_same_bits(LEFT - RIGHT, Jet2.constant(LEFT) - RIGHT)


def test_array_times_jet_is_a_jet():
    assert_same_bits(LEFT * RIGHT, Jet2.constant(LEFT) * RIGHT)


def test_array_over_jet_is_a_jet():
    assert_same_bits(LEFT / RIGHT, Jet2.constant(LEFT) / RIGHT)
