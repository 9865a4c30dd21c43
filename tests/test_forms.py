import numpy as np
import pytest

from loopcs.forms import MatrixForm, ScalarForm, evaluate3, trace, wedge
from loopcs.verify import check_trace_cyclicity


def elementary(i, j):
    m = np.zeros((4, 4))
    m[i - 1, j - 1] = 1.0
    return m


IDENTITY = np.eye(4)


def test_basis_antisymmetry():
    a = MatrixForm(1, {(1,): IDENTITY})
    b = MatrixForm(1, {(2,): IDENTITY})
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert np.allclose(ab.coeff((1, 2)), IDENTITY)
    assert np.allclose(ba.coeff((1, 2)), -IDENTITY)


def test_wedge_multiplies_matrices():
    a = MatrixForm(1, {(1,): elementary(1, 2)})
    b = MatrixForm(1, {(2,): elementary(2, 3)})
    out = wedge(a, b)
    assert np.allclose(out.coeff((1, 2)), elementary(1, 3))


def test_repeated_index_annihilates():
    a = MatrixForm(1, {(1,): np.arange(16.0).reshape(4, 4)})
    assert wedge(a, a).max_abs() == 0.0


def test_degree_overflow_rejected():
    two = MatrixForm(2, {(1, 2): IDENTITY})
    three = MatrixForm(3, {(1, 2, 3): IDENTITY})
    with pytest.raises(ValueError):
        wedge(two, three)


def test_index_validation():
    with pytest.raises(ValueError):
        MatrixForm(2, {(2, 1): IDENTITY})
    with pytest.raises(ValueError):
        MatrixForm(1, {(5,): IDENTITY})
    with pytest.raises(ValueError):
        MatrixForm(2, {(1,): IDENTITY})
    for coeff in (np.ones(4), np.ones((4, 3)), np.ones((2, 4, 3)), 1.0):
        with pytest.raises(ValueError):
            MatrixForm(1, {(1,): coeff})
    # a scalar form's coefficients are all batch axes
    assert ScalarForm(1, {(2,): np.ones((2, 4))}).batch_shape == (2, 4)
    assert ScalarForm(1, {(2,): np.ones((2, 4))}).coeff((3,)).shape == (2, 4)
    assert MatrixForm(1, {(2,): np.ones((3, 4, 4))}).coeff((3,)).shape == (3, 4, 4)


def test_trace_of_identity_coefficient():
    a = MatrixForm(2, {(1, 2): IDENTITY})
    t = trace(a)
    assert t.coeff((1, 2)) == 4.0


def test_trace_of_off_diagonal_vanishes():
    a = MatrixForm(1, {(1,): elementary(1, 2)})
    assert trace(a).max_abs() == 0.0


def test_graded_cyclicity_brute():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = MatrixForm(1, {(p,): rng.normal(size=(4, 4)) for p in (1, 2, 3, 4)})
        b = MatrixForm(1, {(p,): rng.normal(size=(4, 4)) for p in (1, 2, 3, 4)})
        resid = trace(wedge(a, b)) + (-1.0) ** (1 * 1 + 1) * trace(wedge(b, a))
        assert resid.max_abs() < 1e-13
    assert check_trace_cyclicity(np.random.default_rng(20240)).passed


def random_one_form(rng):
    return MatrixForm(1, {(p,): rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                          for p in (1, 2, 3, 4)})


def test_associativity_and_bilinearity():
    rng = np.random.default_rng(20240)
    for _ in range(100):
        a, b, c = (random_one_form(rng) for _ in range(3))
        assert (a.wedge(b).wedge(c) - a.wedge(b.wedge(c))).max_abs() < 1e-12
    rng = np.random.default_rng(20240)
    for _ in range(50):
        a, b, c = (random_one_form(rng) for _ in range(3))
        z = complex(rng.normal(), rng.normal())
        assert ((z * a + b).wedge(c) - (z * a.wedge(c) + b.wedge(c))).max_abs() < 1e-11
        assert (a.wedge(z * b + c) - (z * a.wedge(b) + a.wedge(c))).max_abs() < 1e-11


def test_evaluate3_dual_pairing():
    one = ScalarForm(3, {(1, 2, 3): np.asarray(1.0)})
    assert evaluate3(one) == 1.0


def test_evaluate3_kills_psi4():
    f = ScalarForm(3, {(1, 2, 4): np.asarray(1.0)})
    assert evaluate3(f) == 0.0


def test_evaluate3_linearity():
    f = ScalarForm(3, {(1, 2, 3): np.asarray(2.0), (2, 3, 4): np.asarray(-5.0)})
    assert evaluate3(f) == 2.0


def test_evaluate3_needs_degree_three():
    with pytest.raises(ValueError):
        evaluate3(ScalarForm(2, {(1, 2): np.asarray(1.0)}))


def test_degree4_single_coefficient():
    a = MatrixForm(2, {(1, 2): IDENTITY})
    b = MatrixForm(2, {(3, 4): 2.0 * IDENTITY})
    out = wedge(a, b)
    assert out.degree == 4
    assert out.indices() == [(1, 2, 3, 4)]
    assert np.allclose(out.coeff((1, 2, 3, 4)), 2.0 * IDENTITY)


def test_batched_coefficients():
    batch = np.stack([IDENTITY, 2.0 * IDENTITY])
    a = MatrixForm(1, {(1,): batch})
    b = MatrixForm(1, {(2,): batch})
    out = wedge(a, b).coeff((1, 2))
    assert out.shape == (2, 4, 4)
    assert np.allclose(out[1], 4.0 * IDENTITY)
