"""Symbolic derivations behind the density kernel.

From generic scale functions lam, mu, nu of alpha, place the twelve
nonzero Christoffel symbols by the closed-form coefficient formulas
(differentiated by sympy; the same formulas, fed numbers, rebuild
loopcs.oracle.christoffel_table), form sigma_0 and sigma_-1 with their generic
dense formulas as sympy matrices, expand the cyclic sum
Tr(M_i [S_j, S_k]) and compare it with connection_trace fed the scale
jets (lam, lam', lam'') and so on.  Derive that the leading-order trace
Tr(sigma_0^3) vanishes because every sigma_0 coefficient matrix is
symmetric.  Then derive why the curvature trace
Tr[sigma_0 ^ sigma_-1(Omega)] is left out of the density: the order-(-1)
curvature symbol vanishes on every pair of S^3 tangents.  Skipped when
sympy, which loopcs does not depend on, is absent.
"""
from itertools import permutations

import numpy as np
import pytest

from loopcs.chern_simons import connection_trace
from loopcs.geometry import builtin_family
from loopcs.jets import Jet2
from loopcs.oracle import christoffel_table, log_rate_jets
from loopcs.verify import random_metric

sp = pytest.importorskip("sympy")

CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def placed(p, q, r, A, B, C, zero=0):
    """gamma[k][i][j] (0-based frame labels) from the six coefficients."""
    g = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    for k, i, j, value in [
        (2, 0, 1, p), (1, 0, 2, -p),
        (2, 1, 0, q), (0, 1, 2, -q),
        (1, 2, 0, r), (0, 2, 1, -r),
        (3, 0, 0, A), (0, 0, 3, -A),
        (3, 1, 1, B), (1, 1, 3, -B),
        (3, 2, 2, C), (2, 2, 3, -C),
    ]:
        g[k][i][j] = value
    return g


def coefficients(scales, log_rates):
    """p, q, r and the log-rates A, B, C of the twelve nonzero Christoffel
    symbols, by the formulas of christoffel_table, from the scales and
    their log-rates (numbers or sympy expressions)."""
    lam, mu, nu = scales
    lmn = lam * mu * nu
    l2, m2, n2 = lam ** 2, mu ** 2, nu ** 2
    return ((l2 * m2 - m2 * n2 + n2 * l2) / lmn,
            (-l2 * m2 - m2 * n2 + n2 * l2) / lmn,
            (n2 * l2 - l2 * m2 + m2 * n2) / lmn,
            *log_rates)


def test_placement_is_the_christoffel_table():
    # the log-rates come from the table's own derivative route: the scale
    # jets' d1/v differs from it in the last bits
    for m in (builtin_family(2), random_metric(np.random.default_rng(3))):
        jets = m.scale_jets(0.7)
        rates = log_rate_jets(m, 0.7, jets)
        values = placed(*coefficients([x.v for x in jets], [x.v for x in rates]),
                        zero=0.0)
        assert np.array_equal(np.array(values), christoffel_table(m, 0.7).v)


def test_sparse_kernel_matches_dense_symbolic_traces():
    alpha = sp.Symbol("alpha")
    scales = [sp.Function(n)(alpha) for n in ("lam", "mu", "nu")]
    six = coefficients(scales, [sp.diff(x, alpha) / x for x in scales])
    g = placed(*six)
    gd = placed(*(sp.diff(c, alpha) for c in six))
    t = 3  # the circle direction, frame label 4

    def sigma0(p):
        return sp.Matrix(4, 4, lambda a, b: (g[a][b][p] + g[b][a][p]) / 2)

    def sigma_minus1(l):
        # the generic order-(-1) coefficient in direction l, as documented
        # in loopcs.oracle.sigma_minus1_connection_beta
        return sp.Matrix(4, 4, lambda a, b: sum(
            g[a][l][k] * g[k][b][t] - g[a][k][t] * g[k][l][b]
            - g[b][k][t] * g[k][a][l] - g[a][k][t] * g[b][k][l]
            for k in range(4)) + gd[a][l][b] + gd[b][a][l])

    S = {p: sigma0(p - 1) for p in (1, 2, 3)}
    M = {l: sigma_minus1(l - 1) for l in (1, 2, 3)}
    dense = sum((M[i] * (S[j] * S[k] - S[k] * S[j])).trace() for i, j, k in CYCLIC)
    kernel = connection_trace(*(Jet2(x, sp.diff(x, alpha), sp.diff(x, alpha, 2))
                                for x in scales))
    assert sp.cancel(dense) != 0
    assert sp.cancel(dense - kernel) == 0


def test_kernel_identities():
    # the derivative rules connection_trace relies on, in its notation
    alpha = sp.Symbol("alpha")
    s = [sp.Function(n)(alpha) for n in ("lam", "mu", "nu")]
    X = [sp.diff(x, alpha) / x for x in s]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        P = s[j] * s[k] / s[i]
        assert sp.cancel(sp.diff(P, alpha) - P * (X[j] + X[k] - X[i])) == 0
        assert sp.cancel(sp.diff(X[i], alpha) - X[i] ** 2
                         - (sp.diff(s[i], alpha, 2) / s[i] - 2 * X[i] ** 2)) == 0


def test_leading_order_trace_vanishes_by_symmetry():
    # sigma_0 = sum_p S_p psi^p, so the psi^p ^ psi^q ^ psi^r coefficient
    # of Tr(sigma_0 ^ sigma_0 ^ sigma_0) is the alternating sum of
    # Tr(S_i S_j S_k) over the orderings of (p, q, r)
    def alternating_trace(S):
        return sp.expand(sum(
            (-1) ** sum(x > y for n, x in enumerate(order) for y in order[n + 1:])
            * (S[order[0]] * S[order[1]] * S[order[2]]).trace()
            for order in permutations(range(3))))

    def matrix(name, symmetric):
        return sp.Matrix(4, 4, lambda a, b: sp.Symbol(
            f"{name}{min(a, b)}{max(a, b)}" if symmetric else f"{name}{a}{b}"))

    # for any three symmetric matrices it is 0: the transpose of a product
    # reverses it, an odd reordering, while cyclic ones keep the trace
    assert alternating_trace([matrix(n, True) for n in "PQR"]) == 0
    assert alternating_trace([matrix(n, False) for n in "PQR"]) != 0
    # and sigma_0's matrices, (gamma[a,b,p] + gamma[b,a,p]) / 2 from the
    # generic Christoffel placement, are symmetric in every direction p
    alpha = sp.Symbol("alpha")
    g = placed(*(sp.Function(n)(alpha) for n in ("p", "q", "r", "A", "B", "C")))
    for p in range(4):
        S = sp.Matrix(4, 4, lambda a, b: (g[a][b][p] + g[b][a][p]) / 2)
        assert S == S.T and S != sp.zeros(4, 4)


def curvature_bilinear_map():
    """The order-(-1) curvature symbol (coefficient of 2 i s / xi) along
    constant loops, as a bilinear map of two frame vectors X, Y:

        O(X,Y)[k,l] = sum_{p,r} X^p Y^r [ dd_p(gamma[k,r,l] + gamma[l,k,r])
                                        - dd_r(gamma[k,p,l] + gamma[l,k,p]) ]

    with dd_p = D_p D_alpha, D_p the derivative along x_p for p = 1..3 and
    along alpha for p = 4.  The gamma entries are the placement of six
    generic functions of alpha.  Returns (O, X, Y) with X, Y symbol lists.
    """
    alpha = sp.Symbol("alpha")
    x = sp.symbols("x1:4")
    g = placed(*(sp.Function(n)(alpha) for n in ("p", "q", "r", "A", "B", "C")))
    coords = (*x, alpha)

    def dd(p, e):
        return sp.diff(e, coords[p], alpha)

    X, Y = sp.symbols("X1:5"), sp.symbols("Y1:5")
    O = sp.Matrix(4, 4, lambda k, l: sum(
        X[p] * Y[r] * (dd(p, g[k][r][l] + g[l][k][r]) - dd(r, g[k][p][l] + g[l][k][p]))
        for p in range(4) for r in range(4)))
    return O, X, Y


def curvature_vanishes_on_s3_pairs():
    """Nonzero for generic X, Y, antisymmetric, and identically zero once
    X4 = Y4 = 0: every surviving term carries a fourth (circle) component."""
    O, X, Y = curvature_bilinear_map()
    swapped = O.subs({**dict(zip(X, Y)), **dict(zip(Y, X))}, simultaneous=True)
    on_s3 = O.subs({X[3]: 0, Y[3]: 0})
    return (O.expand() != sp.zeros(4, 4),
            (O + swapped).expand() == sp.zeros(4, 4),
            on_s3.expand() == sp.zeros(4, 4))


def test_curvature_symbol_vanishes_on_s3_pairs():
    nonzero, antisymmetric, vanishes = curvature_vanishes_on_s3_pairs()
    assert nonzero
    assert antisymmetric
    assert vanishes
