"""Symbolic derivation of the sparse connection-trace kernel.

From the twelve nonzero Christoffel symbols (six coefficient functions and
their alpha-derivatives as free symbols), form sigma_0 and sigma_-1 with
their generic dense formulas as sympy matrices, expand the cyclic sum
Tr(M_i [S_j, S_k]) and compare it with connection_trace fed the same
symbols.  Skipped when sympy, which loopcs does not depend on, is absent.
"""
import numpy as np
import pytest

from loopcs.chern_simons import connection_trace
from loopcs.geometry import (ChristoffelCoefficients, builtin_family,
                             christoffel_coefficients, christoffel_table)
from loopcs.jets import Jet2
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


def test_placement_is_the_christoffel_table():
    for m in (builtin_family(2), random_metric(np.random.default_rng(3))):
        c = christoffel_coefficients(m, 0.7)
        values = placed(*(x.v for x in (c.p, c.q, c.r, c.A, c.B, c.C)), zero=0.0)
        assert np.array_equal(np.array(values), christoffel_table(m, 0.7).gamma.v)


def test_sparse_kernel_matches_dense_symbolic_traces():
    names = ("p", "q", "r", "A", "B", "C")
    values = sp.symbols(names)
    rates = sp.symbols(tuple("d" + n for n in names))
    g, gd = placed(*values), placed(*rates)
    t = 3  # the circle direction, frame label 4

    def sigma0(p):
        return sp.Matrix(4, 4, lambda a, b: (g[a][b][p] + g[b][a][p]) / 2)

    def sigma_minus1(l):
        # the generic order-(-1) coefficient in direction l, as documented
        # in loopcs.symbols.sigma_minus1_connection_beta
        return sp.Matrix(4, 4, lambda a, b: sum(
            g[a][l][k] * g[k][b][t] - g[a][k][t] * g[k][l][b]
            - g[b][k][t] * g[k][a][l] - g[a][k][t] * g[b][k][l]
            for k in range(4)) + gd[a][l][b] + gd[b][a][l])

    S = {p: sigma0(p - 1) for p in (1, 2, 3)}
    M = {l: sigma_minus1(l - 1) for l in (1, 2, 3)}
    dense = sum((M[i] * (S[j] * S[k] - S[k] * S[j])).trace() for i, j, k in CYCLIC)
    sparse = connection_trace(ChristoffelCoefficients(
        *(Jet2(v, d, 0) for v, d in zip(values, rates))))
    assert sp.expand(dense) != 0
    assert sp.expand(dense - sparse) == 0
