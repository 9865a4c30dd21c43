"""Order-0 and order-(-1) symbols of the loop-space Levi-Civita connection.

Along the embedding of S^3 into the loop space of S^3 x S^1 by constant
loops (beta(x)(alpha) = (x, alpha)), the Levi-Civita connection of the H^s
Sobolev metric is a pseudodifferential-operator-valued one-form.  Its
order-0 symbol is an ordinary matrix of one-forms built from Christoffel
symbols; its order-(-1) symbol carries the universal scalar prefactor

    2 i s / xi

(s the Sobolev exponent, xi the circle covariable).  That prefactor is
never stored numerically: every order-(-1) quantity in this module is the
real matrix coefficient multiplying it.  The cosphere integral over xi is
applied once, downstream, as a single convention constant.

The curvature's order-(-1) symbol is not built here.  Along constant loops
its only surviving terms, mixed circle/space second derivatives of the
Christoffel symbols, pair with a fourth (circle) frame component, which
S^3 tangents lack, so the curvature trace contributes nothing to the
class; tests/test_kernel_derivation.py derives that symbolically.

Index conventions follow :mod:`loopcs.geometry`: gamma[k,i,j] is the
component k of the derivative of frame vector j in direction i, with
0-based array axes for the frame labels 1..4.
"""
from __future__ import annotations

import numpy as np

from .forms import MatrixForm
from .geometry import (BergerMetric, ChristoffelTable, christoffel_table,
                       coefficient_set)
from .jets import Number


def sigma0_connection(m: BergerMetric, alpha: Number) -> MatrixForm:
    """Order-0 symbol of the connection one-form, as a matrix of one-forms.

    Assembled from the coefficient set (U, V, W and the log-rates A, B, C):

        [ -A psi4    U psi3   -V psi2   A/2 psi1 ]
        [  U psi3   -B psi4    W psi1   B/2 psi2 ]
        [ -V psi2    W psi1   -C psi4   C/2 psi3 ]
        [ A/2 psi1  B/2 psi2  C/2 psi3     0     ]

    This is the display and oracle route; sigma0_from_christoffel builds
    the same matrix, (gamma[k,l,p] + gamma[l,k,p])/2 on psi^p, from the
    Christoffel table.  The class path's kernel (connection_trace) keeps
    only the psi^1..psi^3 entries, as X_i/2 = A/2, B/2, C/2 and
    Y_i/2 = W, -V, U.  It is symmetric, which is what kills the
    leading-order trace Tr[sigma0^3].
    """
    cs = coefficient_set(m, alpha)
    batch = np.shape(np.asarray(alpha))
    mats = {p: np.zeros(batch + (4, 4)) for p in (1, 2, 3, 4)}
    U, V, W = cs.U.v, cs.V.v, cs.W.v
    A, B, C = cs.A.v, cs.B.v, cs.C.v
    mats[4][..., 0, 0] = -A
    mats[4][..., 1, 1] = -B
    mats[4][..., 2, 2] = -C
    mats[3][..., 0, 1] = mats[3][..., 1, 0] = U
    mats[2][..., 0, 2] = mats[2][..., 2, 0] = -V
    mats[1][..., 1, 2] = mats[1][..., 2, 1] = W
    mats[1][..., 0, 3] = mats[1][..., 3, 0] = A / 2.0
    mats[2][..., 1, 3] = mats[2][..., 3, 1] = B / 2.0
    mats[3][..., 2, 3] = mats[3][..., 3, 2] = C / 2.0
    return MatrixForm(1, {(p,): mats[p] for p in (1, 2, 3, 4)}, batch)


def _transpose(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def sigma0_from_christoffel(table: ChristoffelTable) -> MatrixForm:
    """Order-0 symbol assembled directly from a Christoffel table.

    Entry (k,l) is (gamma^k_{l p} + gamma^l_{k p})/2 psi^p.  This is the
    dense route, checked against its independent oracle sigma0_connection
    by the verify suite.
    """
    g = table.gamma.v
    return MatrixForm(1, {(p + 1,): 0.5 * (g[..., p] + _transpose(g[..., p]))
                          for p in range(4)}, g.shape[:-3])


def sigma_minus1_connection_beta(table: ChristoffelTable) -> MatrixForm:
    """Order-(-1) symbol of the connection along constant loops.

    For tangents of the constant-loop S^3 (whose components are constant in
    alpha, so their alpha-derivative terms drop), the coefficient of
    2 i s / xi in direction l = 1..3 is the matrix

        M_l[a,b] = sum_k gamma[a,l,k] gamma[k,b,4]
                 - sum_k gamma[a,k,4] gamma[k,l,b]
                 - sum_q gamma[b,q,4] gamma[q,a,l]
                 - sum_p gamma[a,p,4] gamma[b,p,l]
                 + d_alpha( gamma[a,l,b] + gamma[b,a,l] ).

    The spatial term d_l gamma[a,b,4] of the general symbol is absent:
    every Christoffel symbol of the left-invariant frame is a function of
    alpha alone.
    """
    g, gd = table.gamma.v, table.gamma.d1
    g4 = g[..., 3]  # g4[x,y] = gamma^x_{y 4}
    coeffs = {}
    for l in range(3):
        row, col = g[..., l, :], g[..., l]  # gamma[a,l,b] and gamma[a,b,l]
        coeffs[(l + 1,)] = (row @ g4 - g4 @ row - _transpose(g4 @ col)
                            - g4 @ _transpose(col)
                            + gd[..., l, :] + _transpose(gd[..., l]))
    return MatrixForm(1, coeffs, g.shape[:-3])


def sigma_minus1_connection_dot(m: BergerMetric, alpha: float, direction: int,
                                xdot=None) -> np.ndarray:
    """Order-(-1) symbol applied to a single frame vector, with drift terms.

    direction is the frame label (1..4) of the vector X; xdot is the
    4-vector of alpha-derivatives of its components (None means zero, which
    must reproduce sigma_minus1_connection_beta entrywise).  The drift
    coefficient on xdot^l is gamma[a,b,l] + gamma[b,a,l], i.e. twice the
    psi^l coefficient matrix of the order-0 symbol.

    Deliberately written as plain loops over the index sums: this is the
    independent cross-check for the vectorized beta-restricted route.
    """
    if direction not in (1, 2, 3, 4):
        raise ValueError("direction must be a frame label in 1..4")
    table = christoffel_table(m, float(alpha))
    g, gd = table.gamma.v, table.gamma.d1
    l = direction - 1
    out = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            acc = 0.0  # the d_l gamma[a,b,4] slot: identically zero
            for k in range(4):
                acc += g[a, l, k] * g[k, b, 3]
                acc -= g[a, k, 3] * g[k, l, b]
                acc -= g[b, k, 3] * g[k, a, l]
                acc -= g[a, k, 3] * g[b, k, l]
            acc += gd[a, l, b] + gd[b, a, l]
            out[a, b] = acc
    if xdot is not None:
        xdot = np.asarray(xdot, dtype=float)
        if xdot.shape != (4,):
            raise ValueError("xdot must be a 4-vector")
        for a in range(4):
            for b in range(4):
                for p in range(4):
                    out[a, b] += (g[a, b, p] + g[b, a, p]) * xdot[p]
    return out
