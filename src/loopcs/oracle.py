"""Reference routes: the dense tables and symbols the class path is checked against.

The class path (chern_simons.connection_trace) forms the density from the
scale jets alone.  This module holds the independent routes the verify
suite and the derivation tests compare it with; nothing on the class path
imports it.

Tables.  The structure constants and Christoffel symbols of the scaled
frame, with 0-based array axes [component, direction, vector] for the
frame labels 1..4 (see loopcs.geometry):

    c[k,i,j]     = <[F_i, F_j], F_k>
    gamma[k,i,j] = <nabla_{F_i} F_j, F_k>

Each is returned as one Jet1 of value / first-derivative arrays.  Their
log-rates lam'/lam, mu'/mu, nu'/nu come from the symbolically
differentiated scale trees (log_rate_jets), a derivative route that
shares no code with the kernel, which reads them off the scale jets.
christoffel_table (closed form) and christoffel_koszul (Koszul formula
over the structure constants) are each other's oracle.

Symbols.  Along the embedding of S^3 into the loop space of S^3 x S^1 by
constant loops (beta(x)(alpha) = (x, alpha)), the Levi-Civita connection
of the H^s Sobolev metric is a pseudodifferential-operator-valued
one-form.  Its order-0 symbol is a matrix of one-forms built from
Christoffel symbols; its order-(-1) symbol carries the universal scalar
prefactor

    2 i s / xi

(s the Sobolev exponent, xi the circle covariable).  That prefactor is
never stored numerically: every order-(-1) quantity here is the real
matrix coefficient multiplying it.  The curvature's order-(-1) symbol is
not built: along constant loops its only surviving terms pair with a
fourth (circle) frame component, which S^3 tangents lack, as
tests/test_kernel_derivation.py derives.

Every function accepts a scalar alpha or a grid of alphas (leading batch
axes on the tables).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .expressions import JetProgram, compile_jets, derivative
from .forms import MatrixForm, evaluate3, trace, wedge
from .geometry import BergerMetric
from .jets import Jet2, Number


@dataclass(frozen=True)
class Jet1:
    """(value, first derivative), no arithmetic: a table entry whose second
    derivative nobody reads."""

    v: Number
    d1: Number


@functools.lru_cache(maxsize=64)
def _rate_program(m: BergerMetric) -> JetProgram:
    # compiled once per metric and kept here, off the metric: the verify
    # suite builds several tables of each metric it draws
    return compile_jets(tuple(derivative(e) for e in (m.lam, m.mu, m.nu)), m.a)


def log_rate_jets(m: BergerMetric, alpha: Number, scales):
    """Jets of (lam'/lam, mu'/mu, nu'/nu): the symbolically differentiated
    trees over the scale jets the caller holds (from m.scale_jets at the
    same alpha), so even the second derivatives are exact."""
    return tuple(dotted / scale for dotted, scale in zip(_rate_program(m)(alpha), scales))


def _jet_tensor(batch_shape) -> Jet1:
    shape = tuple(batch_shape) + (4, 4, 4)
    return Jet1(np.zeros(shape), np.zeros(shape))


def _set(tensor: Jet1, k: int, i: int, j: int, value: Jet2):
    tensor.v[..., k, i, j] = value.v
    tensor.d1[..., k, i, j] = value.d1


def structure_constants(m: BergerMetric, alpha: Number) -> Jet1:
    """Brackets of the orthonormal frame at alpha, c[k,i,j] = <[F_i,F_j], F_k>.

    [F1,F2] = (2 lam mu / nu) F3 and cyclic partners from the S^3 relations;
    brackets with F4 = d/drho pick up the scale rates, e.g.
    [F4, F1] = (lam'/lam) F1.
    """
    scales = m.scale_jets(alpha)
    lam, mu, nu = scales
    A, B, C = log_rate_jets(m, alpha, scales)
    c = _jet_tensor(np.shape(np.asarray(alpha)))
    pairs = [
        (2, 0, 1, 2.0 * lam * mu / nu),   # c^3_12
        (0, 1, 2, 2.0 * mu * nu / lam),   # c^1_23
        (1, 0, 2, -2.0 * lam * nu / mu),  # c^2_13
        (0, 3, 0, A),                     # c^1_41
        (1, 3, 1, B),                     # c^2_42
        (2, 3, 2, C),                     # c^3_43
    ]
    for k, i, j, value in pairs:
        _set(c, k, i, j, value)
        _set(c, k, j, i, -value)
    return c


def christoffel_koszul(m: BergerMetric, alpha: Number) -> Jet1:
    """Christoffel symbols from the Koszul formula, structure constants only.

    In an orthonormal frame the inner products are constant, so

        gamma^k_ij = (c^k_ij - c^i_jk + c^j_ki) / 2.

    Independent of :func:`christoffel_table`; the two are each other's
    correctness oracle.
    """
    c = structure_constants(m, alpha)

    def koszul(x):
        t2 = np.einsum("...ijk->...kij", x)  # t2[k,i,j] = x[i,j,k]
        t3 = np.einsum("...jki->...kij", x)  # t3[k,i,j] = x[j,k,i]
        return 0.5 * (x - t2 + t3)

    return Jet1(koszul(c.v), koszul(c.d1))


def christoffel_table(m: BergerMetric, alpha: Number) -> Jet1:
    """The closed-form Christoffel table of the scaled orthonormal frame,
    gamma[k,i,j] = <nabla_{F_i} F_j, F_k> with its exact alpha-derivative.

    Its twelve nonzero symbols (frame labels 1..4) are six functions of
    alpha:

        p = gamma^3_12 = -gamma^2_13 = ( lam^2 mu^2 - mu^2 nu^2 + nu^2 lam^2) / (lam mu nu)
        q = gamma^3_21 = -gamma^1_23 = (-lam^2 mu^2 - mu^2 nu^2 + nu^2 lam^2) / (lam mu nu)
        r = gamma^2_31 = -gamma^1_32 = ( nu^2 lam^2 - lam^2 mu^2 + mu^2 nu^2) / (lam mu nu)
        A = gamma^4_11 = -gamma^1_14 = lam'/lam,  B, C likewise for mu, nu,

    the log-rates from log_rate_jets.  Every gamma^i_4j, gamma^i_44 and
    gamma^4_4j vanishes: F4-directed derivatives of the orthonormal frame
    are zero, i.e. the frame is parallel along the circle fibers.
    """
    scales = m.scale_jets(alpha)
    lam, mu, nu = scales
    A, B, C = log_rate_jets(m, alpha, scales)
    lmn = lam * mu * nu
    l2, m2, n2 = lam ** 2, mu ** 2, nu ** 2
    p = (l2 * m2 - m2 * n2 + n2 * l2) / lmn
    q = (-l2 * m2 - m2 * n2 + n2 * l2) / lmn
    r = (n2 * l2 - l2 * m2 + m2 * n2) / lmn
    g = _jet_tensor(np.shape(np.asarray(alpha)))
    for k, i, j, value in [
        (2, 0, 1, p), (1, 0, 2, -p),
        (2, 1, 0, q), (0, 1, 2, -q),
        (1, 2, 0, r), (0, 2, 1, -r),
        (0, 0, 3, -A), (3, 0, 0, A),
        (1, 1, 3, -B), (3, 1, 1, B),
        (2, 2, 3, -C), (3, 2, 2, C),
    ]:
        _set(g, k, i, j, value)
    return g


def _transpose(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def sigma0_connection(m: BergerMetric, alpha: Number) -> MatrixForm:
    """Order-0 symbol of the connection one-form, as a matrix of one-forms:
    entry (k,l) is (gamma^k_{l p} + gamma^l_{k p})/2 psi^p, from the
    Christoffel table.

    With U = nu^2 (mu^2 - lam^2), V = mu^2 (nu^2 - lam^2) and
    W = lam^2 (nu^2 - mu^2), each over lam mu nu, and the log-rates A, B, C
    it reads

        [ -A psi4    U psi3   -V psi2   A/2 psi1 ]
        [  U psi3   -B psi4    W psi1   B/2 psi2 ]
        [ -V psi2    W psi1   -C psi4   C/2 psi3 ]
        [ A/2 psi1  B/2 psi2  C/2 psi3     0     ]

    The class path's kernel (connection_trace) keeps only the psi^1..psi^3
    entries, as X_i/2 = A/2, B/2, C/2 and Y_i/2 = W, -V, U.  It is
    symmetric, which is what kills the leading-order trace Tr[sigma0^3].
    """
    g = christoffel_table(m, alpha).v
    return MatrixForm(1, {(p + 1,): 0.5 * (g[..., p] + _transpose(g[..., p]))
                          for p in range(4)}, g.shape[:-3])


def sigma_minus1_connection_beta(table: Jet1) -> MatrixForm:
    """Order-(-1) symbol of the connection along constant loops, from a
    Christoffel table (christoffel_table or christoffel_koszul).

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
    g, gd = table.v, table.d1
    g4 = g[..., 3]  # g4[x,y] = gamma^x_{y 4}
    coeffs = {}
    for l in range(3):
        row, col = g[..., l, :], g[..., l]  # gamma[a,l,b] and gamma[a,b,l]
        coeffs[(l + 1,)] = (row @ g4 - g4 @ row - _transpose(g4 @ col)
                            - g4 @ _transpose(col)
                            + gd[..., l, :] + _transpose(gd[..., l]))
    return MatrixForm(1, coeffs, g.shape[:-3])


def sigma_minus1_connection_dot(m: BergerMetric, alpha: float, direction: int,
                                xdot=None, table: Jet1 | None = None) -> np.ndarray:
    """Order-(-1) symbol applied to a single frame vector, with drift terms.

    direction is the frame label (1..4) of the vector X; xdot is the
    4-vector of alpha-derivatives of its components (None means zero, which
    must reproduce sigma_minus1_connection_beta entrywise).  The drift
    coefficient on xdot^l is gamma[a,b,l] + gamma[b,a,l], i.e. twice the
    psi^l coefficient matrix of the order-0 symbol.

    table is christoffel_table(m, alpha) when the caller already holds it,
    as check_sigma_minus1_routes does; nothing checks that it matches m and
    alpha.  The None default builds it here: demos call the route with m
    and alpha alone, and so does verify.py of earlier revisions, whose
    suites `python tests/test_mutants.py REV` replays on this package.

    Deliberately written as plain loops over the index sums: this is the
    independent cross-check for the vectorized beta-restricted route.
    """
    if direction not in (1, 2, 3, 4):
        raise ValueError("direction must be a frame label in 1..4")
    if table is None:
        table = christoffel_table(m, float(alpha))
    g, gd = table.v, table.d1
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


def leading_order_density(m: BergerMetric, alpha):
    """Tr[sigma_0 ^ sigma_0 ^ sigma_0] on the S^3 frame.

    Identically zero for this metric family (the order-0 symbol is a
    symmetric matrix of one-forms); the function exists to verify that the
    leading-order secondary class vanishes, which is what forces the
    computation down to the Wodzicki-residue level.
    """
    s0 = sigma0_connection(m, alpha)
    return evaluate3(trace(wedge(wedge(s0, s0), s0)))
