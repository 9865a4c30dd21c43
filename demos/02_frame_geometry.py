"""Walkthrough: frame geometry of Berger-type metrics on S^3 x S^1.

The scaled left-invariant frame F1 = lam E1, F2 = mu E2, F3 = nu E3,
F4 = d/drho is orthonormal.  Its structure constants and Christoffel
symbols are functions of the circle coordinate alone, and the closed-form
Christoffel table is cross-checked against an independent Koszul-formula
derivation.
"""
import numpy as np

from loopcs import BergerMetric, builtin_family, parse_expression, round_metric
from loopcs.oracle import (christoffel_koszul, christoffel_table, sigma0_connection,
                           structure_constants)

FRAME = ("F1", "F2", "F3", "F4")

print("=" * 72)
print("Structure constants")
print("=" * 72)

m = BergerMetric(parse_expression("1"), parse_expression("2"), parse_expression("3"))
c = structure_constants(m, 0.0).v
print("constant scales (lam, mu, nu) = (1, 2, 3):")
for (k, i, j) in [(2, 0, 1), (0, 1, 2), (1, 0, 2)]:
    print(f"  <[{FRAME[i]},{FRAME[j]}], {FRAME[k]}> = {c[k, i, j]:+.6f}")

wobble = BergerMetric(parse_expression("1+0.1*sin(alpha)"), parse_expression("1"),
                      parse_expression("1"))
cw = structure_constants(wobble, 0.0).v
print("\nlam = 1 + 0.1 sin(alpha) at alpha=0: the circle direction twists F1,")
print(f"  <[F4,F1], F1> = lam'/lam = {cw[0, 3, 0]:+.6f}")

print()
print("=" * 72)
print("Christoffel symbols: closed form vs Koszul oracle")
print("=" * 72)

family = builtin_family(2)
alpha = 0.9
table = christoffel_table(family, alpha)
koszul = christoffel_koszul(family, alpha)
print(f"built-in family, a=2, alpha={alpha}:")
print(f"  max |table - koszul| over values:        "
      f"{np.max(np.abs(table.v - koszul.v)):.2e}")
print(f"  max |table - koszul| over d/dalpha:      "
      f"{np.max(np.abs(table.d1 - koszul.d1)):.2e}")
print(f"  metric compatibility max |g^k_ij+g^j_ik|: "
      f"{np.max(np.abs(table.v + np.einsum('kij->jik', table.v))):.2e}")

print("\nround metric: the only surviving entries are the S^3 rotations")
g = christoffel_table(round_metric(), 0.0).v
print(f"  gamma^3_12 = {g[2, 0, 1]:+.1f}   gamma^3_21 = {g[2, 1, 0]:+.1f}   "
      f"gamma^2_31 = {g[1, 2, 0]:+.1f}")

print()
print("=" * 72)
print("Coefficient functions U, V, W, A, B, C")
print("=" * 72)



def coefficients(m, alpha):
    """U, V, W, A, B, C read off the order-0 connection symbol: U, -V, W are
    its psi^3 (1,2), psi^2 (1,3) and psi^1 (2,3) entries, A/2, B/2, C/2 its
    psi^p (p,4) entries."""
    s0 = sigma0_connection(m, alpha)
    # 0 - x rather than -x: a vanishing V prints as 0, not -0
    return (s0.coeff((3,))[0, 1], 0.0 - s0.coeff((2,))[0, 2], s0.coeff((1,))[1, 2],
            *(2.0 * s0.coeff((p,))[p - 1, 3] for p in (1, 2, 3)))


U, V, W, A, B, C = coefficients(family, 0.0)
print("built-in family, a=2, at alpha=0 (mu=2, nu=1):")
print(f"  U = {U:+.6f}   V = {V:+.6f}   W = {W:+.6f}")
print(f"  A = {A:+.6f}   B = {B:+.6f}   C = {C:+.6f}")
gd = christoffel_table(family, 0.0).d1
print("  (the table carries d/dalpha alongside, exactly; e.g. "
      f"U' = {(gd[0, 1, 2] + gd[1, 0, 2]) / 2.0:+.6f})")

U, V, W = coefficients(round_metric(), 1.0)[:3]
print(f"\nround metric: U = V = W = {U}, {V}, {W} (equal scales degenerate)")
