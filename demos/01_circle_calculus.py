"""Walkthrough: exact scalar calculus on the circle.

Expression trees over the coordinate alpha (and an integer parameter a)
evaluate to 2-jets: the value and the first two alpha-derivatives, both
exact.  Derivatives can also be taken symbolically, and smooth periodic
functions integrate over the circle with spectral-grade accuracy.
"""
import numpy as np

from loopcs import (QuadratureSpec, derivative, evaluate, integrate_circle,
                    parse_expression)

print("=" * 72)
print("Expression trees and exact jets")
print("=" * 72)

mu = parse_expression("2 + (1/a) * cos(a*alpha) * sin(a*alpha)")
print(f"parsed:       {mu}")

for a in (2, 8):
    jet = evaluate(mu, 0.3, a)
    print(f"a={a}:  mu(0.3) = {jet.v:.12f}   mu'(0.3) = {jet.d1:.12f}   "
          f"mu''(0.3) = {jet.d2:.12f}")

print("\nJets against central finite differences (h = 1e-5):")
f = lambda t: evaluate(mu, t, 2).v
h = 1e-5
fd1 = (f(0.3 + h) - f(0.3 - h)) / (2 * h)
jet = evaluate(mu, 0.3, 2)
print(f"  exact d1 = {jet.d1:.12f}, finite difference = {fd1:.12f}, "
      f"difference = {abs(jet.d1 - fd1):.2e}")

print("\nSymbolic derivative stays inside the grammar:")
dmu = derivative(mu)
print(f"  d/dalpha: {dmu}")
print(f"  value route match at 1.1: {abs(evaluate(dmu, 1.1, 2).v - evaluate(mu, 1.1, 2).d1):.2e}")

print()
print("=" * 72)
print("Circle quadrature")
print("=" * 72)

spec = QuadratureSpec(n=64, tol=1e-10)
cases = [
    ("1 (constant)", lambda x: np.ones_like(x), 2 * np.pi),
    ("sin^2", lambda x: np.sin(x) ** 2, np.pi),
    ("cos(8a)^2 + 1/4", lambda x: np.cos(8 * x) ** 2 + 0.25, 1.5 * np.pi),
]
for label, fn, exact in cases:
    got = integrate_circle(fn, spec)
    print(f"  integral of {label:<18} = {got:.14f}   (exact {exact:.14f}, "
          f"error {abs(got - exact):.1e})")

print("\nThe periodic trapezoid sum is exact on trig polynomials of degree < N;")
print("smooth periodic integrands converge exponentially, and T_N agreeing")
print("with T_N/2 (the even-index subset of the same samples) certifies it.")
