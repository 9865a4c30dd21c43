"""Quadrature of smooth 2*pi-periodic functions on the circle.

One method: the periodic trapezoid sum on the uniform grid of n + 1 points
from 0 to 2*pi, refined along a nested ladder.  For smooth periodic
integrands it converges exponentially in n (Trefethen & Weideman, SIAM
Rev. 56, 2014) and it is exact on trigonometric polynomials of degree
below n.

The first level costs no extra samples beyond the n + 1 grid values: T_n
uses all of them and T_{n/2} the even-index subset, and T_n is returned
once |T_n - T_{n/2}| < tol.  Otherwise each doubling evaluates only the n
new midpoints.  integrate_circle is the one entry: cs_class integrates
every class value through it, over one period rescaled to [0, 2*pi] when
the metric's trees give one.

A class value samples only a few dozen points, so its fixed per-call cost
outweighs the per-sample work.  The first-level grid of each n is
therefore built once by np.linspace and kept read-only; circle_grid, and
through it every integrand's first level, gets a fresh writable copy, so
an integrand that writes into its argument changes only its own copy.

Integrands are called on a whole ndarray of points at once and must
return an array of the same shape (the densities in this package do).  An
integrand that does not vectorize, or one that rejects its input, raises
from that one array call.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * np.pi

# Largest sample count a spec accepts.  The report grid's N + 1 points are
# evaluated and may be written as a CSV of N + 1 rows; at 2**20 that is a
# 41 MB file and a run of seconds, well short of an array numpy refuses
# or a machine cannot hold.
MAX_SAMPLES = 2 ** 20


class QuadratureConvergenceError(ArithmeticError):
    """Refinement cap hit before successive estimates agreed."""

    def __init__(self, message: str, last: float, previous: float):
        super().__init__(f"{message} (last two estimates: {previous!r}, {last!r})")
        self.last = last
        self.previous = previous


@dataclass(frozen=True)
class QuadratureSpec:
    """Sample count, absolute tolerance and doubling cap for circle integrals."""

    n: int = 4096
    tol: float = 1e-8
    max_refinements: int = 8

    def __post_init__(self):
        if self.n < 16 or self.n % 2 != 0:
            raise ValueError("sample count must be an even integer >= 16")
        if self.n > MAX_SAMPLES:
            raise ValueError(f"sample count must be at most 2**20 = {MAX_SAMPLES}")
        # at tol = inf the ladder would accept any two estimates unchecked
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError("tolerance must be finite and positive")
        if self.max_refinements < 1:
            raise ValueError("need at least one refinement")


@functools.lru_cache(maxsize=8)
def _shared_grid(n: int) -> np.ndarray:
    """circle_grid(n), built once per n and read-only, since every caller
    shares it."""
    grid = np.linspace(0.0, TWO_PI, n + 1)
    grid.flags.writeable = False
    return grid


def circle_grid(n: int) -> np.ndarray:
    """The n + 1 uniform points 0, 2*pi/n, ..., 2*pi, as a fresh array."""
    return _shared_grid(n).copy()


def _sample(f: Callable, alpha: np.ndarray) -> np.ndarray:
    y = np.asarray(f(alpha), dtype=float)
    if y.shape != alpha.shape:
        raise ValueError(f"integrand returned shape {y.shape} for {alpha.size} points")
    return y


def integrate_circle(f: Callable, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Approximate the integral of f over [0, 2*pi].

    Samples f on circle_grid(spec.n) and returns T_n when it agrees with
    T_{n/2} to spec.tol; otherwise doubles n, evaluating f only at the new
    midpoints, up to spec.max_refinements times.  Raises
    QuadratureConvergenceError (carrying the last two estimates) if the cap
    is reached first.
    """
    samples = _sample(f, circle_grid(spec.n))
    n = spec.n
    h = TWO_PI / n
    # the two endpoint samples are one periodic point and share its weight
    ends = 0.5 * (samples[0] + samples[-1])
    total = ends + samples[1:-1].sum()
    previous = 2.0 * h * (ends + samples[2:-1:2].sum())
    last = h * total
    doublings = 0
    while not abs(last - previous) < spec.tol:   # a NaN estimate never passes
        if doublings == spec.max_refinements:
            raise QuadratureConvergenceError("trapezoid refinement did not converge",
                                             last=float(last), previous=float(previous))
        total += _sample(f, h * (np.arange(n) + 0.5)).sum()
        n, h = 2 * n, 0.5 * h
        previous, last = last, h * total
        doublings += 1
    return float(last)
