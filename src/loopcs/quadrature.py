"""Quadrature of smooth 2*pi-periodic functions on the circle.

One method: the periodic trapezoid sum on the uniform grid of n + 1 points
from 0 to 2*pi, refined along a nested ladder.  For smooth periodic
integrands it converges exponentially in n (Trefethen & Weideman, SIAM
Rev. 56, 2014) and it is exact on trigonometric polynomials of degree
below n.

The first level costs no extra samples beyond the n + 1 grid values: T_n
uses all of them and T_{n/2} the even-index subset, and T_n is returned
once |T_n - T_{n/2}| < tol.  Otherwise each doubling evaluates only the n
new midpoints.  integrate_circle is the one entry: every class value is
integrated through it, over the period its metric's certificate gives,
rescaled to [0, 2*pi], and a batch of class values (chern_simons.sweep)
is one call whose integrand returns a row of samples per class.

A class value samples only a few dozen points, so its fixed per-call cost
outweighs the per-sample work.  The first-level grid of each n is
therefore built once by np.linspace and kept read-only; circle_grid, and
through it every integrand's first level, gets a fresh writable copy, so
an integrand that writes into its argument changes only its own copy.

Integrands are called on a whole ndarray of points at once and must
return an array of the same shape (the densities in this package do), or
one row of samples per integral (integrate_circle).  An
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

# Largest sample count a spec accepts and a ladder level reaches (a level
# of n samples holds n + 1 floats).  The report grid's N + 1 points are
# evaluated and may be written as a CSV of N + 1 rows; at 2**20 that is a
# 41 MB file and a run of seconds, well short of an array numpy refuses
# or a machine cannot hold.
MAX_SAMPLES = 2 ** 20


class QuadratureConvergenceError(ArithmeticError):
    """Refinement cap or MAX_SAMPLES hit before successive estimates
    agreed; a first level past MAX_SAMPLES leaves no estimates (None)."""

    def __init__(self, message: str, last: float | None = None, previous: float | None = None):
        super().__init__(message if last is None
                         else f"{message} (last two estimates: {previous!r}, {last!r})")
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


def _sample(f: Callable, alpha: np.ndarray, *live) -> np.ndarray:
    """f(alpha, *live) as floats: of alpha's shape, or one row per integral
    (per live row, when live is given)."""
    y = np.asarray(f(alpha, *live), dtype=float)
    rows = y.ndim == 2 and y.shape[1] == alpha.size and (not live or len(y) == live[0].size)
    if y.shape != alpha.shape and not rows:
        raise ValueError(f"integrand returned shape {y.shape} for {alpha.size} points")
    return y


def integrate_circle(f: Callable, spec: QuadratureSpec = QuadratureSpec()) -> float | list:
    """Approximate the integral of f over [0, 2*pi].

    Samples f on circle_grid(spec.n) and returns T_n when it agrees with
    T_{n/2} to spec.tol; otherwise doubles n, evaluating f only at the new
    midpoints, up to spec.max_refinements times.  Raises
    QuadratureConvergenceError (carrying the last two estimates) if the cap
    is reached first, or if the next level would pass MAX_SAMPLES.

    f may integrate several rows at once: on the grid it returns samples
    of shape (rows, n + 1), and the result is the list of the rows'
    integrals.  Every row's ladder stops on its own: a doubling calls
    f(midpoints, live) with the index array of the rows not yet converged,
    and f returns their samples only.  The sums are taken along each row
    and the estimates formed in Python floats, so a row's integral has the
    bits of a one-row f; the first row that hits the cap raises.
    """
    samples = _sample(f, circle_grid(spec.n))
    rows = samples.ndim == 2
    if not rows:
        samples = samples[None]
    n = spec.n
    h = TWO_PI / n
    total, previous, last, live = [], [], [], []
    for i, (first, end, inner, even) in enumerate(zip(
            samples[:, 0].tolist(), samples[:, -1].tolist(),
            samples[:, 1:-1].sum(axis=1).tolist(), samples[:, 2:-1:2].sum(axis=1).tolist())):
        # the two endpoint samples are one periodic point and share its weight
        ends = 0.5 * (first + end)
        total.append(ends + inner)
        previous.append(2.0 * h * (ends + even))
        last.append(h * total[i])
        if not abs(last[i] - previous[i]) < spec.tol:   # a NaN estimate never passes
            live.append(i)
    doublings = 0
    while live:
        if doublings == spec.max_refinements:
            raise QuadratureConvergenceError("trapezoid refinement did not converge",
                                             last=last[live[0]], previous=previous[live[0]])
        if 2 * n > MAX_SAMPLES:
            raise QuadratureConvergenceError(
                f"the next ladder level of {2 * n} samples would pass the cap 2**20 = "
                f"{MAX_SAMPLES}", last=last[live[0]], previous=previous[live[0]])
        midpoints = h * (np.arange(n) + 0.5)
        new = _sample(f, midpoints, np.array(live)) if rows else _sample(f, midpoints)[None]
        n, h = 2 * n, 0.5 * h
        for i, t in zip(live, new.sum(axis=1).tolist()):
            total[i] += t
            previous[i], last[i] = last[i], h * total[i]
        live = [i for i in live if not abs(last[i] - previous[i]) < spec.tol]
        doublings += 1
    return last if rows else last[0]
