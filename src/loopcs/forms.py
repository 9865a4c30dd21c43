"""Exterior algebra of 4x4-matrix-valued forms on the coframe psi^1..psi^4.

The underlying space is fixed at dimension four (the frame of S^3 x S^1);
a degree-p form stores one 4x4 coefficient matrix per strictly increasing
multi-index of length p drawn from {1,2,3,4}.  Coefficient matrices may
carry leading batch axes, so a whole grid of alpha samples flows through
the algebra at once.

Wedge products multiply coefficient matrices (matrix product) and combine
basis indices with the sign of the merge permutation; overlapping indices
annihilate.  Forms are immutable values.  MatrixForm and ScalarForm (the
trace of a MatrixForm) share one body for storage, index checks, +, -,
scalar * and max_abs; they differ only in the shape of a coefficient
past the batch axes, (4, 4) or (), and MatrixForm alone has wedge and
trace.
"""
from __future__ import annotations

from itertools import combinations
from typing import Dict, Mapping, Tuple

import numpy as np

Index = Tuple[int, ...]


def _validate_index(idx: Index, degree: int):
    if len(idx) != degree:
        raise ValueError(f"multi-index {idx} does not have degree {degree}")
    if any(not 1 <= i <= 4 for i in idx) or any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"multi-index {idx} must be strictly increasing in 1..4")


def merge_sign(left: Index, right: Index):
    """Concatenate two increasing multi-indices.

    Returns (sorted index, permutation sign), or None when an index repeats.
    """
    if set(left) & set(right):
        return None
    merged = left + right
    inversions = sum(1 for i in range(len(merged)) for j in range(i + 1, len(merged))
                     if merged[i] > merged[j])
    return tuple(sorted(merged)), (-1) ** inversions


class _Form:
    """The body both form classes share: a degree-p form storing one
    coefficient of shape batch_shape + FIBER per multi-index it holds."""

    FIBER: Tuple[int, ...] = ()

    def __init__(self, degree: int, coeffs: Mapping[Index, np.ndarray] | None = None,
                 batch_shape: Tuple[int, ...] = ()):
        if not 0 <= degree <= 4:
            raise ValueError("degree must lie in 0..4")
        self.degree = degree
        self._coeffs: Dict[Index, np.ndarray] = {}
        self.batch_shape = tuple(batch_shape)
        for idx, value in (coeffs or {}).items():
            idx = tuple(idx)
            _validate_index(idx, degree)
            value = np.asarray(value)
            batch = value.ndim - len(self.FIBER)
            if value.shape[batch:] != self.FIBER:
                raise ValueError(f"coefficient for {idx} does not end in shape {self.FIBER}")
            self._coeffs[idx] = value
            self.batch_shape = value.shape[:batch]

    def coeff(self, idx: Index) -> np.ndarray:
        idx = tuple(idx)
        _validate_index(idx, self.degree)
        if idx in self._coeffs:
            return self._coeffs[idx]
        return np.zeros(self.batch_shape + self.FIBER)

    def indices(self):
        return sorted(self._coeffs)

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        out = dict(self._coeffs)
        for idx, value in other._coeffs.items():
            out[idx] = out[idx] + value if idx in out else value
        return type(self)(self.degree, out, self.batch_shape or other.batch_shape)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return type(self)(self.degree,
                          {idx: value * scalar for idx, value in self._coeffs.items()},
                          self.batch_shape)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def max_abs(self) -> float:
        if not self._coeffs:
            return 0.0
        return max(float(np.max(np.abs(value))) for value in self._coeffs.values())


class ScalarForm(_Form):
    """Degree-p form with scalar coefficients (trace output)."""


class MatrixForm(_Form):
    """Degree-p form with 4x4 matrix coefficients (possibly batched)."""

    FIBER = (4, 4)

    def wedge(self, other: "MatrixForm") -> "MatrixForm":
        """Exterior product; coefficients multiply as matrices."""
        degree = self.degree + other.degree
        if degree > 4:
            raise ValueError("wedge degree exceeds the manifold dimension 4")
        out: Dict[Index, np.ndarray] = {}
        for li, lm in self._coeffs.items():
            for ri, rm in other._coeffs.items():
                merged = merge_sign(li, ri)
                if merged is None:
                    continue
                idx, sign = merged
                term = sign * (lm @ rm)
                out[idx] = out[idx] + term if idx in out else term
        return MatrixForm(degree, out, self.batch_shape or other.batch_shape)

    def trace(self) -> ScalarForm:
        """Coefficient-wise matrix trace."""
        return ScalarForm(self.degree,
                          {idx: np.trace(mat, axis1=-2, axis2=-1)
                           for idx, mat in self._coeffs.items()},
                          self.batch_shape)


def wedge(a: MatrixForm, b: MatrixForm) -> MatrixForm:
    return a.wedge(b)


def trace(a: MatrixForm) -> ScalarForm:
    return a.trace()


def evaluate3(a: ScalarForm):
    """Evaluate a degree-3 scalar form on the S^3 frame triple (E1,E2,E3).

    Only the psi^1^psi^2^psi^3 coefficient survives: any term carrying
    psi^4 pairs to zero against vectors tangent to the S^3 factor.
    """
    if a.degree != 3:
        raise ValueError(f"evaluate3 needs a degree-3 form, got degree {a.degree}")
    return a.coeff((1, 2, 3))


def basis_indices(degree: int):
    """All strictly increasing multi-indices of the given degree."""
    return list(combinations((1, 2, 3, 4), degree))
