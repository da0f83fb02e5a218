"""Sobolev reproducing kernel and worst-case quadrature error.

The one-dimensional kernel of smoothness alpha is

    K_alpha(x, y) = sum_{r=0}^{alpha} B_r(x) B_r(y) / (r!)**2
                    + (-1)**(alpha+1) B_{2 alpha}(|x - y|) / (2 alpha)!

and the s-dimensional kernel is the coordinatewise product.  Both the
constant function's kernel integral and the double integral equal 1 (all
Bernoulli terms have zero mean), so the squared worst-case error of an
equal-weight rule on points P is the kernel double sum over P divided by
N**2, minus 1.

``kernel_1d`` is the one scalar definition of K_alpha: exact on Fractions
and binary64 on floats.  One production path and one oracle read it:
``wce`` evaluates it in vectorized binary64 on the (n, dims) float array
that ``points.net_values`` returns, with deterministic blockwise
compensated summation, and ``wce_squared_exact`` sums it exactly over the
Fraction coordinates of ``points.net_points`` (the roundoff oracle).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bernoulli import bernoulli, bernoulli_float_coeffs
from .errors import NumericalConsistencyError, UsageError

# Squared errors this far below zero indicate real trouble, not roundoff.
WCE_NEGATIVE_TOLERANCE = 1e-9

_BLOCK_ROWS = 128


@dataclass(frozen=True)
class KernelSpec:
    """Smoothness and dimension of the tensor-product Sobolev space."""

    alpha: int
    dims: int

    def __post_init__(self) -> None:
        if self.alpha < 1 or self.dims < 1:
            raise UsageError("alpha and dims must be positive")


def kernel_1d(alpha: int, x, y):
    """One-dimensional kernel value: exact for Fraction input, float for float."""
    acc = 0
    for r in range(alpha + 1):
        acc += bernoulli(r, x) * bernoulli(r, y) / math.factorial(r) ** 2
    per = bernoulli(2 * alpha, abs(x - y)) / math.factorial(2 * alpha)
    return acc + per if alpha % 2 else acc - per


def _kernel_matrix_1d(alpha: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros((x.size, y.size))
    for r in range(alpha + 1):
        bx = np.polyval(bernoulli_float_coeffs(r), x)
        by = np.polyval(bernoulli_float_coeffs(r), y)
        out += np.outer(bx, by) / math.factorial(r) ** 2
    diff = np.abs(x[:, None] - y[None, :])
    per = np.polyval(bernoulli_float_coeffs(2 * alpha), diff)
    per /= math.factorial(2 * alpha)
    return out + per if alpha % 2 else out - per


def wce(spec: KernelSpec, points: np.ndarray, threads: int = 1) -> float:
    """Worst-case quadrature error of an equal-weight rule on ``points``.

    ``points`` is the (n, dims) float array that ``net_values`` returns.  The
    kernel double sum runs over fixed row blocks whose partial sums are
    combined with exact compensated summation in index order, so the result
    is identical for every thread count.
    """
    xs = np.asarray(points, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != spec.dims:
        raise UsageError(
            f"points must form an (n, {spec.dims}) array, got shape {xs.shape}"
        )
    n, dims = xs.shape
    if n < 1:
        raise UsageError("the point set must be nonempty")

    blocks = [(lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, n, _BLOCK_ROWS)]

    def block_sum(bounds: tuple[int, int]) -> float:
        lo, hi = bounds
        acc = np.ones((hi - lo, n))
        for j in range(dims):
            acc *= _kernel_matrix_1d(spec.alpha, xs[lo:hi, j], xs[:, j])
        return float(acc.sum())

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(block_sum, blocks))
    else:
        partials = [block_sum(b) for b in blocks]
    total = math.fsum(partials)
    e2 = total / (n * n) - 1.0
    if e2 < -WCE_NEGATIVE_TOLERANCE:
        raise NumericalConsistencyError(
            f"squared worst-case error {e2} is negative beyond roundoff"
        )
    return math.sqrt(max(e2, 0.0))


def wce_squared_exact(spec: KernelSpec, points) -> Fraction:
    """Exact-rational squared worst-case error; the roundoff oracle.

    Intended for small sets (the double loop is quadratic with exact
    arithmetic); coordinates must be exact rationals, as ``net_points``
    returns them.
    """
    coords = [tuple(Fraction(v) for v in pt) for pt in points]
    n = len(coords)
    if n < 1:
        raise UsageError("the point set must be nonempty")
    if any(len(c) != spec.dims for c in coords):
        raise UsageError("point dimension does not match the kernel spec")
    total = Fraction(0)
    for a in coords:
        for c in coords:
            term = Fraction(1)
            for j in range(spec.dims):
                term *= kernel_1d(spec.alpha, a[j], c[j])
            total += term
    return total / n**2 - 1
