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
and binary64 on floats.  ``wce`` evaluates it in vectorized binary64 on the
(n, dims) float array that ``points.net_values`` returns, with
deterministic blockwise compensated summation (production), and
``wce_squared_exact`` sums it exactly over small point sets (roundoff
oracle).  An independent route, ``dual_walsh_sum_exact``, sums exact Walsh
coefficients of the kernel over the truncated dual net: in one dimension as
a single Walsh transform of the exact cell matrix ``walsh._cell_matrix``
weighted by the dual set's class counts (production), in more dimensions
pair by pair through ``kernel_walsh_coeff_vec``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bernoulli import bernoulli, bernoulli_float_coeffs
from .cyclotomic import Cyclotomic
from .errors import NumericalConsistencyError, ResourceLimitError, UsageError
from .matrices import GeneratingMatrixSet
from .points import DigitPoint
from .quality import DEFAULT_WORK_LIMIT, dual_indices
from .walsh import (
    _class_masks,
    _exponent_matrix,
    _walsh_transform,
    kernel_walsh_coeff_vec,
)

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
    arithmetic); coordinates must be exact rationals or digit points.
    """
    coords: list[tuple[Fraction, ...]] = []
    for pt in points:
        if isinstance(pt, DigitPoint):
            coords.append(pt.fractions())
        else:
            coords.append(tuple(Fraction(v) for v in pt))
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


# ---------------------------------------------------------------------------
# Dual-space route
# ---------------------------------------------------------------------------


def dual_walsh_sum_exact(
    spec: KernelSpec,
    ms: GeneratingMatrixSet,
    m: int,
    mu1_cutoff: int,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> Cyclotomic:
    """Exact sum of kernel Walsh coefficients over the truncated dual net.

    Sums khat over all pairs of nonzero dual vectors with weight-1 metric at
    most the cutoff.  In one dimension the sum is aggregated through
    bilinearity: the class counts of all dual indices weight one Walsh
    transform of the cell matrix at resolution cutoff, whose b**(2 cutoff)
    cell pairs are charged against ``work_limit`` (values agree with the
    pairwise route, which remains as the oracle for small cases).
    """
    if m < 1 or m > ms.cols:
        raise UsageError(f"m must lie in [1, {ms.cols}]")
    duals = dual_indices(ms, mu1_cutoff, work_limit)
    base = ms.base
    if not duals:
        return Cyclotomic.zero(base)
    if spec.dims != ms.dims:
        raise UsageError("kernel spec and matrix set dimensions differ")
    if spec.dims == 1:
        if base ** (2 * mu1_cutoff) > work_limit:
            raise ResourceLimitError(
                f"{base ** (2 * mu1_cutoff)} cell pairs at resolution "
                f"{mu1_cutoff} exceed the work limit {work_limit}"
            )
        return _dual_sum_aggregated(
            base, spec.alpha, [d.components[0] for d in duals], mu1_cutoff
        )
    if len(duals) ** 2 > work_limit:
        raise ResourceLimitError(
            f"{len(duals)}**2 dual pairs exceed the work limit {work_limit}"
        )
    acc = Cyclotomic.zero(base)
    for da in duals:
        for db in duals:
            acc = acc + kernel_walsh_coeff_vec(
                base, spec.alpha, da.components, db.components
            )
    return acc


def _dual_sum_aggregated(
    base: int, alpha: int, ks: list[int], cutoff: int
) -> Cyclotomic:
    # sum_{k, l} khat(k, l) is the cell-matrix bilinear form weighted on both
    # sides by the class counts #{k : e_k(t) = e} at resolution cutoff.
    counts = _class_masks(base, _exponent_matrix(base, cutoff)[ks])
    counts = counts.sum(axis=1, keepdims=True)
    return _walsh_transform(base, alpha, cutoff, counts, counts)(0, 0)
