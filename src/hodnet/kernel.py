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
and binary64 on floats; only the oracle and the tests evaluate it.  Two
production paths, chosen by dimension alone, and one oracle compute the
double sum:

* s <= 2: ``wce_squared_sorted`` sums exactly over the integer numerators
  of the points in O(N log N) big-integer operations.  Since
  B_n(-t) = B_n(t) + n t**(n-1) for even n, K_alpha(x, y) equals the
  polynomial k+(x, y), its value for x >= y, plus
  [x < y] (-1)**(alpha+1) (x - y)**(2 alpha - 1) / (2 alpha - 1)!.  The
  k+ part sums through point moments; the [x < y] parts through suffix
  sums after a sort (one coordinate) and level-wise dominance merges
  (both coordinates).  ``sqrt_rounded`` prints e correctly rounded.
* s >= 3: ``wce`` evaluates K_alpha in vectorized binary64 on the (n, dims)
  float array that ``points.net_values`` returns, with deterministic
  blockwise compensated summation.
* ``wce_squared_exact`` sums ``kernel_1d`` exactly over every pair of the
  Fraction coordinates of ``points.net_points``: the quadratic oracle.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bernoulli import bernoulli, bernoulli_coeffs, bernoulli_float_coeffs
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


@lru_cache(maxsize=None)
def _plus_coeffs(alpha: int) -> tuple[tuple[Fraction, ...], ...]:
    """W with k+(x, y) = sum W[a][c] x**a y**c, the kernel's value for x >= y.

    W[a][c] = 0 for a + c > 2 alpha.
    """
    g = 2 * alpha
    w = [[Fraction(0)] * (g + 1) for _ in range(g + 1)]
    for r in range(alpha + 1):
        br = bernoulli_coeffs(r)
        for a, ca in enumerate(br):
            for c, cc in enumerate(br):
                w[a][c] += ca * cc / math.factorial(r) ** 2
    sign = 1 if alpha % 2 else -1
    for n, q in enumerate(bernoulli_coeffs(g)):
        # (x - y)**n = sum_a C(n, a) x**a (-y)**(n - a)
        for a in range(n + 1):
            w[a][n - a] += (
                sign * (-1) ** (n - a) * math.comb(n, a) * q / math.factorial(g)
            )
    return tuple(map(tuple, w))


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """(N, n + 1) object array whose column p holds x**p."""
    out = np.empty((x.size, n + 1), dtype=object)
    out[:, 0] = 1
    for p in range(1, n + 1):
        out[:, p] = out[:, p - 1] * x
    return out


def _outer_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i is the flattened outer product of a[i] and b[i]."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


def _ranks(x: np.ndarray) -> np.ndarray:
    """Position of each entry in one sorted order of x (ties broken by index)."""
    ranks = np.empty(x.size, dtype=np.int64)
    ranks[np.argsort(x, kind="stable")] = np.arange(x.size)
    return ranks


def _ordered_sum(u: np.ndarray, left: np.ndarray, right: np.ndarray) -> int:
    """Sum of left[i] . right[j] over the pairs with i no later than j in a
    sorted order of u: suffix sums of ``right`` read at each i."""
    order = np.argsort(u, kind="stable")
    suffix = np.cumsum(right[order][::-1], axis=0)[::-1]
    return int((left[order] * suffix).sum())


def _dominance_sum(
    u: np.ndarray, v: np.ndarray, left: np.ndarray, right: np.ndarray
) -> int:
    """Sum of left[i] . right[j] over the pairs with i before j in a sorted
    order of u and in a sorted order of v.

    Each pair is counted at the one level where the u-ranks of i and j first
    fall in sibling blocks of 2**level ranks.  Per level, one sort by (block
    pair, v-rank) and one cumulative sum of the left block's rows give, at
    each right-block point, the sum over the left-block points before it.
    """
    ru, rv = _ranks(u), _ranks(v)
    total = 0
    for level in range((u.size - 1).bit_length()):
        block = ru >> level
        pair = block >> 1
        order = np.lexsort((rv, pair))
        is_right = (block[order] & 1).astype(bool)
        lefts, rights = order[~is_right], order[is_right]
        acc = np.zeros((lefts.size + 1, left.shape[1]), dtype=object)
        acc[1:] = np.cumsum(left[lefts], axis=0)
        # Left points before each right point: all of the earlier (full)
        # block pairs, 2**level each, then those of its own pair.
        before = np.cumsum(~is_right)[is_right]
        start = pair[rights] << level
        total += int((right[rights] * (acc[before] - acc[start])).sum())
    return total


def wce_squared_sorted(spec: KernelSpec, nums, den: int) -> Fraction:
    """Exact squared worst-case error for s <= 2 in O(N log N).

    ``nums`` is the (N, dims) array of integer numerators over ``den`` that
    ``points._digits_to_int`` returns.  With X = den * x, the kernel is

        (sum_{a,c} P[a][c] X**a Y**c + [X < Y] J (X - Y)**n) / Q,

    n = 2 alpha - 1, with integers P, J and Q.  Tied and equal coordinates
    need no care: (X - Y)**n vanishes there, and so does every binomially
    expanded pair term below.
    """
    xs = np.asarray(nums).astype(object)
    if xs.ndim != 2 or xs.shape[1] != spec.dims:
        raise UsageError(
            f"numerators must form an (N, {spec.dims}) array, got shape {xs.shape}"
        )
    if spec.dims > 2:
        raise UsageError("the sorted exact path covers dims <= 2")
    if xs.shape[0] < 1:
        raise UsageError("the point set must be nonempty")
    g, n = 2 * spec.alpha, 2 * spec.alpha - 1
    w = _plus_coeffs(spec.alpha)
    scale = math.lcm(math.factorial(n), *(v.denominator for row in w for v in row))
    p = np.array(
        [
            [int(w[a][c] * scale) * den ** (g - a - c) if a + c <= g else 0
             for c in range(g + 1)]
            for a in range(g + 1)
        ],
        dtype=object,
    )
    jump = (1 if spec.alpha % 2 else -1) * scale // math.factorial(n) * den
    q = scale * den**g
    binom = np.array(
        [(-1) ** (n - k) * math.comb(n, k) for k in range(n + 1)], dtype=object
    )
    cols = [xs[:, j] for j in range(spec.dims)]
    pows = [_powers(x, g) for x in cols]
    # (X_i - X_j)**n = sum_k binom[k] X_i**k X_j**(n - k)
    lo = [u[:, : n + 1] * binom for u in pows]
    hi = [u[:, n::-1] for u in pows]
    if spec.dims == 1:
        (x,), (u,) = cols, pows
        moments = u.sum(axis=0)
        total = moments @ p @ moments + jump * _ordered_sum(x, lo[0], hi[0])
    else:
        m = pows[0].T @ pows[1]
        total = int((p.T @ m @ p * m).sum())
        for d, k in ((0, 1), (1, 0)):
            # [x_d < y_d] term of coordinate d times k+ of the other one.
            total += jump * _ordered_sum(
                cols[d],
                _outer_rows(lo[d], pows[k]),
                _outer_rows(hi[d], pows[k] @ p.T),
            )
        total += jump * jump * _dominance_sum(
            cols[0], cols[1], _outer_rows(lo[0], lo[1]), _outer_rows(hi[0], hi[1])
        )
    return Fraction(int(total), q**spec.dims * xs.shape[0] ** 2) - 1


def sqrt_rounded(value: Fraction) -> float:
    """The square root of a nonnegative rational, correctly rounded to binary64.

    The integer root of value * 4**k carries at least 55 bits; its last bit
    is made sticky (set when the root is inexact), so the one rounding in
    float() rounds the true root.
    """
    if value < 0:
        raise NumericalConsistencyError(f"squared worst-case error {value} is negative")
    num, den = value.numerator, value.denominator
    if num == 0:
        return 0.0
    k = max(0, (111 - num.bit_length() + den.bit_length()) // 2)
    scaled = num << 2 * k
    root = math.isqrt(scaled // den)
    root |= root * root * den != scaled
    return math.ldexp(float(root), -k)
