"""Base-b Walsh functions and exact Walsh coefficients of the Sobolev kernel.

A Walsh function is piecewise constant on base-b cells, so integrals of
polynomials against Walsh functions reduce to exact rational sums over
cells, with values in the cyclotomic field Q(w_b).  This module classifies
index pairs by how many leading digit terms must be stripped before the
tails agree, and computes the kernel coefficients

    khat_alpha(k, l) = sum_{r<=alpha} bhat_r(k) * conj(bhat_r(l))
                       + (-1)**(alpha+1) * bhat_per_{2 alpha}(k, l)

exactly.

Production route: ``_cell_matrix`` holds the exact integrals I[tx, ty] of
K_alpha over all b**g x b**g cell pairs, and ``_walsh_transform`` reads
every coefficient from it,

    khat(k, l) = sum_{tx, ty} w**(e_l(ty) - e_k(tx)) * I[tx, ty],

in exact int64 limb arithmetic.  ``iter_kernel_coeffs`` reads every pair
of a scan from one transform; a multivariate coefficient is the product of
one-dimensional ones.

Oracles, kept for the tests: ``bernoulli_walsh_coeff`` and
``_periodic_coeff_reference`` integrate one pair at a time in Fractions,
from the Walsh exponents of ``_char_exponents``; the reference reads the
offset table ``_periodic_offset_integrals`` of Bper_r(x - y) (any degree
r >= 2, equal to B_r(|x - y|) for even r), which the cell matrix shares.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .bernoulli import bernoulli, bernoulli_coeffs
from .cyclotomic import Cyclotomic
from .errors import ResourceLimitError, UsageError
from .gf import digits_of
from .points import _index_digits
from .quality import DEFAULT_WORK_LIMIT, nonzero_digit_terms

# Exact scans grow like b**(2 c1); these caps keep the cyclotomic arithmetic
# tractable and match the scales the verification suite actually exercises.
MAX_SCAN_DIGITS = 5
MAX_SCAN_ALPHA = 3


# ---------------------------------------------------------------------------
# Pair types
# ---------------------------------------------------------------------------


def _strip_depths(tk: tuple, tl: tuple) -> tuple[int, int]:
    """Type (p, q) of an index pair from the nonzero digit terms of both.

    p leading terms of k and q of l are removed so that the remainders
    coincide and the last stripped terms differ; (k, k) has type (0, 0).
    The result is unique and satisfies v - p = w - q for v, w the nonzero
    digit counts.
    """
    shared = 0
    while (
        shared < len(tk)
        and shared < len(tl)
        and tk[len(tk) - 1 - shared] == tl[len(tl) - 1 - shared]
    ):
        shared += 1
    return (len(tk) - shared, len(tl) - shared)


# ---------------------------------------------------------------------------
# Cell geometry shared by the exact integrators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _msb_digit_matrix(base: int, g: int) -> np.ndarray:
    """(b**g, g) array: row t holds the digits of t, most significant first."""
    return _index_digits(base, g)[:, ::-1].astype(np.int64)


def _char_exponents(base: int, g: int, k: int) -> np.ndarray:
    """Walsh exponents of index k on the b**g cells at resolution g.

    Requires k < b**g so every digit of k is covered by the cell digits.
    """
    if k >= base**g:
        raise UsageError(f"index {k} has digits beyond resolution {g}")
    kd = np.array(digits_of(k, base, g), dtype=np.int64)
    return (_msb_digit_matrix(base, g) @ kd) % base


@lru_cache(maxsize=256)
def _exponent_matrix(base: int, g: int) -> np.ndarray:
    """(b**g, b**g) matrix of Walsh exponents e_i(t) for all i, t < b**g."""
    dig = _msb_digit_matrix(base, g)
    # Row i of the reversed matrix lists the digits of i least significant
    # first, which is the order they pair with the cell digits.
    return (dig[:, ::-1] @ dig.T) % base


@lru_cache(maxsize=None)
def _bernoulli_cell_integrals(base: int, r: int, g: int) -> tuple[int, list[int]]:
    """Exact integrals of B_r(x)/r! over the b**g cells, as ints over a denom.

    Returns (den, nums) with integral over cell t equal to nums[t]/den.
    """
    n = base**g
    anti = bernoulli_coeffs(r + 1)
    den_b = math.lcm(*(c.denominator for c in anti))
    # B_{r+1}(t/n) * den_b * n**(r+1) is an integer for every cell boundary.
    scale = den_b * n ** (r + 1)
    bvals = []
    for t in range(n + 1):
        acc = Fraction(0)
        x = Fraction(t, n)
        for c in reversed(anti):
            acc = acc * x + c
        v = acc * scale
        bvals.append(v.numerator if v.denominator == 1 else None)
        assert bvals[-1] is not None
    den = scale * (r + 1) * math.factorial(r)
    nums = [bvals[t + 1] - bvals[t] for t in range(n)]
    return den, nums


def _anti1(r: int, x: Fraction) -> Fraction:
    return bernoulli(r + 1, x) / (r + 1)


def _anti2(r: int, x: Fraction) -> Fraction:
    return bernoulli(r + 2, x) / ((r + 1) * (r + 2))


def _periodic_offset_integrals(base: int, r: int, g: int) -> list[Fraction]:
    """Integrals of the periodic Bernoulli difference Bper_r(x - y) over cell
    pairs at resolution g.

    Entry u is the integral over any cell pair whose offset tx - ty is
    congruent to u modulo b**g; translation invariance modulo one period
    makes the offset class the only parameter.
    """
    if r < 2:
        raise UsageError("offset integrals require degree >= 2")
    n = base**g
    h = Fraction(1, n)
    f2 = [_anti2(r, u * h) for u in range(n + 1)]
    out = [Fraction(0)] * n
    # Offset 0 splits along the diagonal; the wrapped branch contributes the
    # mirrored triangle of B_r evaluated one period up.
    out[0] = (
        f2[1]
        - f2[0]
        - _anti1(r, Fraction(0)) * h
        + _anti1(r, Fraction(1)) * h
        - f2[n]
        + f2[n - 1]
    )
    # Off the diagonal the box integral is a second central difference of
    # the double antiderivative.
    for u in range(1, n):
        out[u] = f2[u + 1] - 2 * f2[u] + f2[u - 1]
    return out


# ---------------------------------------------------------------------------
# The exact cell matrix and its two-dimensional Walsh transform
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _cell_matrix(base: int, alpha: int, g: int) -> tuple[int, np.ndarray]:
    """Exact integrals of K_alpha over every pair of cells at resolution g.

    Returns (den, nums): nums is a symmetric (b**g, b**g) object array of
    ints, and the integral over the cell pair (tx, ty) is nums[tx, ty]/den.
    The matrix is

        sum_{r<=alpha} c_r c_r^T + (-1)**(alpha+1) circ(off) / (2 alpha)!

    with c_r the cell integrals of B_r/r! and off the offset table of the
    periodic part.  Capped at DEFAULT_WORK_LIMIT cell pairs, so no caller
    can ask for a matrix that does not fit in memory.
    """
    n = base**g
    if n * n > DEFAULT_WORK_LIMIT:
        raise ResourceLimitError(
            f"the cell matrix at resolution {g} has {n * n} cell pairs, "
            f"limit is {DEFAULT_WORK_LIMIT}"
        )
    rank_one = [_bernoulli_cell_integrals(base, r, g) for r in range(alpha + 1)]
    r = 2 * alpha
    off = _periodic_offset_integrals(base, r, g)
    off_lcm = math.lcm(*(f.denominator for f in off))
    off_den = off_lcm * math.factorial(r)
    den = math.lcm(off_den, *(d * d for d, _ in rank_one))
    nums = np.zeros((n, n), dtype=object)
    for d, c in rank_one:
        col = np.array(c, dtype=object)
        nums += np.outer(col * (den // (d * d)), col)
    sign = 1 if alpha % 2 else -1
    off_nums = np.array([int(f * off_lcm) for f in off], dtype=object)
    t = np.arange(n)
    nums += off_nums[(t[:, None] - t[None, :]) % n] * (sign * (den // off_den))
    return den, nums


@lru_cache(maxsize=16)
def _cell_limbs(base: int, alpha: int, g: int, width: int) -> tuple[int, np.ndarray]:
    """The cell matrix as signed int64 limbs of ``width`` bits.

    Returns (den, limbs) with nums == sum_j limbs[j] * 2**(width*j) entrywise;
    every limb lies strictly inside (-2**width, 2**width).
    """
    den, nums = _cell_matrix(base, alpha, g)
    mag = np.abs(nums)
    nlimbs = max(1, -(-int(mag.max()).bit_length() // width))
    mask = (1 << width) - 1
    sign = np.where((nums < 0).astype(bool), -1, 1)
    limbs = np.stack(
        [((mag >> (width * j)) & mask).astype(np.int64) * sign for j in range(nlimbs)]
    )
    return den, limbs


def _class_masks(base: int, exps: np.ndarray) -> np.ndarray:
    """(b, K, n) 0/1 weights: [a, i, t] is 1 when exps[i, t] == a."""
    return np.stack([exps == a for a in range(base)]).astype(np.int64)


def _walsh_transform(
    base: int, alpha: int, g: int, rows: np.ndarray, cols: np.ndarray
) -> Callable[[int, int], Cyclotomic]:
    """Exact two-dimensional Walsh transform of the cell matrix I at resolution g.

    ``rows[a][i, tx]`` and ``cols[c][j, ty]`` are nonnegative integer weights
    of the root classes a and c.  Returns value(i, j), the cyclotomic number

        sum_{a, c} w**(c - a) * (rows[a] . I . cols[c]^T)[i, j].

    With the class masks of Walsh exponents e_k and e_l on the two sides this
    is khat(k, l) = sum_{tx, ty} w**(e_l(ty) - e_k(tx)) I[tx, ty].  Each int64
    sum has at most (largest row weight total) * (largest column weight
    total) limb terms, and the limb width keeps that sum below 2**63.
    """
    bound = int(rows.sum(axis=(0, 2)).max()) * int(cols.sum(axis=(0, 2)).max())
    width = 63 - bound.bit_length()
    if width < 1:
        raise ResourceLimitError(
            f"class weights totalling {bound} overflow int64 accumulation"
        )
    den, limbs = _cell_limbs(base, alpha, g, width)
    acc = np.zeros((len(limbs), base, rows.shape[1], cols.shape[1]), dtype=np.int64)
    for j, limb in enumerate(limbs):
        left = [m @ limb for m in rows]
        for a in range(base):
            for c in range(base):
                acc[j, (c - a) % base] += left[a] @ cols[c].T
    total = acc[0].astype(object)
    for j in range(1, len(limbs)):
        total = total + acc[j].astype(object) * (1 << (width * j))
    sums = total.tolist()

    def value(i: int, j: int) -> Cyclotomic:
        # Reduce modulo 1 + w + ... + w**(b-1) = 0 on the integer numerators.
        last = sums[base - 1][i][j]
        return Cyclotomic(
            base, [Fraction(sums[e][i][j] - last, den) for e in range(base - 1)]
        )

    return value


# ---------------------------------------------------------------------------
# Per-pair oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli_walsh_coeff(base: int, r: int, k: int) -> Cyclotomic:
    """bhat_r(k): the k-th Walsh coefficient of B_r(x)/r!, exact.

    wal_k is constant on the cells at resolution c1(k), so the integral is a
    finite sum of polynomial cell integrals with root-of-unity weights.
    """
    if r < 0 or k < 0:
        raise UsageError("degree and index must be nonnegative")
    g = len(digits_of(k, base))
    den, nums = _bernoulli_cell_integrals(base, r, g)
    evec = _char_exponents(base, g, k)
    class_sums = [0] * base
    for t, num in enumerate(nums):
        class_sums[int(evec[t])] += num
    acc = Cyclotomic.zero(base)
    for e, s in enumerate(class_sums):
        if s:
            acc = acc + Cyclotomic.root(base, -e) * Fraction(s, den)
    return acc


def _periodic_coeff_reference(base: int, r: int, k: int, l: int) -> Cyclotomic:
    """Walsh coefficient of Bper_r(x - y)/r! by direct cell-pair summation.

    Exhaustive over all b**(2g) cell pairs, each read from the offset table,
    in exact Fractions; the per-pair oracle for the periodic part.
    """
    g = max(len(digits_of(k, base)), len(digits_of(l, base)))
    n = base**g
    offsets = _periodic_offset_integrals(base, r, g)
    ek = _char_exponents(base, g, k)
    el = _char_exponents(base, g, l)
    class_sums = [Fraction(0)] * base
    for tx in range(n):
        for ty in range(n):
            class_sums[(int(el[ty]) - int(ek[tx])) % base] += offsets[(tx - ty) % n]
    rfact = math.factorial(r)
    acc = Cyclotomic.zero(base)
    for e, s in enumerate(class_sums):
        if s:
            acc = acc + Cyclotomic.root(base, e) * (s / rfact)
    return acc


# ---------------------------------------------------------------------------
# Kernel coefficients
# ---------------------------------------------------------------------------


def iter_kernel_coeffs(
    base: int, alpha: int, max_index: int
) -> Iterator[tuple[int, int, tuple[int, int], Cyclotomic]]:
    """Exact kernel coefficients for all ordered pairs k, l < max_index.

    Yields (k, l, (p, q), value) in row-major (k, l) order, with (p, q) the
    pair type (:func:`_strip_depths`) and every value read from one Walsh
    transform of the cell matrix at resolution c1(max_index - 1).  Capped
    at max_index <= b**5 and alpha <= 3, where exact arithmetic stays
    tractable.
    """
    if alpha < 1 or alpha > MAX_SCAN_ALPHA:
        raise UsageError(f"alpha must lie in [1, {MAX_SCAN_ALPHA}] for scans")
    if max_index < 1 or max_index > base**MAX_SCAN_DIGITS:
        raise UsageError(
            f"max_index must lie in [1, b**{MAX_SCAN_DIGITS}] for exact scans"
        )
    g = len(digits_of(max_index - 1, base))
    masks = _class_masks(base, _exponent_matrix(base, g)[:max_index])
    khat = _walsh_transform(base, alpha, g, masks, masks)
    terms = [nonzero_digit_terms(k, base) for k in range(max_index)]
    for k in range(max_index):
        for l in range(max_index):
            yield (k, l, _strip_depths(terms[k], terms[l]), khat(k, l))
