"""Base-b Walsh functions and exact Walsh coefficients of the Sobolev kernel.

A Walsh function is piecewise constant on base-b cells, so integrals of
polynomials against Walsh functions reduce to exact rational sums over
cells, with values in the cyclotomic field Q(w_b).  This module evaluates
Walsh functions, classifies index pairs by how many leading digit terms
must be stripped before the tails agree, computes the kernel coefficients

    khat_alpha(k, l) = sum_{r<=alpha} bhat_r(k) * conj(bhat_r(l))
                       + (-1)**(alpha+1) * bhat_per_{2 alpha}(k, l)

exactly, and verifies the combinatorial pair-count formulas by brute force.

Two independent integration routes exist for the periodic-part coefficient:
the production route accumulates the inner integral cell by cell with a
single polynomial recurrence (cost linear in the cell count), while the
oracle ``_periodic_coeff_reference`` integrates the periodic difference
Bper_r(x - y)/r! over every cell pair from the offset table
``_periodic_offset_integrals`` (cost quadratic; any degree r >= 2, and equal
to B_r(|x - y|)/r! for even r).  Both are exact.  The same offset table
drives the aggregated one-dimensional dual sum in ``kernel``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Iterator

import numpy as np

from .bernoulli import bernoulli, bernoulli_coeffs
from .cyclotomic import Cyclotomic
from .errors import UsageError
from .gf import digits_of
from .quality import dick_weight, nonzero_digit_terms

_LIMB_BITS = 40

# Exact scans grow like b**(2 c1); these caps keep the cyclotomic arithmetic
# tractable and match the scales the verification suite actually exercises.
MAX_SCAN_DIGITS = 5
MAX_SCAN_ALPHA = 3


# ---------------------------------------------------------------------------
# Walsh function evaluation and pair types
# ---------------------------------------------------------------------------


def walsh_exponent(base: int, k: int, coord_digits) -> int:
    """Exponent e with wal_k(x) = w**e for x given by its digit vector.

    ``coord_digits`` lists the digits of x most significant first; digits
    beyond the vector are zero, so any finite-precision point works.
    """
    if k < 0:
        raise UsageError("Walsh index must be nonnegative")
    kd = digits_of(k, base)
    e = 0
    for i, kappa in enumerate(kd):
        if i < len(coord_digits) and kappa:
            e += kappa * coord_digits[i]
    return e % base


def walsh_point_exponent(base: int, ks, point) -> int:
    """Multivariate Walsh exponent: the per-coordinate exponents summed mod b."""
    if len(ks) != point.dims:
        raise UsageError("index vector and point dimension mismatch")
    return sum(
        walsh_exponent(base, k, point.digits[j]) for j, k in enumerate(ks)
    ) % base


def pair_type(base: int, k: int, l: int) -> tuple[int, int]:
    """Type (p, q) of an index pair: strip depths until the digit tails agree.

    p leading terms of k and q of l are removed so that the remainders
    coincide and the last stripped terms differ; (k, k) has type (0, 0).
    The result is unique and satisfies v - p = w - q for v, w the nonzero
    digit counts.
    """
    if k == l:
        return (0, 0)
    tk = nonzero_digit_terms(k, base)
    tl = nonzero_digit_terms(l, base)
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
    n = base**g
    out = np.zeros((n, max(g, 1)), dtype=np.int64)
    t = np.arange(n, dtype=np.int64)
    for i in range(g):
        out[:, i] = (t // base ** (g - 1 - i)) % base
    return out[:, :g] if g else out[:, :0]


def _char_exponents(base: int, g: int, k: int) -> np.ndarray:
    """Walsh exponents of index k on the b**g cells at resolution g.

    Requires k < b**g so every digit of k is covered by the cell digits.
    """
    if k >= base**g:
        raise UsageError(f"index {k} has digits beyond resolution {g}")
    if g == 0:
        return np.zeros(1, dtype=np.int64)
    kd = np.array(digits_of(k, base, g), dtype=np.int64)
    return (_msb_digit_matrix(base, g) @ kd) % base


@lru_cache(maxsize=256)
def _exponent_matrix(base: int, g: int) -> np.ndarray:
    """(b**g, b**g) matrix of Walsh exponents e_i(t) for all i, t < b**g."""
    n = base**g
    if g == 0:
        return np.zeros((1, 1), dtype=np.int64)
    dig = _msb_digit_matrix(base, g)
    kd = np.zeros((n, g), dtype=np.int64)
    i = np.arange(n, dtype=np.int64)
    for d in range(g):
        kd[:, d] = (i // base**d) % base
    return (kd @ dig.T) % base


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


# ---------------------------------------------------------------------------
# Periodic-part coefficients
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _shifted_bernoulli_table(base: int, deg: int, g: int) -> tuple[int, list[list[int]]]:
    """Integer coefficient vectors of B_deg(delta*h + h*u) in u, all deltas.

    h = b**-g and u ranges over [0, 1).  Returns (den_p, table) where
    table[delta][j] / den_p is the u**j coefficient.
    """
    n = base**g
    beta = bernoulli_coeffs(deg)
    den_b = math.lcm(*(c.denominator for c in beta))
    den_p = den_b * n**deg
    ibeta = [int(c * den_b) for c in beta]
    table = []
    for delta in range(n):
        coeffs = [0] * (deg + 1)
        for j in range(deg + 1):
            acc = 0
            for i in range(j, deg + 1):
                acc += ibeta[i] * math.comb(i, j) * delta ** (i - j) * n ** (deg - i)
            coeffs[j] = acc
        table.append(coeffs)
    return den_p, table


@lru_cache(maxsize=32)
def _pascal_rows(size: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(math.comb(i, j) for i in range(size)) for j in range(size)
    )


@lru_cache(maxsize=512)
def _phi_cell_integrals(base: int, r: int, l: int) -> tuple[int, int, tuple]:
    """Cell integrals of phi(x) = integral of Bper_r(x - y) wal_l(y) dy.

    Requires even r >= 2 (Bper_r is the periodic extension of B_r; for even
    degree it equals B_r(|x - y|)).  Returns (g, den, nums) with cells at
    resolution g = c1(l) and

        integral of phi over cell t = sum_e w**e * nums[e][t] / den.

    Integrating the y-variable first leaves, on every x-cell, one polynomial
    that a single shift-and-correct recurrence carries from cell to cell, so
    the build costs O(b**g) exact integer operations instead of O(b**(2g)).
    """
    if r < 2 or r % 2:
        raise UsageError("the periodic cell table requires even degree >= 2")
    g = len(digits_of(l, base))
    n = base**g
    den_p, shift_tab = _shifted_bernoulli_table(base, r + 1, g)
    evec = _char_exponents(base, g, l)
    # Per root-of-unity class: indicator jumps between consecutive y-cells.
    dchi = [[0] * n for _ in range(base)]
    for tau in range(n):
        e_here = int(evec[tau])
        e_prev = int(evec[(tau - 1) % n])
        if e_here != e_prev:
            dchi[e_here][tau] += 1
            dchi[e_prev][tau] -= 1
    size = r + 2
    pascal = _pascal_rows(size)
    polys = [[0] * size for _ in range(base)]
    for e in range(base):
        col = dchi[e]
        for tau in range(n):
            c = col[tau]
            if c:
                row = shift_tab[(n - tau) % n]
                pe = polys[e]
                for j in range(size):
                    pe[j] += c * row[j]
    # Normalized-variable correction weight: (r+1) * h**r over den_p.
    corr = (r + 1) * (den_p // n**r)
    lcm_j = math.lcm(*range(1, size + 1))
    den = den_p * n * (r + 1) * lcm_j
    mults = [lcm_j // (j + 1) for j in range(size)]
    nums = [[0] * n for _ in range(base)]
    for t in range(n):
        if t:
            for e in range(base):
                pe = polys[e]
                shifted = [
                    sum(pascal[j][i] * pe[i] for i in range(j, size))
                    for j in range(size)
                ]
                c = dchi[e][t]
                if c:
                    shifted[r] -= c * corr
                polys[e] = shifted
        for e in range(base):
            pe = polys[e]
            nums[e][t] = sum(pe[j] * mults[j] for j in range(size))
    return g, den, tuple(tuple(row) for row in nums)


def _periodic_coeff_reference(base: int, r: int, k: int, l: int) -> Cyclotomic:
    """Walsh coefficient of Bper_r(x - y)/r! by direct cell-pair summation.

    Exhaustive over all b**(2g) cell pairs, each read from the offset table;
    quadratic cost, used as the oracle for the fast route.
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


def periodic_bernoulli_walsh_coeff(base: int, r: int, k: int, l: int) -> Cyclotomic:
    """bhat_per_r(k, l): Walsh coefficient of B_r(|x-y|)/r! in two variables.

    Even degrees only (the kernel needs degree 2 alpha); runs through the
    linear-cost cell accumulation, orienting the finer index as the inner
    integral via conjugate symmetry of the |x-y| kernel.
    """
    if r < 2 or r % 2:
        raise UsageError("the periodic coefficient requires even degree >= 2")
    if k < 0 or l < 0:
        raise UsageError("indices must be nonnegative")
    gk = len(digits_of(k, base))
    gl = len(digits_of(l, base))
    if gk > gl:
        return periodic_bernoulli_walsh_coeff(base, r, l, k).conjugate()
    g, den, nums = _phi_cell_integrals(base, r, l)
    n = base**g
    evec = _char_exponents(base, g, k)
    sums = [[0] * base for _ in range(base)]
    for t in range(n):
        ep = int(evec[t])
        row = sums[ep]
        for e in range(base):
            row[e] += nums[e][t]
    rden = den * math.factorial(r)
    acc = Cyclotomic.zero(base)
    for ep in range(base):
        for e in range(base):
            s = sums[ep][e]
            if s:
                acc = acc + Cyclotomic.root(base, e - ep) * Fraction(s, rden)
    return acc


def kernel_walsh_coeff(base: int, alpha: int, k: int, l: int) -> Cyclotomic:
    """Exact Walsh coefficient of the one-dimensional smoothness-alpha kernel."""
    if alpha < 1:
        raise UsageError("alpha must be positive")
    acc = Cyclotomic.zero(base)
    for r in range(alpha + 1):
        acc = acc + bernoulli_walsh_coeff(base, r, k) * bernoulli_walsh_coeff(
            base, r, l
        ).conjugate()
    per = periodic_bernoulli_walsh_coeff(base, 2 * alpha, k, l)
    return acc + per if alpha % 2 else acc - per


def kernel_walsh_coeff_vec(base: int, alpha: int, ks, ls) -> Cyclotomic:
    """Multivariate kernel coefficient: the coordinatewise product."""
    if len(ks) != len(ls):
        raise UsageError("index vectors must share one length")
    return reduce(
        lambda acc, pair: acc * kernel_walsh_coeff(base, alpha, pair[0], pair[1]),
        zip(ks, ls),
        Cyclotomic.one(base),
    )


# ---------------------------------------------------------------------------
# Batch scans
# ---------------------------------------------------------------------------


def _limb_matrix(values) -> tuple[np.ndarray, int]:
    maxmag = max((abs(v) for v in values), default=0)
    nlimbs = max(1, (maxmag.bit_length() + _LIMB_BITS - 1) // _LIMB_BITS)
    out = np.zeros((len(values), nlimbs), dtype=np.int64)
    mask = (1 << _LIMB_BITS) - 1
    for idx, v in enumerate(values):
        mag, sgn = (v, 1) if v >= 0 else (-v, -1)
        for lam in range(nlimbs):
            out[idx, lam] = sgn * (mag & mask)
            mag >>= _LIMB_BITS
    return out, nlimbs


def _recombine(row: np.ndarray) -> int:
    acc = 0
    for lam in range(row.shape[0] - 1, -1, -1):
        acc = (acc << _LIMB_BITS) + int(row[lam])
    return acc


def iter_kernel_coeffs(
    base: int,
    alpha: int,
    max_index: int,
    pair_filter: Callable[[int, int, int, int], bool] | None = None,
) -> Iterator[tuple[int, int, tuple[int, int], Cyclotomic]]:
    """Exact kernel coefficients for all ordered pairs k, l < max_index.

    Yields (k, l, (p, q), value) grouped by the finer index (no global
    order).  ``pair_filter(k, l, p, q)`` may skip the value assembly for
    pairs the caller does not need; classification still happens for every
    pair.  Capped at max_index <= b**5 and alpha <= 3, where exact
    arithmetic stays tractable.
    """
    if alpha < 1 or alpha > MAX_SCAN_ALPHA:
        raise UsageError(f"alpha must lie in [1, {MAX_SCAN_ALPHA}] for scans")
    if max_index < 1 or max_index > base**MAX_SCAN_DIGITS:
        raise UsageError(
            f"max_index must lie in [1, b**{MAX_SCAN_DIGITS}] for exact scans"
        )
    r = 2 * alpha
    rfact = math.factorial(r)
    positive_sign = bool(alpha % 2)
    bhat = [
        [bernoulli_walsh_coeff(base, rr, i) for i in range(max_index)]
        for rr in range(alpha + 1)
    ]
    conj_bhat = [[v.conjugate() for v in row] for row in bhat]
    ndig = [len(digits_of(i, base)) for i in range(max_index)]

    def assemble(i: int, j: int, per: Cyclotomic) -> Cyclotomic:
        acc = Cyclotomic.zero(base)
        for rr in range(alpha + 1):
            acc = acc + bhat[rr][i] * conj_bhat[rr][j]
        return acc + per if positive_sign else acc - per

    for j in range(max_index):
        g = ndig[j]
        n = base**g
        npart = min(n, max_index)
        _, den, nums = _phi_cell_integrals(base, r, j)
        rden = den * rfact
        emat = _exponent_matrix(base, g)[:npart]
        masks = [(emat == e).astype(np.int64) for e in range(base)]
        # Bucket the integer cell integrals by the partner's root class.
        bucket: list[list[np.ndarray]] = []
        nlimbs: list[int] = []
        for e in range(base):
            limbs, nl = _limb_matrix(nums[e])
            nlimbs.append(nl)
            bucket.append([m @ limbs for m in masks])
        for i in range(npart):
            p, q = pair_type(base, i, j)
            want_fwd = pair_filter is None or pair_filter(i, j, p, q)
            want_bwd = ndig[i] < g and (
                pair_filter is None or pair_filter(j, i, q, p)
            )
            if not (want_fwd or want_bwd):
                continue
            per = Cyclotomic.zero(base)
            for ep in range(base):
                for e in range(base):
                    s = _recombine(bucket[e][ep][i])
                    if s:
                        per = per + Cyclotomic.root(base, e - ep) * Fraction(
                            s, rden
                        )
            value = assemble(i, j, per)
            if want_fwd:
                yield (i, j, (p, q), value)
            if want_bwd:
                yield (j, i, (q, p), value.conjugate())


def sparsity_violations(
    base: int, alpha: int, max_index: int
) -> list[tuple[int, int]]:
    """Pairs with type budget p + q > 2*alpha whose coefficient is not 0.

    An empty list confirms the sparsity property exhaustively below
    ``max_index``.
    """
    budget = 2 * alpha
    out = []
    for k, l, (p, q), value in iter_kernel_coeffs(
        base, alpha, max_index, pair_filter=lambda k, l, p, q: p + q > budget
    ):
        if not value.is_zero():
            out.append((k, l))
    return out


def decay_ratio_sup(base: int, alpha: int, max_index: int) -> float:
    """Empirical sup of |khat(k, l)| * b**(mu_alpha(k) + mu_alpha(l)).

    The bound constant is never published, so the sup is reported, not
    asserted against a reference value.
    """
    sup = 0.0
    for k, l, _, value in iter_kernel_coeffs(base, alpha, max_index):
        mag = abs(value.to_complex())
        if mag:
            weight = dick_weight(base, alpha, k) + dick_weight(base, alpha, l)
            sup = max(sup, mag * float(base) ** weight)
    return sup


# ---------------------------------------------------------------------------
# Pair-count combinatorics
# ---------------------------------------------------------------------------

_SUPPORTED_TYPES = {(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)}


def _weight_shell(base: int, z: int) -> range:
    """Integers whose weight-1 metric is exactly z (the leading digit shell)."""
    if z == 0:
        return range(0, 1)
    return range(base ** (z - 1), base**z)


def _ceil_pow_weight(b: int, z: int) -> int:
    # ceil(b**(z-1) * (b-1)); the ceiling only bites at z = 0 where it is 1.
    return 1 if z == 0 else b ** (z - 1) * (b - 1)


def _ceil_pow(b: int, z: int) -> int:
    # ceil(b**(z-1)); again 1 at the z = 0 edge.
    return 1 if z == 0 else b ** (z - 1)


def count_type_pairs(
    base: int, p: int, q: int, z1: int, z2: int, mode: str = "bruteforce"
) -> int:
    """Number of pairs (k, l) of type (p, q) with weight-1 metrics (z1, z2).

    ``bruteforce`` enumerates the shells; ``formula`` evaluates the closed
    forms for the supported types.  The ceiling in the closed forms only
    matters at the z = 0 edge; (1, 1) additionally needs explicit zero
    guards there because both indices must be nonzero (brute force is the
    ground truth on any discrepancy).
    """
    if z1 < 0 or z2 < 0:
        raise UsageError("shell weights must be nonnegative")
    if mode == "bruteforce":
        count = 0
        for k in _weight_shell(base, z1):
            for l in _weight_shell(base, z2):
                if pair_type(base, k, l) == (p, q):
                    count += 1
        return count
    if mode != "formula":
        raise UsageError(f"unknown mode {mode!r}")
    if (p, q) not in _SUPPORTED_TYPES:
        raise UsageError(f"no closed form for type ({p}, {q})")
    b = base
    if (p, q) == (0, 0):
        return _ceil_pow_weight(b, z1) if z1 == z2 else 0
    if (p, q) == (1, 0):
        if z1 <= z2:
            return 0
        return _ceil_pow_weight(b, z2) * (b - 1)
    if (p, q) == (0, 1):
        return count_type_pairs(base, 1, 0, z2, z1, "formula")
    if (p, q) == (2, 0):
        if z1 <= z2 + 1:
            return 0
        return _ceil_pow_weight(b, z2) * (b - 1) ** 2 * (z1 - z2 - 1)
    if (p, q) == (0, 2):
        return count_type_pairs(base, 2, 0, z2, z1, "formula")
    # (1, 1): both indices carry a leading term, so both shells are nonzero.
    if z1 == 0 or z2 == 0:
        return 0
    head = _ceil_pow(b, min(z1, z2))
    if z1 == z2:
        return head * (b - 1) * (b - 2)
    return head * (b - 1) ** 2
