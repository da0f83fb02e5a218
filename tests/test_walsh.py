"""Walsh functions, pair types, exact kernel coefficients."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotomic_helpers import conjugate
from hodnet.cyclotomic import Cyclotomic
from hodnet.errors import ResourceLimitError, UsageError
from hodnet.gf import digits_of
from hodnet.quality import dick_weight, nonzero_digit_terms
from hodnet.walsh import (
    _cell_matrix,
    _char_exponents,
    _class_masks,
    _exponent_matrix,
    _periodic_coeff_reference,
    _strip_depths,
    _walsh_transform,
    bernoulli_walsh_coeff,
    iter_kernel_coeffs,
)


def pair_type(b, k, l):
    """Type of (k, l) from scratch, by the production suffix matcher."""
    return _strip_depths(nonzero_digit_terms(k, b), nonzero_digit_terms(l, b))


def _khat(b, alpha, k, l):
    """One kernel coefficient: the production transform of the cell matrix,
    1x1, at resolution max(c1(k), c1(l)), where both Walsh functions are
    constant on every cell."""
    g = max(len(digits_of(k, b)), len(digits_of(l, b)))
    rows = _class_masks(b, _char_exponents(b, g, k)[None, :])
    cols = _class_masks(b, _char_exponents(b, g, l)[None, :])
    return _walsh_transform(b, alpha, g, rows, cols)(0, 0)


def test_walsh_exponent_examples():
    # e with wal_k(x) = w**e on the cell of x at resolution g; cell t has the
    # digits of x, most significant first.
    assert _char_exponents(2, 3, 0)[0b101] == 0
    assert _char_exponents(2, 1, 1)[1] == 1  # x = 1/2, value -1
    assert _char_exponents(3, 2, 2)[3] == 2  # x = 0.10 in base 3
    # A multivariate exponent is the coordinate sum mod b: at (1/2, 1/2),
    # k = (1, 1) gives 1 + 1 = 0 and k = (1, 0) gives 1 + 0 = 1.
    assert [_char_exponents(2, 1, k)[1] for k in (1, 0)] == [1, 0]


def test_pair_type_examples():
    for k in (0, 1, 5, 12):
        assert pair_type(2, k, k) == (0, 0)
    assert pair_type(2, 5, 1) == (1, 0)
    assert pair_type(2, 1, 5) == (0, 1)
    assert pair_type(2, 5, 6) == (2, 2)
    assert pair_type(2, 85, 1) == (3, 0)


def _naive_pair_type(b, k, l):
    """Literal search over all strip depths; the suffix matcher's oracle."""
    if k == l:
        return (0, 0)
    tk = nonzero_digit_terms(k, b)
    tl = nonzero_digit_terms(l, b)

    def term_value(terms, idx):
        if idx == 0:
            return 0
        dig, pos = terms[idx - 1]
        return dig * b ** (pos - 1)

    def tail(terms, strip):
        return sum(d * b ** (c - 1) for d, c in terms[strip:])

    matches = [
        (p, q)
        for p in range(len(tk) + 1)
        for q in range(len(tl) + 1)
        if tail(tk, p) == tail(tl, q) and term_value(tk, p) != term_value(tl, q)
    ]
    assert len(matches) == 1, (k, l, matches)
    return matches[0]


@pytest.mark.parametrize("b", [2, 3])
def test_pair_type_against_naive(b):
    for k in range(b**4):
        for l in range(b**4):
            got = pair_type(b, k, l)
            assert got == _naive_pair_type(b, k, l)
            p, q = got
            v = len(nonzero_digit_terms(k, b))
            w = len(nonzero_digit_terms(l, b))
            assert v - p == w - q
            assert pair_type(b, l, k) == (q, p)


def test_bernoulli_walsh_examples():
    one = Cyclotomic.root(2, 0)
    assert bernoulli_walsh_coeff(2, 0, 0) == one
    for k in range(1, 16):
        assert bernoulli_walsh_coeff(2, 0, k).is_zero()
    assert bernoulli_walsh_coeff(2, 1, 1) == Cyclotomic(2, [Fraction(-1, 4)])
    for r in (1, 2, 3):
        assert bernoulli_walsh_coeff(2, r, 0).is_zero()
        assert bernoulli_walsh_coeff(3, r, 0).is_zero()


def test_periodic_coeff_zero_at_origin():
    assert _periodic_coeff_reference(2, 2, 0, 0).is_zero()
    assert _periodic_coeff_reference(3, 4, 0, 0).is_zero()


def _per_pair_oracle(b, alpha, k, l):
    """khat(k, l) from the per-pair oracles: the Bernoulli products plus the
    signed periodic coefficient summed cell pair by cell pair in Fractions."""
    acc = Cyclotomic.zero(b)
    for r in range(alpha + 1):
        acc = acc + bernoulli_walsh_coeff(b, r, k) * conjugate(
            bernoulli_walsh_coeff(b, r, l)
        )
    per = _periodic_coeff_reference(b, 2 * alpha, k, l)
    return acc + per if alpha % 2 else acc + per * -1


@pytest.mark.parametrize("b", [2, 3])
@pytest.mark.parametrize("r", [2, 4])
def test_periodic_production_equals_reference(b, r):
    # The production coefficient (the 1x1 transform of the cell matrix) must
    # equal the per-pair oracle, whose degree-r periodic part is the direct
    # cell-pair integration.
    alpha = r // 2
    for k in range(b**2 + 3):
        for l in range(b**2 + 3):
            assert _khat(b, alpha, k, l) == _per_pair_oracle(b, alpha, k, l), (
                b, r, k, l
            )


@pytest.mark.parametrize("b", [2, 3])
def test_periodic_conjugate_symmetry_reference(b):
    rng = random.Random(3)
    for _ in range(25):
        k = rng.randrange(0, b**3)
        l = rng.randrange(0, b**3)
        a = _periodic_coeff_reference(b, 2, k, l)
        c = _periodic_coeff_reference(b, 2, l, k)
        assert c == conjugate(a)


def test_kernel_coeff_examples():
    for b in (2, 3):
        for alpha in (1, 2):
            assert _khat(b, alpha, 0, 0) == Cyclotomic.root(b, 0)
    assert _khat(2, 1, 85, 1).is_zero()


def test_kernel_coeff_conjugate_symmetry():
    rng = random.Random(5)
    for b, alpha in ((2, 1), (2, 2), (3, 1)):
        for _ in range(20):
            k = rng.randrange(0, b**4)
            l = rng.randrange(0, b**4)
            assert _khat(b, alpha, l, k) == conjugate(_khat(b, alpha, k, l))


def test_multivariate_sparsity_corollary():
    # One bad coordinate pair kills the whole product.
    val = _khat(2, 1, 85, 1) * _khat(2, 1, 1, 1)
    assert val.is_zero()
    val = _khat(3, 1, 1, 1) * _khat(3, 1, 61, 1)
    p, q = pair_type(3, 61, 1)
    if p + q > 2:
        assert val.is_zero()


def test_batch_engine_matches_per_pair():
    # The scan reads every pair from one transform at the scan resolution;
    # each value must equal the per-pair oracle and the 1x1 transform.
    for b, alpha in ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2)):
        got = {
            (k, l): (ptype, value)
            for k, l, ptype, value in iter_kernel_coeffs(b, alpha, b**2)
        }
        assert list(got) == [(k, l) for k in range(b**2) for l in range(b**2)]
        for (k, l), (ptype, value) in got.items():
            assert ptype == pair_type(b, k, l)
            assert value == _per_pair_oracle(b, alpha, k, l), (b, alpha, k, l)
            assert value == _khat(b, alpha, k, l), (b, alpha, k, l)


@pytest.mark.parametrize("b,kmax", [(2, 32), (3, 81)])
def test_scan_pair_types_equal_pair_type(b, kmax):
    # The scan expands each index once; every pair must still get the type
    # that pair_type computes from scratch.
    seen = [((k, l), ptype) for k, l, ptype, _ in iter_kernel_coeffs(b, 1, kmax)]
    assert seen == [
        ((k, l), pair_type(b, k, l)) for k in range(kmax) for l in range(kmax)
    ]


def test_scan_caps():
    with pytest.raises(UsageError):
        list(iter_kernel_coeffs(2, 4, 4))
    with pytest.raises(UsageError):
        list(iter_kernel_coeffs(2, 1, 2**6))
    # One coefficient at resolution 13 would need 2**26 cell pairs.
    with pytest.raises(ResourceLimitError):
        _khat(2, 1, 2**12, 0)


def test_coeff_table_symmetry_and_types():
    table = {
        (k, l): (value, ptype) for k, l, ptype, value in iter_kernel_coeffs(2, 1, 8)
    }
    assert len(table) == 64
    for (k, l), (value, ptype) in table.items():
        assert table[(l, k)][0] == conjugate(value)
        assert table[(l, k)][1] == (ptype[1], ptype[0])
        if sum(ptype) > 2:
            assert value.is_zero()


def test_sparsity_small_scans():
    # Every pair with type budget p + q > 2 alpha has coefficient exactly 0.
    for b, max_index in ((2, 2**3), (3, 3**2)):
        violations = [
            (k, l) for k, l, (p, q), value in iter_kernel_coeffs(b, 1, max_index)
            if p + q > 2 and not value.is_zero()
        ]
        assert violations == []


@pytest.mark.parametrize("b,n", [(2, 5), (3, 4)])
def test_walsh_orthonormality_exact(b, n):
    """Grid sums of wal_k * conj(wal_l) vanish exactly off the diagonal.

    Piecewise constancy makes the cell sum the exact integral; the sum of
    root-of-unity values is assembled in the cyclotomic field.
    """
    emat = _exponent_matrix(b, n)
    cells = b**n
    for k in range(cells):
        diff = (emat[k][None, :] - emat) % b
        counts = np.stack([(diff == e).sum(axis=1) for e in range(b)], axis=1)
        for l in range(cells):
            total = Cyclotomic.zero(b)
            for e in range(b):
                c = int(counts[l, e])
                if c:
                    total = total + Cyclotomic.root(b, e) * c
            if k == l:
                assert total == Cyclotomic.root(b, 0) * cells
            else:
                assert total.is_zero(), (k, l)


def _decay_ratio_sup(b, alpha, max_index):
    """Empirical sup of |khat(k, l)| * b**(mu_alpha(k) + mu_alpha(l)) over a
    scan; the bound constant is never published, so no reference value."""
    sup = 0.0
    for k, l, _, value in iter_kernel_coeffs(b, alpha, max_index):
        mag = abs(value.to_complex())
        if mag:
            weight = dick_weight(b, alpha, k) + dick_weight(b, alpha, l)
            sup = max(sup, mag * float(b) ** weight)
    return sup


def test_decay_ratio_sup_monotone_and_stable():
    for b, alpha in ((2, 1), (2, 2), (3, 1)):
        sups = [_decay_ratio_sup(b, alpha, b**g) for g in (2, 3, 4)]
        assert all(math.isfinite(s) for s in sups)
        assert sups[0] <= sups[1] <= sups[2]
        # Converged: growing the scan no longer moves the sup.
        assert sups[2] == pytest.approx(sups[1], rel=1e-12)


@pytest.mark.parametrize(
    "b,k,l",
    [(2, 85, 1), (2, 43, 1), (3, 40, 1), (3, 41, 2)],
)
def test_periodic_recursion_cross_check(b, k, l):
    """Degree-reduction identity for the periodic coefficients, checked
    exactly on pairs whose high-index terms all vanish by sparsity.

    With (k, l) of type (p, q), adding any extra leading term to k raises p
    by one, so for p + q = r - 1 the infinite part of the identity is
    identically zero and the remaining finite combination must match.
    """
    r = 4
    p, q = pair_type(b, k, l)
    assert p + q == r - 1
    kappa1, c1 = nonzero_digit_terms(k, b)[0]
    k_stripped = k - kappa1 * b ** (c1 - 1)
    one = Cyclotomic.root(b, 0)
    # gap = 1 - w**-kappa1 is nonzero.  The identity reads
    # P_r(k, l) = -b**-c1 (P_{r-1}(k', l) / gap + (1/2 - 1/gap) P_{r-1}(k, l)),
    # checked here multiplied through by gap.
    gap = one + Cyclotomic.root(b, -kappa1) * -1
    rhs = (
        _periodic_coeff_reference(b, r - 1, k_stripped, l)
        + (gap * Fraction(1, 2) + one * -1) * _periodic_coeff_reference(b, r - 1, k, l)
    ) * Fraction(-1, b**c1)
    assert gap * _periodic_coeff_reference(b, r, k, l) == rhs


@pytest.mark.parametrize("b,alpha,g", [(2, 1, 3), (2, 3, 2), (3, 2, 2), (5, 1, 1)])
def test_cell_matrix_symmetric_and_reproducing(b, alpha, g):
    # K is symmetric, and integral K(x, y) dy = 1 makes every row of cell
    # integrals sum to the cell width b**-g exactly.
    den, nums = _cell_matrix(b, alpha, g)
    assert (nums == nums.T).all()
    for row in nums:
        assert Fraction(sum(row), den) == Fraction(1, b**g)


@pytest.mark.parametrize("b,g,alpha", [(2, 2, 1), (3, 1, 2)])
def test_cell_matrix_equals_sympy_integrals(b, g, alpha):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def kernel(diff):
        # K_alpha with |x - y| written as ``diff`` on one side of the diagonal.
        poly = sum(
            sympy.bernoulli(r, x) * sympy.bernoulli(r, y) / sympy.factorial(r) ** 2
            for r in range(alpha + 1)
        )
        per = sympy.bernoulli(2 * alpha, diff) / sympy.factorial(2 * alpha)
        return sympy.expand(poly + (-1) ** (alpha + 1) * per)

    below, above = kernel(x - y), kernel(y - x)  # y < x and y > x
    n = b**g
    den, nums = _cell_matrix(b, alpha, g)
    for tx in range(n):
        x0, x1 = sympy.Rational(tx, n), sympy.Rational(tx + 1, n)
        for ty in range(n):
            y0, y1 = sympy.Rational(ty, n), sympy.Rational(ty + 1, n)
            if tx > ty:
                exact = sympy.integrate(below, (y, y0, y1), (x, x0, x1))
            elif tx < ty:
                exact = sympy.integrate(above, (y, y0, y1), (x, x0, x1))
            else:
                exact = sympy.integrate(
                    sympy.integrate(below, (y, y0, x))
                    + sympy.integrate(above, (y, x, y1)),
                    (x, x0, x1),
                )
            assert Fraction(nums[tx, ty], den) == Fraction(str(exact)), (tx, ty)


def test_transform_exact_beyond_fixed_limb_width():
    # Class weights this large would overflow int64 sums of 40-bit limbs;
    # the derived limb width must keep the transform exact.
    b, alpha, g = 3, 2, 2
    n = b**g
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 2**20, size=(b, 2, n))
    cols = rng.integers(0, 2**20, size=(b, 3, n))
    bound = int(rows.sum(axis=(0, 2)).max()) * int(cols.sum(axis=(0, 2)).max())
    den, nums = _cell_matrix(b, alpha, g)
    assert bound * int(np.abs(nums).max()) >= 2**63
    assert bound * 2**40 >= 2**63
    khat = _walsh_transform(b, alpha, g, rows, cols)
    for i in range(2):
        for j in range(3):
            full = [0] * b
            for a in range(b):
                for c in range(b):
                    full[(c - a) % b] += sum(
                        int(rows[a, i, tx]) * nums[tx, ty] * int(cols[c, j, ty])
                        for tx in range(n)
                        for ty in range(n)
                    )
            want = Cyclotomic._from_length_b(b, [Fraction(v, den) for v in full])
            assert khat(i, j) == want, (i, j)


@settings(max_examples=40, deadline=None)
@given(
    b=st.sampled_from((2, 3)),
    alpha=st.sampled_from((1, 2, 3)),
    data=st.data(),
)
def test_scan_conjugate_symmetric_and_sparse(b, alpha, data):
    max_index = data.draw(st.integers(1, b**3), label="max_index")
    table = {
        (k, l): (ptype, value)
        for k, l, ptype, value in iter_kernel_coeffs(b, alpha, max_index)
    }
    assert len(table) == max_index**2
    for (k, l), ((p, q), value) in table.items():
        assert table[l, k][1] == conjugate(value)
        if p + q > 2 * alpha:
            assert value.is_zero(), (k, l)
