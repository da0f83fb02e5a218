"""Bernoulli polynomials, kernel values, worst-case error and the Walsh-dual
identity."""

import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotomic_helpers import conjugate
from hodnet.bernoulli import bernoulli, bernoulli_coeffs
from hodnet.cyclotomic import Cyclotomic
from hodnet.errors import UsageError
from hodnet.kernel import (
    KernelSpec,
    _kernel_matrix_1d,
    kernel_1d,
    sqrt_rounded,
    wce,
    wce_squared_exact,
    wce_squared_sorted,
)
from hodnet.matrices import build_matrices, niederreiter_set
from hodnet.points import _digits_to_int, net_digits, net_points, net_values
from hodnet.quality import dual_indices, min_dual_weight
from hodnet.walsh import iter_kernel_coeffs


def test_bernoulli_values():
    assert bernoulli(0, Fraction(1, 3)) == 1
    assert bernoulli(1, Fraction(1, 2)) == 0
    assert bernoulli(2, Fraction(0)) == Fraction(1, 6)
    assert bernoulli(4, Fraction(0)) == Fraction(-1, 30)
    assert bernoulli(3, 0.5) == pytest.approx(0.0)


def test_bernoulli_zero_mean():
    # The defining normalization: each polynomial integrates to zero on [0,1].
    for r in range(1, 9):
        coeffs = bernoulli_coeffs(r)
        integral = sum(c / (j + 1) for j, c in enumerate(coeffs))
        assert integral == 0


def test_bernoulli_derivative_relation():
    for r in range(1, 8):
        cr = bernoulli_coeffs(r)
        prev = bernoulli_coeffs(r - 1)
        derived = tuple(j * c for j, c in enumerate(cr) if j >= 1)
        assert derived == tuple(r * c for c in prev)


def test_kernel_values():
    assert kernel_1d(1, Fraction(0), Fraction(0)) == Fraction(4, 3)
    assert kernel_1d(1, Fraction(0), Fraction(1, 2)) == Fraction(23, 24)
    assert kernel_1d(1, Fraction(1, 2), Fraction(1, 2)) == Fraction(13, 12)
    assert kernel_1d(1, 0.0, 0.0) == pytest.approx(4 / 3, abs=1e-14)


def test_kernel_symmetry_random():
    rng = random.Random(2)
    for alpha in (1, 2, 3):
        for _ in range(50):
            x, y = rng.random(), rng.random()
            assert kernel_1d(alpha, x, y) == pytest.approx(
                kernel_1d(alpha, y, x), rel=1e-13
            )


def _dyadic_rationals(base):
    return st.integers(1, 12).flatmap(
        lambda k: st.builds(
            Fraction, st.integers(0, base**k - 1), st.just(base**k)
        )
    )


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.sampled_from((1, 2, 3)),
    pair=st.sampled_from((2, 3, 5)).flatmap(
        lambda b: st.tuples(_dyadic_rationals(b), _dyadic_rationals(b))
    ),
)
def test_kernel_exact_symmetric_and_matches_matrix_path(alpha, pair):
    # The exact scalar kernel (the oracle) and the vectorized binary64 block
    # (production) must define the same K_alpha.
    x, y = pair
    exact = kernel_1d(alpha, x, y)
    assert type(exact) is Fraction
    assert exact == kernel_1d(alpha, y, x)
    block = _kernel_matrix_1d(
        alpha, np.array([float(x), float(y)]), np.array([float(y), float(x)])
    )
    for got in (block[0, 0], block[1, 1]):
        assert got == pytest.approx(float(exact), rel=1e-12)


def _sorted_e2(alpha, nums, den):
    nums = np.array(nums, dtype=object).reshape(len(nums), -1)
    return wce_squared_sorted(KernelSpec(alpha, nums.shape[1]), nums, den)


def _oracle_e2(alpha, nums, den):
    pts = [tuple(Fraction(x, den) for x in pt) for pt in nums]
    return wce_squared_exact(KernelSpec(alpha, len(pts[0])), pts)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.sampled_from((1, 2, 3)),
    dims=st.sampled_from((1, 2)),
    net=st.sampled_from((2, 3, 5)).flatmap(
        lambda b: st.tuples(st.just(b), st.integers(1, {2: 4, 3: 3, 5: 2}[b]))
    ),
)
def test_sorted_wce_equals_oracle_on_nets(alpha, dims, net):
    b, m = net
    ms = build_matrices(b, dims, m, order=2 * alpha + 1)
    nums = _digits_to_int(net_digits(ms, m), b)
    den = b**ms.rows
    assert _sorted_e2(alpha, nums, den) == _oracle_e2(alpha, nums.tolist(), den)


@st.composite
def _tied_point_sets(draw):
    """Numerators over b**k, N <= 40, with coordinates copied between points
    so that equal x and equal y values occur."""
    b = draw(st.sampled_from((2, 3, 5)))
    k = draw(st.integers(1, 4))
    dims = draw(st.sampled_from((1, 2)))
    coord = st.integers(0, b**k - 1)
    pts = draw(st.lists(st.lists(coord, min_size=dims, max_size=dims),
                        min_size=1, max_size=40))
    index = st.integers(0, len(pts) - 1)
    for src, dst, j in draw(st.lists(st.tuples(index, index, st.integers(0, dims - 1)),
                                     max_size=12)):
        pts[dst][j] = pts[src][j]
    return b**k, pts


@settings(max_examples=60, deadline=None)
@given(alpha=st.sampled_from((1, 2, 3)), case=_tied_point_sets())
def test_sorted_wce_equals_oracle_with_ties(alpha, case):
    den, nums = case
    assert _sorted_e2(alpha, nums, den) == _oracle_e2(alpha, nums, den)


def test_sorted_wce_rejects_three_dims():
    with pytest.raises(UsageError):
        wce_squared_sorted(KernelSpec(1, 3), np.zeros((4, 3), dtype=object), 2)


@settings(max_examples=200, deadline=None)
@given(
    num=st.integers(1, 2**300),
    den=st.integers(1, 2**300),
    root=st.floats(min_value=1e-30, max_value=1e30),
)
def test_sqrt_rounded_is_correctly_rounded(num, den, root):
    with localcontext() as ctx:
        ctx.prec = 60
        want = float((Decimal(num) / Decimal(den)).sqrt())
    assert sqrt_rounded(Fraction(num, den)) == want
    # Exact squares take the path with no sticky bit.
    assert sqrt_rounded(Fraction(root) ** 2) == root


def test_wce_single_point_fixtures():
    spec = KernelSpec(1, 1)
    p0 = (Fraction(0),)
    ph = (Fraction(1, 2),)
    assert wce_squared_exact(spec, [p0]) == Fraction(1, 3)
    assert wce_squared_exact(spec, [ph]) == Fraction(1, 12)
    assert wce_squared_exact(spec, [p0, ph]) == Fraction(1, 12)
    assert wce(spec, np.array([[0.0]])) ** 2 == pytest.approx(1 / 3, abs=1e-12)
    assert wce(spec, np.array([[0.5]])) ** 2 == pytest.approx(1 / 12, abs=1e-12)
    both = np.array([[0.0], [0.5]])
    assert wce(spec, both) ** 2 == pytest.approx(1 / 12, abs=1e-12)


def test_wce_float_matches_exact_on_nets():
    for b, order, alpha, m, s in ((2, 3, 1, 3, 1), (2, 2, 2, 2, 2), (3, 2, 1, 1, 2)):
        ms = build_matrices(b, s, m, order=order)
        spec = KernelSpec(alpha, s)
        pts = net_points(ms, m)
        exact = wce_squared_exact(spec, pts)
        approx = wce(spec, net_values(ms, m)) ** 2
        assert approx == pytest.approx(float(exact), rel=1e-9, abs=1e-13)


def test_wce_threads_deterministic():
    ms = build_matrices(2, 1, 6, order=3)
    spec = KernelSpec(1, 1)
    vals = net_values(ms, 6)
    assert wce(spec, vals, threads=1) == wce(spec, vals, threads=4)


def test_wce_tensor_product_relation():
    # For a single point, 1 + e_2d**2 factors into the per-coordinate values.
    spec2 = KernelSpec(1, 2)
    spec1 = KernelSpec(1, 1)
    pt = (Fraction(1, 2), Fraction(1, 4))
    e2_2d = wce_squared_exact(spec2, [pt])
    ex = wce_squared_exact(spec1, [pt[:1]])
    ey = wce_squared_exact(spec1, [pt[1:]])
    assert 1 + e2_2d == (1 + ex) * (1 + ey)


def test_wce_dimension_mismatch():
    with pytest.raises(UsageError):
        wce(KernelSpec(1, 2), np.array([[0.5]]))


def test_dual_truncated_empty_below_rho():
    # The van der Corput net at m = 2 has no dual vector of weight below 3,
    # so its truncated dual sum at cutoff 2 is empty.
    ms = niederreiter_set(2, 1, 2, 2)
    assert dual_indices(ms, 2) == []
    assert min_dual_weight(ms, 1, 3) == 3


def _dual_pair_coeffs(ms, base, cutoff):
    # khat(k, l) over pairs of nonzero dual vectors of weight below cutoff,
    # read from the production Walsh scan (s = 1).
    ks = {k for (k,) in dual_indices(ms, cutoff)}
    return [
        v for k, l, _, v in iter_kernel_coeffs(base, 1, base**cutoff)
        if k in ks and l in ks
    ]


def _truncated_dual_sum(ms, base, cutoff):
    return sum(_dual_pair_coeffs(ms, base, cutoff), Cyclotomic.zero(base))


def test_dual_truncated_converges_to_kernel_wce():
    # Walsh-dual identity: e**2 is the sum of khat(k, l) over all pairs of
    # nonzero dual vectors.  Truncated at a weight cutoff, the sum is real and
    # approaches e**2 from below.
    for base, cutoffs in ((2, (3, 4, 5)), (3, (2, 3, 4))):
        ms = niederreiter_set(base, 1, 2, 2)
        e2 = wce_squared_exact(KernelSpec(1, 1), net_points(ms, 2))
        gaps = []
        for cutoff in cutoffs:
            val = _truncated_dual_sum(ms, base, cutoff)
            assert conjugate(val) == val
            gaps.append(e2 - val.to_complex().real)
        assert all(gap > 0 for gap in gaps)
        assert gaps == sorted(gaps, reverse=True) and gaps[-1] < gaps[0]


def test_dual_sum_imaginary_cancellation_base3():
    # In base 3 single coefficients khat(k, l) are complex; summed over the
    # dual pairs their imaginary parts cancel exactly.
    ms = niederreiter_set(3, 1, 2, 2)
    terms = _dual_pair_coeffs(ms, 3, 4)
    assert any(conjugate(v) != v for v in terms)
    val = _truncated_dual_sum(ms, 3, 4)
    assert conjugate(val) == val and not val.is_zero()
