"""Bernoulli polynomials, kernel values, worst-case error and the dual route."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodnet.bernoulli import bernoulli, bernoulli_coeffs
from hodnet.cyclotomic import Cyclotomic
from hodnet.errors import ResourceLimitError, UsageError
from hodnet.kernel import (
    KernelSpec,
    _kernel_matrix_1d,
    dual_walsh_sum_exact,
    kernel_1d,
    wce,
    wce_squared_exact,
)
from hodnet.matrices import build_matrices, niederreiter_set
from hodnet.points import DigitPoint, net_points, net_values
from hodnet.walsh import kernel_walsh_coeff_vec


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


def test_wce_single_point_fixtures():
    spec = KernelSpec(1, 1)
    p0 = DigitPoint(2, ((0,),))
    ph = DigitPoint(2, ((1,),))
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
    pt = DigitPoint(2, ((1,), (0, 1)))
    e2_2d = wce_squared_exact(spec2, [pt])
    ex = wce_squared_exact(spec1, [DigitPoint(2, ((1,),))])
    ey = wce_squared_exact(spec1, [DigitPoint(2, ((0, 1),))])
    assert 1 + e2_2d == (1 + ex) * (1 + ey)


def test_wce_dimension_mismatch():
    with pytest.raises(UsageError):
        wce(KernelSpec(1, 2), np.array([[0.5]]))


def test_dual_truncated_empty_below_rho():
    ms = niederreiter_set(2, 1, 2, 2)
    spec = KernelSpec(1, 1)
    assert dual_walsh_sum_exact(spec, ms, 2, 2).is_zero()


def test_dual_sum_charges_cell_pairs():
    # The s = 1 sum reads the cell matrix at resolution cutoff: 2**8 pairs.
    spec = KernelSpec(1, 1)
    ms = niederreiter_set(2, 1, 2, 2)
    with pytest.raises(ResourceLimitError):
        dual_walsh_sum_exact(spec, ms, 2, 4, work_limit=255)
    assert dual_walsh_sum_exact(spec, ms, 2, 4, work_limit=256).is_rational()


def test_dual_truncated_converges_to_kernel_wce():
    spec = KernelSpec(1, 1)
    ms = niederreiter_set(2, 1, 2, 2)
    e2 = wce_squared_exact(spec, net_points(ms, 2))
    gaps = []
    for cutoff in (3, 4, 5, 6):
        val = dual_walsh_sum_exact(spec, ms, 2, cutoff)
        assert val.is_real()
        gaps.append(abs(float(e2) - val.to_complex().real))
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < gaps[0]


def test_dual_sum_aggregation_matches_pairwise():
    # The s = 1 aggregated route must equal literal pairwise summation.
    from hodnet.quality import dual_indices

    spec = KernelSpec(1, 1)
    for m, cutoff in ((1, 4), (2, 5), (2, 6)):
        ms = niederreiter_set(2, 1, m, m)
        duals = [d.components[0] for d in dual_indices(ms, cutoff)]
        acc = Cyclotomic.zero(2)
        for a in duals:
            for c in duals:
                acc = acc + kernel_walsh_coeff_vec(2, 1, (a,), (c,))
        assert dual_walsh_sum_exact(spec, ms, m, cutoff) == acc


def test_dual_sum_two_dimensional_pairwise():
    # s = 2 runs the generic pairwise route; compare against the kernel WCE
    # qualitatively (truncation from below at a coarse cutoff).
    spec = KernelSpec(1, 2)
    ms = niederreiter_set(2, 2, 2, 2)
    val = dual_walsh_sum_exact(spec, ms, 2, 4)
    assert val.is_real()
    e2 = float(wce_squared_exact(spec, net_points(ms, 2)))
    assert 0 < val.to_complex().real < e2 + 1e-12


def test_dual_sum_imaginary_cancellation_base3():
    spec = KernelSpec(1, 1)
    ms = niederreiter_set(3, 1, 2, 2)
    val = dual_walsh_sum_exact(spec, ms, 2, 4)
    assert val.is_real()
