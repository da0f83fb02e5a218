"""Field and polynomial arithmetic: exhaustive ring axioms and series checks."""

import numpy as np
import pytest

from hodnet.errors import UsageError
from hodnet.gf import (
    Poly,
    PrimeField,
    digits_of,
    laurent_coeffs,
    monic_irreducibles,
)
from hodnet.points import _digits_to_int
from hodnet.walsh import _char_exponents


@pytest.mark.parametrize("b", [2, 3, 5])
def test_field_ring_axioms_exhaustive(b):
    # Sums and products are plain ints mod b; the field supplies validation
    # and the one axiom Python does not: every nonzero element is a unit.
    f = PrimeField(b)
    for a in range(b):
        assert f.check(a) == a
        if a:
            assert a * f.inv(a) % b == 1
            assert f.inv(f.inv(a)) == a


def test_field_examples():
    assert PrimeField(5).inv(2) == 3


def test_field_errors():
    with pytest.raises(ZeroDivisionError):
        PrimeField(3).inv(0)
    with pytest.raises(UsageError):
        PrimeField(4)
    with pytest.raises(UsageError):
        PrimeField(67)  # prime but above the supported maximum
    with pytest.raises(UsageError):
        PrimeField(3).check(3)


def test_digitwise_examples():
    # Walsh characters multiply as their indices add digitwise:
    # e_j + e_k = e_(j (+) k) on every cell.  5 = (2,1) and 7 = (1,2) in
    # base 3, so 5 (+) 7 = 0 and 5 (-) 7 = (1,2) = 7.
    e5, e7 = _char_exponents(3, 2, 5), _char_exponents(3, 2, 7)
    assert not ((e5 + e7) % 3).any()
    assert np.array_equal((e5 - e7) % 3, e7)
    # At b = 2 the digitwise sum is XOR: 3 (+) 1 = 2.
    for j in range(16):
        for k in range(16):
            got = (_char_exponents(2, 4, j) + _char_exponents(2, 4, k)) % 2
            assert np.array_equal(got, _char_exponents(2, 4, j ^ k))


def test_digits_roundtrip():
    # digits_of (least significant first) against the production
    # digits-to-integer route (most significant first).
    for b in (2, 3, 5):
        digits = np.array([digits_of(k, b, 8)[::-1] for k in range(200)])
        assert _digits_to_int(digits.astype(np.uint8), b).tolist() == list(range(200))


def test_monic_irreducibles_base2():
    polys = monic_irreducibles(2, 3)
    assert polys[0] == Poly(2, (0, 1))  # x
    assert polys[1] == Poly(2, (1, 1))  # x + 1
    assert polys[2] == Poly(2, (1, 1, 1))  # x^2 + x + 1
    assert monic_irreducibles(2, 1) == [Poly(2, (0, 1))]


def test_monic_irreducibles_base3():
    polys = monic_irreducibles(3, 4)
    assert polys[0] == Poly(3, (0, 1))
    assert polys[1] == Poly(3, (1, 1))
    assert polys[2] == Poly(3, (2, 1))
    assert polys[3] == Poly(3, (1, 0, 1))  # x^2 + 1


@pytest.mark.parametrize("b,count", [(2, 6), (3, 6), (5, 5)])
def test_monic_irreducibles_mutually_indivisible(b, count):
    polys = monic_irreducibles(b, count)
    for i, p in enumerate(polys):
        assert p.is_monic()
        for q in polys[:i]:
            assert not (p % q).is_zero()


def test_laurent_examples():
    x = monic_irreducibles(2, 1)[0]
    x1 = monic_irreducibles(2, 2)[1]
    # x^0 / x^k expands to a single term at position k.
    assert laurent_coeffs(x, 2, 0, 4) == [0, 1, 0, 0]
    assert laurent_coeffs(x, 1, 0, 4) == [1, 0, 0, 0]
    assert laurent_coeffs(x1, 1, 0, 4) == [1, 1, 1, 1]
    assert laurent_coeffs(x1, 2, 0, 4) == [0, 1, 0, 1]


def test_laurent_shift_range_error():
    x = monic_irreducibles(2, 1)[0]
    with pytest.raises(UsageError):
        laurent_coeffs(x, 1, 1, 4)
    with pytest.raises(UsageError):
        laurent_coeffs(x, 0, 0, 4)


@pytest.mark.parametrize("b", [2, 3])
def test_laurent_roundtrip(b):
    """p**i times the truncated series recovers the numerator monomial.

    Residual terms can only sit at orders x**(i*e - L - 1) and below.
    """
    length = 12
    for p in monic_irreducibles(b, 4):
        e = p.degree
        for power in (1, 2, 3):
            for shift in range(e):
                coeffs = laurent_coeffs(p, power, shift, length)
                denom = p**power
                # Product as exponent -> coefficient over F_b.
                prod: dict[int, int] = {}
                for l, a in enumerate(coeffs, start=1):
                    if a == 0:
                        continue
                    for dpow, c in enumerate(denom.coeffs):
                        if c == 0:
                            continue
                        expo = dpow - l
                        prod[expo] = (prod.get(expo, 0) + a * c) % b
                cutoff = power * e - length - 1
                for expo, c in prod.items():
                    if expo > cutoff:
                        want = 1 if expo == e - shift - 1 else 0
                        assert c == want, (p, power, shift, expo)
