"""Exact cyclotomic arithmetic over Q(w_b)."""

import cmath
from fractions import Fraction

import pytest

from cyclotomic_helpers import conjugate
from hodnet.cyclotomic import Cyclotomic
from hodnet.errors import UsageError


@pytest.mark.parametrize("b", [2, 3, 5])
def test_roots_of_unity(b):
    for e in range(2 * b):
        z = Cyclotomic.root(b, e).to_complex()
        want = cmath.exp(2j * cmath.pi * e / b)
        assert abs(z - want) < 1e-12


@pytest.mark.parametrize("b", [2, 3, 5])
def test_root_sum_is_zero(b):
    total = Cyclotomic.zero(b)
    for e in range(b):
        total = total + Cyclotomic.root(b, e)
    assert total.is_zero()


@pytest.mark.parametrize("b", [2, 3, 5])
def test_ring_operations(b):
    vals = [Cyclotomic.root(b, e) for e in range(b)]
    vals.append(Cyclotomic.root(b, 0) * Fraction(3, 7))
    for x in vals:
        for y in vals:
            assert (x + y) + y * -1 == x
            assert x * y == y * x
            zc = x.to_complex() * y.to_complex()
            assert abs((x * y).to_complex() - zc) < 1e-12


@pytest.mark.parametrize("b", [2, 3, 5])
def test_root_multiplication_adds_exponents(b):
    for i in range(b):
        for j in range(b):
            prod = Cyclotomic.root(b, i) * Cyclotomic.root(b, j)
            assert prod == Cyclotomic.root(b, i + j)


@pytest.mark.parametrize("b", [2, 3, 5])
def test_conjugate(b):
    for e in range(b):
        z = Cyclotomic.root(b, e)
        assert conjugate(z) == Cyclotomic.root(b, -e)
        assert conjugate(conjugate(z)) == z
        assert (z * conjugate(z)) == Cyclotomic.root(b, 0)


def test_base2_degenerates_to_rationals():
    minus_one = Cyclotomic.root(2, 1)
    assert minus_one.coeffs == (Fraction(-1),)


def test_real_predicate():
    z = Cyclotomic.root(3, 1)
    assert conjugate(z) != z
    real = z + conjugate(z)
    assert conjugate(real) == real
    assert real.coeffs == (Fraction(-1), Fraction(0))


def test_base_mismatch_rejected():
    with pytest.raises(UsageError):
        Cyclotomic.root(2, 0) + Cyclotomic.root(3, 0)
    with pytest.raises(UsageError):
        Cyclotomic(4, (1, 1, 1))
