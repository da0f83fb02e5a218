"""Base checks, canonical irreducibles and the reciprocal-series rows."""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hodnet.errors import UsageError
from hodnet.gf import MAX_BASE, check_base, digits_of, is_prime, monic_irreducibles
from hodnet.matrices import niederreiter_set
from hodnet.points import _digits_to_int
from hodnet.walsh import _char_exponents


def test_field_examples():
    primes = [b for b in range(MAX_BASE + 1) if is_prime(b)]
    assert primes[:5] == [2, 3, 5, 7, 11] and primes[-1] == 61
    assert [check_base(b) for b in primes] == primes


def test_field_errors():
    for bad in (-3, 0, 1, 4, 9, 2.0, "2", True):
        with pytest.raises(UsageError, match="must be a prime integer"):
            check_base(bad)
    with pytest.raises(UsageError, match="exceeds the supported maximum 64"):
        check_base(67)  # prime but above the supported maximum


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


def _mobius(n):
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


def _gauss_count(b, n):
    # Monic irreducibles of degree n over F_b: (1/n) sum_{k|n} mu(k) b**(n/k).
    return sum(_mobius(k) * b ** (n // k) for k in range(1, n + 1) if n % k == 0) // n


@pytest.mark.parametrize("b", [2, 3, 5])
def test_monic_irreducibles_count_per_degree(b):
    # A missed irreducible pulls a degree-5 one into the list, and a
    # reducible one inflates its degree's count.
    want = {n: _gauss_count(b, n) for n in range(1, 5)}
    polys = monic_irreducibles(b, sum(want.values()))
    got = {n: sum(len(p) - 1 == n for p in polys) for n in range(1, 6)}
    assert got == {**want, 5: 0}
    assert len(set(polys)) == len(polys)


def test_monic_irreducibles_base2():
    assert monic_irreducibles(2, 3) == [(0, 1), (1, 1), (1, 1, 1)]  # x, x+1, x^2+x+1
    assert monic_irreducibles(2, 1) == [(0, 1)]


def test_monic_irreducibles_base3():
    assert monic_irreducibles(3, 4) == [(0, 1), (1, 1), (2, 1), (1, 0, 1)]  # .., x^2+1
    with pytest.raises(UsageError):
        monic_irreducibles(3, 0)


def _sympy_poly(coeffs, b):
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), modulus=b)


@pytest.mark.parametrize("b,count", [(2, 6), (3, 6), (5, 5)])
def test_monic_irreducibles_mutually_indivisible(b, count):
    polys = [_sympy_poly(p, b) for p in monic_irreducibles(b, count)]
    for i, p in enumerate(polys):
        assert p.LC() == 1 and p.is_irreducible
        for q in polys[:i]:
            assert not p.rem(q).is_zero


def test_laurent_examples():
    # Base 2, p = x: x**0 / x**i is the single term x**-i.  p = x + 1:
    # 1/(x+1) = x**-1 + x**-2 + ..., and 1/(x+1)**2 = x**-2 + x**-4 + ...
    ident, pascal = niederreiter_set(2, 2, 2, 4).matrices
    assert ident.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]
    assert pascal.tolist() == [[1, 1, 1, 1], [0, 1, 0, 1]]


def _poly_power(p, i, b):
    out = np.array([1], dtype=np.int64)
    for _ in range(i):
        out = np.convolve(out, np.array(p, dtype=np.int64)) % b
    return out


@pytest.mark.parametrize("b", [2, 3, 5, 7])
@settings(max_examples=20, deadline=None)
@given(dims=st.integers(1, 12), rows=st.integers(1, 14), cols=st.integers(1, 14))
def test_laurent_roundtrip(b, dims, rows, cols):
    """Each matrix row times p**i recovers its numerator monomial.

    Row k of the matrix seeded by p (degree e) is the series of
    x**(e-z-1) / p(x)**i, i = k//e + 1 and z = k mod e, truncated after
    x**-cols.  Multiplied by p**i it equals x**(e-z-1) at every order above
    i*e - cols - 1, where the truncation starts to show.
    """
    ms = niederreiter_set(b, dims, rows, cols)
    for p, mat in zip(monic_irreducibles(b, dims), ms.matrices):
        e = len(p) - 1
        for k, row in enumerate(mat):
            i, z = k // e + 1, k % e
            denom = _poly_power(p, i, b)
            # Product as exponent -> coefficient over F_b; row[l-1] sits at x**-l.
            prod: dict[int, int] = {}
            for l, a in enumerate(row.tolist(), start=1):
                for dpow, c in enumerate(denom.tolist()):
                    prod[dpow - l] = (prod.get(dpow - l, 0) + a * c) % b
            for expo in range(i * e - cols, i * e):
                want = 1 if expo == e - z - 1 else 0
                assert prod.get(expo, 0) == want, (p, k, expo)
